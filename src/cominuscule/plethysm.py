"""Decomposition of the exterior powers of the cotangent bundle into
irreducible homogeneous summands.

Three routes produce the same answer and are tested against each other:

* ``cauchy_decompose``: the ordinary-Grassmannian fast path, one summand per
  partition of p inside the k x (n-k) box;
* ``hooks_decompose``: the symplectic/orthogonal fast paths, indexed by the
  arm = leg +- 1 hook classes;
* the general weight engine: a subset-sum dynamic program over the nilradical
  roots produces the weight multiset of the p-th exterior power, and
  Klimyk's formula reads the irreducible summands off that multiset in one
  vectorized pass of Levi reflections.  This is the only route for the
  exceptional spaces and the quadrics.

Both steps of the engine work on numpy integer arrays and share one weight
encoding: a row is one int64 mixed-radix key in a box of weights (``_radix``;
a space whose box does not fit 64 bits is refused before any allocation).
The DP adds roots to keys, and the Klimyk pass reflects the int16 weight
rows.  On every space the engine computes grades up to floor(dim/2)
directly and derives the upper half of the exterior algebra through the
duality ``Wedge^{N-p} E = (Wedge^p E)^dual (x) det E``.

Answers are cached per (space, p, route) in one bounded cache, so a forced
engine answer is never served from a fast-path entry or the reverse; the
rank identity is checked on every call, cached or not.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .catalog import GrassmannianSpec, grassmannian, nilradical_roots
from .partitions import Partition, dual, hooks_q1, hooks_qm1
from .rootsys import Weight, negate


class DecompositionError(RuntimeError):
    """Internal consistency failure of a decomposition."""


class RankIdentityError(DecompositionError):
    """The Levi dimensions of the summands do not add up to binom(dim X, p)."""

    def __init__(self, message: str, expected: int, got: int):
        super().__init__(message)
        self.expected = expected
        self.got = got


@dataclass(frozen=True, eq=False)
class WeightMultiset:
    """Weight multiset of one exterior-power grade, full-group coordinates.

    Backed by numpy arrays; ``entries`` materializes a plain dict (can be
    large for the 27-dimensional case, prefer ``dominant_entries`` there).
    """

    grade: int
    _rows: np.ndarray = field(repr=False)
    _counts: np.ndarray = field(repr=False)

    @classmethod
    def from_entries(cls, grade: int, entries: dict[Weight, int]) -> "WeightMultiset":
        keys = sorted(entries)
        rows = np.asarray(keys, dtype=np.int16)
        counts = np.asarray([entries[k] for k in keys], dtype=np.int64)
        return cls(grade=grade, _rows=rows, _counts=counts)

    def total(self) -> int:
        return int(self._counts.sum())

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def entries(self) -> dict[Weight, int]:
        return {
            tuple(int(x) for x in row): int(c)
            for row, c in zip(self._rows, self._counts)
        }

    def dominant_entries(self, levi) -> dict[Weight, int]:
        """Entries whose weight is Levi-dominant; with Levi-Weyl symmetry
        they determine the whole multiset."""
        k = levi.node - 1
        mask = np.ones(len(self._counts), dtype=bool)
        for i in range(self._rows.shape[1]):
            if i != k:
                mask &= self._rows[:, i] >= 0
        return {
            tuple(int(x) for x in row): int(c)
            for row, c in zip(self._rows[mask], self._counts[mask])
        }


@dataclass(frozen=True)
class IrreducibleSummand:
    """One irreducible homogeneous factor of an exterior power.

    ``highest_weight`` carries the full-group coordinates including the
    marked-node coefficient (the twist); ``twist_check`` is that coefficient
    recomputed from the slope identity and must agree.
    """

    highest_weight: Weight
    levi_dim: int
    twist_check: int


@dataclass(frozen=True)
class DecompositionReport:
    spec: GrassmannianSpec
    p: int
    summands: tuple[IrreducibleSummand, ...]
    method: str

    def rank_identity(self) -> tuple[int, int]:
        """(expected, got) for sum of Levi dimensions vs binom(dim X, p)."""
        return comb(self.spec.dim, self.p), sum(s.levi_dim for s in self.summands)

    def weights(self) -> tuple[Weight, ...]:
        return tuple(s.highest_weight for s in self.summands)


# -- the slope identity ---------------------------------------------------------


def twist_via_lemma(spec: GrassmannianSpec, levi_weight: Weight, mu_size: int) -> int:
    """Marked-node coefficient of a Schur-functor summand from its Levi part.

    For a summand with Levi highest weight rho inside the mu-th Schur functor
    of the cotangent bundle, the twist is
    ``<|mu| lambda - rho, l_k> / <l_k, l_k>`` with lambda the cotangent
    highest weight; the division must be exact.  Every <x, l_k> is the same
    positive multiple of row k of ``scaled_inverse_cartan`` applied to x.
    """
    k = spec.marked_node - 1
    if levi_weight[k]:
        raise ValueError("levi_weight must have zero marked-node coordinate")
    row = spec.ambient.scaled_inverse_cartan[k]
    num = (mu_size * sum(x * y for x, y in zip(row, spec.cotangent_weight))
           - sum(x * y for x, y in zip(row, levi_weight)))
    a, r = divmod(num, row[k])
    if r:
        raise DecompositionError(
            f"{spec.name}: twist coefficient {num}/{row[k]} is not an integer")
    return a


def _make_summand(spec: GrassmannianSpec, weight: Weight, p: int) -> IrreducibleSummand:
    k = spec.marked_node - 1
    levi_part = tuple(0 if i == k else x for i, x in enumerate(weight))
    a = twist_via_lemma(spec, levi_part, p)
    if a != weight[k]:
        raise DecompositionError(
            f"{spec.name}, p={p}: twist {weight[k]} of {weight} "
            f"disagrees with slope identity value {a}")
    return IrreducibleSummand(
        highest_weight=tuple(weight),
        levi_dim=spec.levi.weyl_dim(weight),
        twist_check=a,
    )


# -- subset-sum dynamic program ---------------------------------------------------


def _radix(lo: np.ndarray, hi: np.ndarray, name: str) -> np.ndarray:
    """Place values of a mixed-radix int64 key, injective on integer rows
    inside the box lo..hi: the key of a row w is ``(w - lo) @ place``.  The
    last coordinate is the most significant, so sorting keys sorts rows the
    way the DP emits them."""
    place = [1]
    for span in (hi - lo + 1).tolist():
        place.append(place[-1] * span)
    if place[-1] >= 2 ** 63:
        raise DecompositionError(
            f"{name}: weight box of {place[-1]} points does not fit a 64-bit key")
    return np.asarray(place[:-1], dtype=np.int64)


def _encode(rows: np.ndarray, lo: np.ndarray, place: np.ndarray) -> np.ndarray:
    """Keys of integer rows inside the box from lo, column by column (a
    single matrix product would hold an int64 copy of every row)."""
    keys = np.zeros(len(rows), dtype=np.int64)
    for j, p in enumerate(place.tolist()):
        keys += (rows[:, j] - lo[j]) * p
    return keys


def _decode(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int16 rows of the keys of the box lo..hi, least significant first."""
    rows = np.empty((len(keys), len(lo)), dtype=np.int16)
    for j, span in enumerate((hi - lo + 1).tolist()):
        keys, digit = np.divmod(keys, span)
        rows[:, j] = digit + lo[j]
    return rows


def _group(keys: np.ndarray, counts: np.ndarray):
    """Sort int64 keys, summing the counts of equal keys."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    idx = np.flatnonzero(head)
    return keys[idx], np.add.reduceat(counts, idx)


def _exterior_tables(vectors: Sequence[Weight], max_grade: int, name: str):
    """Weight multisets of all exterior powers up to max_grade.

    0/1-knapsack over the given weight vectors.  Every partial sum lies in
    the box whose bounds are, per coordinate, the sums of the negative and of
    the positive entries; a state is its ``_radix`` key in that box, so
    adding a vector is adding one precomputed scalar.  Returns per grade a
    pair (rows, counts), rows int16 sorted by key.
    """
    if not vectors:
        return [(np.zeros((1, 0), dtype=np.int16), np.ones(1, dtype=np.int64))]
    arr = np.asarray(vectors, dtype=np.int64)
    lo = np.minimum(arr, 0).sum(axis=0)
    hi = np.maximum(arr, 0).sum(axis=0)
    place = _radix(lo, hi, name)
    deltas = (arr @ place).tolist()

    states: list[tuple[np.ndarray, np.ndarray] | None] = [None] * (max_grade + 1)
    states[0] = (np.asarray([-lo @ place]), np.ones(1, dtype=np.int64))
    for j, d in enumerate(deltas):
        for g in range(min(j, max_grade - 1), -1, -1):
            keys, counts = states[g]
            if states[g + 1] is None:
                states[g + 1] = (keys + d, counts.copy())
            else:
                k2, n2 = states[g + 1]
                states[g + 1] = _group(np.concatenate([k2, keys + d]),
                                       np.concatenate([n2, counts]))
    return [(_decode(keys, lo, hi), counts) for keys, counts in states]


# verify --max-rank 7 builds tables for 38 spaces and the query-mix benchmark
# for 15; the cap keeps every one of them (E7's take 0.1 s to build) while
# bounding what a sweep over many spaces keeps.
DP_CACHE_SIZE = 64


@lru_cache(maxsize=DP_CACHE_SIZE)
def _tables(spec: GrassmannianSpec, horizon: int):
    """DP tables of one space up to grade ``horizon``."""
    weights = [negate(r) for r in nilradical_roots(spec)]
    return _exterior_tables(weights, horizon, spec.name)


def omega_p_weights(spec: GrassmannianSpec, p: int) -> WeightMultiset:
    """Weight multiset of the p-th exterior power of the cotangent bundle:
    all sums of p distinct negated nilradical roots."""
    if not 0 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 0..{spec.dim} for {spec.name}")
    # One table to dim // 2 serves every engine grade; the upper half comes
    # from duality, so only direct calls above it build a second table.
    rows, counts = _tables(spec, max(p, spec.dim // 2))[p]
    ws = WeightMultiset(grade=p, _rows=rows, _counts=counts)
    if ws.total() != comb(spec.dim, p):
        raise DecompositionError(f"{spec.name}: weight DP lost mass at grade {p}")
    return ws


# -- Klimyk's formula ---------------------------------------------------------------


def _check_levi_invariant(spec: GrassmannianSpec, rows: np.ndarray,
                          counts: np.ndarray, keys: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray, place: np.ndarray) -> None:
    """Raise unless every Levi simple reflection maps the rows onto
    themselves with equal counts (rows sorted by strictly increasing key).

    s_i fixes the rows with mu_i = 0 and must map the rows with mu_i = v > 0
    onto those with mu_i = -v.  On each such class s_i is the translation by
    -v alpha_i, which keeps the key order; so with both sides sorted stably
    by |mu_i|, every row must sit opposite its own image.
    """
    alpha = spec.ambient.simple_roots
    for i in spec.levi.nodes:
        broken = f"{spec.name}: weight multiset is not invariant under s_{i + 1}"
        col = rows[:, i]
        up = np.flatnonzero(col > 0)
        down = np.flatnonzero(col < 0)
        if len(up) != len(down):
            raise DecompositionError(broken)
        up = up[np.argsort(col[up], kind="stable")]
        down = down[np.argsort(-col[down], kind="stable")]
        v = col[up].astype(np.int64)
        image = keys[up]
        for j in np.flatnonzero(alpha[i]):
            old = rows[up, j].astype(np.int64)
            new = old - v * alpha[i][j]
            if len(new) and (new.min() < lo[j] or new.max() > hi[j]):
                raise DecompositionError(broken)
            image = image + (new - old) * place[j]
        if (image != keys[down]).any() or (counts[up] != counts[down]).any():
            raise DecompositionError(broken)


def decompose(ws: WeightMultiset, spec: GrassmannianSpec) -> list[IrreducibleSummand]:
    """Decompose a Levi-Weyl-invariant weight multiset into irreducibles.

    Klimyk's formula with nu = 0 (Humphreys, Introduction to Lie Algebras
    and Representation Theory, sec. 24; Fulton-Harris, sec. 25): for a
    W_L-invariant multiset m, ``sum_mu m(mu) e^mu = sum_mu m(mu) eps(w)
    ch V_{w(mu + rho) - rho}`` over all weights mu, where w moves mu + rho
    into the dominant Levi chamber and the terms with mu + rho singular
    vanish.  Any rho with every Levi coordinate 1 gives the same dot
    action; this one has marked coordinate 0.  Each row is reflected in its
    first negative Levi coordinate, its count changing sign, until it is
    dominant; a zero Levi coordinate makes it singular and drops it.

    Raises DecompositionError unless the multiset is W_L-invariant (Klimyk's
    formula needs it), every resulting multiplicity is nonnegative, and the
    Levi dimensions add up to the multiset's size.
    """
    rows, counts = ws._rows, ws._counts
    levi = spec.levi
    alpha = np.asarray(spec.ambient.simple_roots, dtype=np.int16)
    if counts.min() < 0 or int(counts.max()) * len(counts) >= 2 ** 63:
        raise DecompositionError(f"{spec.name}: counts out of range")
    # Every reflected row is w(mu) + rho - (rho - w rho), with w(mu) a row and
    # rho - w rho a sum of distinct positive Levi roots; products y_i alpha_i
    # stay within |alpha| times that bound, so int16 never overflows.
    reach = max(-int(rows.min()), int(rows.max())) + 1 + max(
        sum(abs(b[j]) for b in levi.positive_roots)
        for j in range(spec.ambient.rank))
    if reach * (1 + int(np.abs(alpha).max())) > np.iinfo(np.int16).max:
        raise DecompositionError(f"{spec.name}: weights too large for int16")

    lo, hi = rows.min(axis=0).astype(np.int64), rows.max(axis=0).astype(np.int64)
    place = _radix(lo, hi, spec.name)
    keys = _encode(rows, lo, place)
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, rows, counts = keys[order], rows[order], counts[order]
        if not (keys[1:] > keys[:-1]).all():
            raise DecompositionError(f"{spec.name}: repeated weight rows")
    _check_levi_invariant(spec, rows, counts, keys, lo, hi, place)

    cols = np.asarray(levi.nodes, dtype=np.intp)
    rho = np.ones(spec.ambient.rank, dtype=np.int16)
    rho[levi.node - 1] = 0
    y, c = rows + rho, counts
    done_y, done_c = [], []
    while True:
        levi_part = y[:, cols]
        negative = levi_part < 0
        regular = (levi_part != 0).all(axis=1)
        pending = negative.any(axis=1)
        done = regular & ~pending
        done_y.append(y[done])
        done_c.append(c[done])
        go = regular & pending
        if not go.any():
            break
        y, c, levi_part = y[go], -c[go], levi_part[go]
        first = negative[go].argmax(axis=1)
        y -= levi_part[np.arange(len(c)), first][:, None] * alpha[cols[first]]
    # The dominant rows span a box at most a third of the DP's on every
    # catalog space up to rank 8, so their keys fit wherever the DP's do.
    done = np.concatenate(done_y) - rho
    lo, hi = done.min(axis=0).astype(np.int64), done.max(axis=0).astype(np.int64)
    place = _radix(lo, hi, spec.name)
    keys, mult = _group(_encode(done, lo, place), np.concatenate(done_c))
    lam = _decode(keys, lo, hi)
    if (mult < 0).any():
        raise DecompositionError(
            f"{spec.name}, p={ws.grade}: negative multiplicity "
            f"{int(mult.min())} from Klimyk's formula")

    summands: list[IrreducibleSummand] = []
    size = 0
    for weight, m in zip(lam.tolist(), mult.tolist()):
        if m:
            s = _make_summand(spec, tuple(weight), ws.grade)
            size += m * s.levi_dim
            summands.extend([s] * m)
    if size != ws.total():
        raise DecompositionError(
            f"{spec.name}, p={ws.grade}: summands have total dimension {size}, "
            f"the weight multiset {ws.total()}")
    summands.sort(key=lambda s: s.highest_weight, reverse=True)
    return summands


def _dual_summand(spec: GrassmannianSpec, s: IrreducibleSummand, p_dual: int
                  ) -> IrreducibleSummand:
    # Wedge^{N-p} = (Wedge^p)^dual (x) det, det having weight -c1 l_k.
    k = spec.marked_node - 1
    w = list(spec.levi.dual_highest_weight(s.highest_weight))
    w[k] -= spec.index_c1
    out = _make_summand(spec, tuple(w), p_dual)
    if out.levi_dim != s.levi_dim:
        raise DecompositionError("dual summand changed dimension")
    return out


def _dp_summands(spec: GrassmannianSpec, p: int) -> tuple[IrreducibleSummand, ...]:
    """Engine summands of grade p: decomposed directly up to dim // 2, above
    it dual to the cached engine answer of grade dim - p."""
    if p > spec.dim // 2:
        base = _route_summands(spec, spec.dim - p, "WeightDP")
        return tuple(sorted(
            (_dual_summand(spec, s, p) for s in base),
            key=lambda s: s.highest_weight, reverse=True))
    return tuple(decompose(omega_p_weights(spec, p), spec))


# -- fast paths --------------------------------------------------------------------


def _efun_to_fundamental(beta: Sequence[int]) -> Weight:
    return tuple(beta[i] - beta[i + 1] for i in range(len(beta) - 1))


def cauchy_decompose(k: int, n: int, p: int
                     ) -> list[tuple[Partition, IrreducibleSummand]]:
    """Ordinary-Grassmannian decomposition: one summand per partition of p
    with at most k rows and parts at most n - k, assembled in the standard
    coordinate recipe (-mu_k, ..., -mu_1; mu'_1, ..., mu'_{n-k})."""
    spec = grassmannian(k, n)
    if not 0 <= p <= k * (n - k):
        raise ValueError(f"p={p} out of range 0..{k * (n - k)}")
    from .partitions import partitions_in_box

    out = []
    for mu in partitions_in_box(p, k, n - k):
        mud = dual(mu)
        rows = list(mu) + [0] * (k - len(mu))
        cols = list(mud) + [0] * (n - k - len(mud))
        beta = [-rows[k - 1 - i] for i in range(k)] + cols
        weight = _efun_to_fundamental(beta)
        out.append((mu, _make_summand(spec, weight, p)))
    out.sort(key=lambda t: t[1].highest_weight, reverse=True)
    return out


def hooks_decompose(spec: GrassmannianSpec, p: int
                    ) -> list[tuple[Partition, IrreducibleSummand]]:
    """Symplectic/orthogonal decomposition indexed by the hook classes.

    The summand of mu has Levi part sum_i (mu_i - mu_{i+1}) l_{n-i} and
    marked-node coefficient -mu_1 (symplectic) or -mu_1 - mu_2 (orthogonal).
    """
    if spec.family not in ("lagrangian", "spinor"):
        raise ValueError(f"{spec.name}: hook decomposition needs IG:n or OG:n")
    n = spec.params[0]
    if not 0 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 0..{spec.dim} for {spec.name}")
    if p == 0:
        mus: list[Partition] = [()]
    elif spec.family == "lagrangian":
        mus = hooks_q1(p, n)
    else:
        mus = hooks_qm1(p, n)
    out = []
    for mu in mus:
        padded = list(mu) + [0] * (n + 1 - len(mu))
        coeffs = [0] * n
        for i in range(1, n):
            coeffs[n - i - 1] += padded[i - 1] - padded[i]
        if spec.family == "lagrangian":
            coeffs[n - 1] = -padded[0]
        else:
            coeffs[n - 1] = -(padded[0] + padded[1])
        out.append((mu, _make_summand(spec, tuple(coeffs), p)))
    out.sort(key=lambda t: t[1].highest_weight, reverse=True)
    return out


# -- the public decomposition entry point -------------------------------------------

# verify --max-rank 7 fills 671 answers and the query-mix benchmark 542; the
# cap leaves room for both while bounding what a long-running process keeps.
ANSWER_CACHE_SIZE = 4096


@lru_cache(maxsize=ANSWER_CACHE_SIZE)
def _route_summands(spec: GrassmannianSpec, p: int, route: str
                    ) -> tuple[IrreducibleSummand, ...]:
    """Summands of grade p by one route, computed once per (spec, p, route).

    The route is part of the key, so the engine's answer is never served
    for a fast path or the reverse.  Threads missing the same key may both
    compute it; the answers are equal.
    """
    if route == "CauchyA":
        return tuple(s for _, s in cauchy_decompose(*spec.params, p))
    if route in ("HooksC", "HooksD"):
        return tuple(s for _, s in hooks_decompose(spec, p))
    return _dp_summands(spec, p)


def omega_decompose(spec: GrassmannianSpec, p: int, method: str = "auto"
                    ) -> DecompositionReport:
    """Decomposition report for the p-th exterior power of the cotangent
    bundle.  ``method="auto"`` picks the per-family fast path and falls back
    to the weight engine for quadrics and exceptional spaces; ``method
    ="WeightDP"`` forces the engine (used for cross-path testing)."""
    if not 0 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 0..{spec.dim} for {spec.name}")
    if method not in ("auto", "WeightDP"):
        raise ValueError(f"unknown method {method!r}; expected auto or WeightDP")
    chosen = "WeightDP" if method == "WeightDP" else {
        "grassmannian": "CauchyA",
        "lagrangian": "HooksC",
        "spinor": "HooksD",
    }.get(spec.family, "WeightDP")

    summands = _route_summands(spec, p, chosen)
    report = DecompositionReport(spec=spec, p=p, summands=summands, method=chosen)
    expected, got = report.rank_identity()
    if expected != got:
        raise RankIdentityError(
            f"{spec.name}, p={p}, {chosen}: rank identity failed "
            f"({got} != {expected})", expected, got)
    return report
