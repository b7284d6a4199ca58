"""Decomposition of the exterior powers of the cotangent bundle into
irreducible homogeneous summands.

Four routes produce the same answer and are tested against each other:

* ``cauchy_decompose``: the ordinary-Grassmannian fast path, one summand per
  partition of p inside the k x (n-k) box;
* ``hooks_decompose``: the symplectic/orthogonal fast paths, indexed by the
  arm = leg +- 1 hook classes;
* ``_kostant_levels``: Kostant's theorem, one summand of highest weight
  w rho - rho per minimal coset representative w of length p, for every
  family; the route ``auto`` takes for the quadrics and the exceptional
  spaces;
* ``_engine_levels``, the general weight engine: a subset-sum dynamic
  program over the nilradical roots produces the weight multisets of the
  exterior powers, and Klimyk's formula reads the irreducible summands off
  them in vectorized passes of Levi reflections.  It runs only when forced
  (``method="WeightDP"``), as the independent check of the other three.

The engine makes one pass per space.  Its DP runs once to floor(dim/2) on
int64 mixed-radix keys in one box of weights (``_radix``; a space whose box
does not fit 64 bits is refused before any allocation) and hands the keys of
each run of consecutive grades, the grade as one more key coordinate,
straight to the Klimyk pass.  The upper half comes from the duality
``Wedge^{N-p} E = (Wedge^p E)^dual (x) det E``.

Kostant's route and the engine keep every grade of a space in one bounded
cache each.  Answers are cached per (space, p, route) in one bounded cache,
so a forced engine answer is never served from another route's entry or the
reverse; the rank identity is checked on every call, cached or not.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, prod

import numpy as np

from .catalog import GrassmannianSpec, grassmannian, nilradical_roots
from .partitions import Partition, dual, hooks_q1, hooks_qm1
from .rootsys import Weight


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

    Backed by numpy arrays; ``entries`` materializes a plain dict.
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
    """int16 rows of the keys of the box lo..hi, stored column by column."""
    rows = np.empty((len(keys), len(lo)), dtype=np.int16, order="F")
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


def _exterior_tables(spec: GrassmannianSpec, max_grade: int):
    """Weight multisets of the exterior powers of the cotangent space up to
    max_grade, by a 0/1-knapsack over the negated nilradical roots.

    Every partial sum lies in the box whose bounds are, per coordinate, the
    sums of the negative and of the positive entries; a state is its
    ``_radix`` key in that box, so adding a root is adding one scalar.
    Returns lo, hi and per grade a pair (keys, counts), keys sorted.
    """
    arr = -np.asarray(nilradical_roots(spec), dtype=np.int64)
    lo = np.minimum(arr, 0).sum(axis=0)
    hi = np.maximum(arr, 0).sum(axis=0)
    place = _radix(lo, hi, spec.name)
    deltas = (arr @ place).tolist()

    states = [(np.zeros(0, dtype=np.int64),) * 2] * (max_grade + 1)
    states[0] = (np.asarray([-lo @ place]), np.ones(1, dtype=np.int64))
    for j, d in enumerate(deltas):
        for g in range(min(j, max_grade - 1), -1, -1):
            (keys, counts), (k2, n2) = states[g], states[g + 1]
            states[g + 1] = _group(np.concatenate([k2, keys + d]),
                                   np.concatenate([n2, counts]))
    for g, (_, counts) in enumerate(states):
        if int(counts.sum()) != comb(spec.dim, g):
            raise DecompositionError(f"{spec.name}: weight DP lost mass at grade {g}")
    return lo, hi, states


def omega_p_weights(spec: GrassmannianSpec, p: int) -> WeightMultiset:
    """Weight multiset of the p-th exterior power of the cotangent bundle:
    all sums of p distinct negated nilradical roots."""
    if not 0 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 0..{spec.dim} for {spec.name}")
    lo, hi, states = _exterior_tables(spec, p)
    return WeightMultiset(p, _decode(states[p][0], lo, hi), states[p][1])


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


def _klimyk(spec: GrassmannianSpec, keys: np.ndarray, counts: np.ndarray,
            lo: np.ndarray, hi: np.ndarray) -> list[list[IrreducibleSummand]]:
    """Summands, sorted descending, of each grade lo[-1]..hi[-1] of a run.

    ``keys`` are strictly increasing ``_radix`` keys in the box lo..hi, whose
    last coordinate is the grade, which the simple roots leave at 0: one
    invariance check, reflection loop and grouping serve the whole run.
    """
    levi, rank = spec.levi, spec.ambient.rank
    if counts.min() < 0 or int(counts.max()) * len(counts) >= 2 ** 63:
        raise DecompositionError(f"{spec.name}: counts out of range")
    # Every reflected row is w(mu) + rho - (rho - w rho), with w(mu) a row and
    # rho - w rho a sum of distinct positive Levi roots; products y_i alpha_i
    # stay within |alpha| times that bound, so int16 never overflows.
    alpha = np.pad(np.asarray(spec.ambient.simple_roots, dtype=np.int16), ((0, 0), (0, 1)))
    reach = max(-int(lo[:rank].min()), int(hi[:rank].max())) + 1 + max(
        sum(abs(b[j]) for b in levi.positive_roots) for j in range(rank))
    if reach * (1 + int(np.abs(alpha).max())) > np.iinfo(np.int16).max:
        raise DecompositionError(f"{spec.name}: weights too large for int16")
    place = _radix(lo, hi, spec.name)
    rows = _decode(keys, lo, hi)
    _check_levi_invariant(spec, rows, counts, keys, lo, hi, place)
    grades = range(int(lo[-1]), int(hi[-1]) + 1)
    totals = [int(c.sum()) for c in np.split(
        counts, np.searchsorted(keys, place[-1] * np.arange(1, len(grades))))]

    cols = np.asarray(levi.nodes, dtype=np.intp)
    rho = np.ones(rank + 1, dtype=np.int16)
    rho[[levi.node - 1, rank]] = 0
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
        bad = int(mult.argmin())
        raise DecompositionError(
            f"{spec.name}, p={lam[bad, rank]}: negative multiplicity "
            f"{int(mult[bad])} from Klimyk's formula")

    levels: list[list[IrreducibleSummand]] = [[] for _ in grades]
    for (*weight, p), m in zip(lam.tolist(), mult.tolist()):
        if m:
            levels[p - grades[0]] += [_make_summand(spec, tuple(weight), p)] * m
    for p, summands, total in zip(grades, levels, totals):
        size = sum(s.levi_dim for s in summands)
        if size != total:
            raise DecompositionError(
                f"{spec.name}, p={p}: summands have total dimension {size}, "
                f"the weight multiset {total}")
        summands.sort(key=lambda s: s.highest_weight, reverse=True)
    return levels


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
    rows = ws._rows
    lo = np.append(rows.min(axis=0), ws.grade).astype(np.int64)
    hi = np.append(rows.max(axis=0), ws.grade).astype(np.int64)
    keys = _encode(rows, lo, _radix(lo, hi, spec.name)[:-1])
    return _klimyk(spec, *_group(keys, ws._counts), lo, hi)[0]


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


# verify --max-rank 7 runs the engine on 39 spaces, the query-mix benchmark on
# none; the cap keeps all of verify's and bounds what a long sweep keeps.
ENGINE_CACHE_SIZE = 64


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _engine_levels(spec: GrassmannianSpec) -> tuple[tuple[IrreducibleSummand, ...], ...]:
    """Engine summands of every grade 0..dim of the exterior algebra.

    One DP reaches grade dim // 2; runs of consecutive grades holding no more
    rows than its largest grade go through ``_klimyk`` in the DP's box, the
    grade one more coordinate.  Grades above dim // 2 are dual to those below.
    """
    half = spec.dim // 2
    lo, hi, states = _exterior_tables(spec, half)
    box = prod((hi - lo + 1).tolist())
    sizes = [len(keys) for keys, _ in states]
    levels: list = []
    while len(levels) <= half:
        first = last = len(levels)
        while (last < half and sum(sizes[first:last + 2]) <= max(sizes)
               and (last - first + 2) * box < 2 ** 63):
            last += 1
        keys = np.concatenate([states[g][0] + (g - first) * box
                               for g in range(first, last + 1)])
        counts = np.concatenate([c for _, c in states[first:last + 1]])
        states[first:last + 1] = [None] * (last - first + 1)
        levels += _klimyk(spec, keys, counts, np.append(lo, first), np.append(hi, last))
    for p in range(half + 1, spec.dim + 1):
        levels.append(sorted((_dual_summand(spec, s, p) for s in levels[spec.dim - p]),
                             key=lambda s: s.highest_weight, reverse=True))
    return tuple(map(tuple, levels))


def _dp_summands(spec: GrassmannianSpec, p: int) -> tuple[IrreducibleSummand, ...]:
    """Engine summands of grade p, read off the cached levels of the space."""
    return _engine_levels(spec)[p]


# -- Kostant's theorem -------------------------------------------------------------

# verify --max-rank 7 asks for 13 spaces and the query-mix benchmark for 15;
# the cap keeps all of them while bounding what a sweep over many spaces keeps.
KOSTANT_CACHE_SIZE = 64


@lru_cache(maxsize=KOSTANT_CACHE_SIZE)
def _kostant_levels(spec: GrassmannianSpec) -> tuple[tuple[IrreducibleSummand, ...], ...]:
    """Summands of every grade 0..dim of the exterior algebra, by Kostant's
    theorem.

    The cotangent space is an abelian nilradical, so its p-th exterior power
    is its Lie algebra cohomology H^p, which is multiplicity-free with one
    summand of highest weight w rho - rho for each w of length p minimal in
    its coset W_L w (Kostant, Lie algebra cohomology and the generalized
    Borel-Weil theorem, Ann. of Math. 74, 1961).  Those w are
    exactly the ones with w rho strictly Levi-dominant, and dropping the
    last letter of a reduced word keeps w minimal, so the representatives
    grow level by level by right multiplication.  Each w is carried as w rho
    in fundamental coordinates and the images w alpha_j in simple-root
    coordinates: w s_i is longer exactly when w alpha_i > 0, then
    w s_i rho = w rho - w alpha_i, and w s_i is kept when that point is
    still strictly Levi-dominant, once per point; its images are
    (w s_i) alpha_j = w alpha_j - <alpha_j, alpha_i^vee> w alpha_i.
    """
    cartan = np.asarray(spec.ambient.cartan, dtype=np.int64)
    levi = np.asarray(spec.levi.nodes, dtype=np.intp)
    points = np.ones((1, spec.ambient.rank), dtype=np.int64)
    images = np.eye(spec.ambient.rank, dtype=np.int64)[None]
    levels = []
    for p in range(spec.dim + 1):
        levels.append(tuple(sorted(
            (_make_summand(spec, tuple(w), p) for w in (points - 1).tolist()),
            key=lambda s: s.highest_weight, reverse=True)))
        e, i = np.nonzero(images.min(axis=2) >= 0)
        roots = images[e, i]
        new = points[e] - roots @ cartan.T
        keep = (new[:, levi] > 0).all(axis=1)
        points, first = np.unique(new[keep], axis=0, return_index=True)
        e, i, roots = e[keep][first], i[keep][first], roots[keep][first]
        images = images[e] - cartan[i][:, :, None] * roots[:, None, :]
    if len(points):
        raise DecompositionError(
            f"{spec.name}: a minimal coset representative is longer than {spec.dim}")
    return tuple(levels)


def _kostant_summands(spec: GrassmannianSpec, p: int) -> tuple[IrreducibleSummand, ...]:
    """Kostant summands of grade p, read off the cached levels of the space."""
    return _kostant_levels(spec)[p]


# -- fast paths --------------------------------------------------------------------


def _efun_to_fundamental(beta: list[int]) -> Weight:
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

# verify --max-rank 7 fills 829 answers and the query-mix benchmark 542; the
# cap leaves room for both while bounding what a long-running process keeps.
ANSWER_CACHE_SIZE = 4096


@lru_cache(maxsize=ANSWER_CACHE_SIZE)
def _route_summands(spec: GrassmannianSpec, p: int, route: str
                    ) -> tuple[IrreducibleSummand, ...]:
    """Summands of grade p by one route, computed once per (spec, p, route).

    The route is part of the key, so the engine's answer is never served
    for another route or the reverse.  Threads missing the same key may
    both compute it; the answers are equal.
    """
    if route == "CauchyA":
        return tuple(s for _, s in cauchy_decompose(*spec.params, p))
    if route in ("HooksC", "HooksD"):
        return tuple(s for _, s in hooks_decompose(spec, p))
    if route == "Kostant":
        return _kostant_summands(spec, p)
    return _dp_summands(spec, p)


def omega_decompose(spec: GrassmannianSpec, p: int, method: str = "auto"
                    ) -> DecompositionReport:
    """Decomposition report for the p-th exterior power of the cotangent
    bundle.  ``method="auto"`` picks the per-family route: the Cauchy
    formula or the hook classes where a partition fast path exists,
    Kostant's theorem for the quadrics and the exceptional spaces;
    ``method="WeightDP"`` forces the weight engine (used for cross-path
    testing)."""
    if not 0 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 0..{spec.dim} for {spec.name}")
    if method not in ("auto", "WeightDP"):
        raise ValueError(f"unknown method {method!r}; expected auto or WeightDP")
    chosen = "WeightDP" if method == "WeightDP" else {
        "grassmannian": "CauchyA",
        "lagrangian": "HooksC",
        "spinor": "HooksD",
        "quadric_odd": "Kostant",
        "quadric_even": "Kostant",
        "cayley": "Kostant",
        "freudenthal": "Kostant",
    }[spec.family]

    summands = _route_summands(spec, p, chosen)
    report = DecompositionReport(spec=spec, p=p, summands=summands, method=chosen)
    expected, got = report.rank_identity()
    if expected != got:
        raise RankIdentityError(
            f"{spec.name}, p={p}, {chosen}: rank identity failed "
            f"({got} != {expected})", expected, got)
    return report
