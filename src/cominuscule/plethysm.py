"""Decomposition of the exterior powers of the cotangent bundle into
irreducible homogeneous summands.

Three routes produce the same answer and are tested against each other:

* ``cauchy_decompose``: the ordinary-Grassmannian fast path, one summand per
  partition of p inside the k x (n-k) box;
* ``hooks_decompose``: the symplectic/orthogonal fast paths, indexed by the
  arm = leg +- 1 hook classes;
* the general weight engine: a subset-sum dynamic program over the nilradical
  roots produces the weight multiset of the p-th exterior power, and greedy
  highest-weight subtraction of Levi characters (Freudenthal) extracts the
  irreducible summands.  This is the only route for the exceptional spaces
  and the quadrics.

The dynamic program is the one performance-sensitive spot: states are kept
as numpy integer arrays (packed into int64 words for ranks up to 7).  On
every space the engine computes grades up to ceil(dim/2) directly and
derives the upper half of the exterior algebra through the duality
``Wedge^{N-p} E = (Wedge^p E)^dual (x) det E``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .catalog import GrassmannianSpec, grassmannian, nilradical_roots
from .partitions import Partition, dual, hooks_q1, hooks_qm1
from .rootsys import Weight, negate

# int64 packing uses one byte per coordinate; coordinate magnitudes are sums
# of at most dim X root coordinates, far below the 127 guard.
_PACK_BOUND = 120


class DecompositionError(RuntimeError):
    """Internal consistency failure while subtracting Levi characters."""


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

    def multiplicity(self, w: Weight) -> int:
        mask = np.all(self._rows == np.asarray(w, dtype=self._rows.dtype), axis=1)
        idx = np.flatnonzero(mask)
        return int(self._counts[idx[0]]) if len(idx) else 0

    def dominant_entries(self, levi) -> dict[Weight, int]:
        """Entries whose weight is Levi-dominant (the greedy engine's input)."""
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
    highest weight; the division must be exact.
    """
    rs = spec.ambient
    k = spec.marked_node - 1
    if levi_weight[k]:
        raise ValueError("levi_weight must have zero marked-node coordinate")
    lam_k = tuple(1 if i == k else 0 for i in range(rs.rank))
    num = Fraction(mu_size) * rs.pairing(spec.cotangent_weight, lam_k) \
        - rs.pairing(levi_weight, lam_k)
    a = num / rs.pairing(lam_k, lam_k)
    if a.denominator != 1:
        raise DecompositionError(
            f"{spec.name}: twist coefficient {a} is not an integer")
    return int(a)


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


def _group_words(words: np.ndarray, counts: np.ndarray):
    """Deduplicate packed-word rows, summing counts of equal rows."""
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0], kind="stable")
    else:
        order = np.lexsort(words.T)
    words = words[order]
    counts = counts[order]
    head = np.empty(len(counts), dtype=bool)
    head[0] = True
    np.any(words[1:] != words[:-1], axis=1, out=head[1:])
    idx = np.flatnonzero(head)
    return words[idx], np.add.reduceat(counts, idx)


def _exterior_tables(vectors: Sequence[Weight], max_grade: int):
    """Weight multisets of all exterior powers up to max_grade.

    0/1-knapsack over the given weight vectors.  States pack 7 coordinates
    per int64 word (offset 128, one byte each); since every partial-sum
    coordinate stays far inside a byte, word addition never carries across
    coordinate boundaries, so shifting a whole state by one root is a single
    vectorized add.  Returns per grade a pair (rows, counts) with rows an
    int64 array of weight coordinates.
    """
    if not vectors:
        return [(np.zeros((1, 0), dtype=np.int16), np.ones(1, dtype=np.int64))]
    rank = len(vectors[0])
    arr = np.asarray(vectors, dtype=np.int64)
    if np.abs(arr).sum(axis=0).max() >= _PACK_BOUND:
        raise AssertionError("weight coordinates too large for byte packing")
    nwords = -(-rank // 7)

    def pack(rows: np.ndarray) -> np.ndarray:
        words = np.zeros((len(rows), nwords), dtype=np.int64)
        for j in range(rank):
            words[:, j // 7] += rows[:, j] << (8 * (j % 7))
        return words

    deltas = pack(arr)
    zero = np.zeros((1, nwords), dtype=np.int64)
    for j in range(rank):
        zero[0, j // 7] += 128 << (8 * (j % 7))

    states: list[tuple[np.ndarray, np.ndarray] | None] = [None] * (max_grade + 1)
    states[0] = (zero, np.ones(1, dtype=np.int64))
    for j in range(len(arr)):
        d = deltas[j]
        top = min(j, max_grade - 1)
        for g in range(top, -1, -1):
            if states[g] is None:
                continue
            words, counts = states[g]
            if states[g + 1] is None:
                states[g + 1] = (words + d, counts.copy())
            else:
                w2, n2 = states[g + 1]
                states[g + 1] = _group_words(
                    np.concatenate([w2, words + d]),
                    np.concatenate([n2, counts]),
                )
    out = []
    for g in range(max_grade + 1):
        words, counts = states[g]
        rows = np.empty((len(counts), rank), dtype=np.int16)
        for j in range(rank):
            rows[:, j] = ((words[:, j // 7] >> (8 * (j % 7))) & 255) - 128
        out.append((rows, counts))
    return out


_DP_CACHE: dict[str, tuple[int, list]] = {}
_DECOMP_CACHE: dict[tuple[str, int], tuple[IrreducibleSummand, ...]] = {}


def _tables_for(spec: GrassmannianSpec, max_grade: int):
    cached = _DP_CACHE.get(spec.name)
    if cached is not None and cached[0] >= max_grade:
        return cached[1]
    # One pass serves all later grades; the upper half comes from duality.
    horizon = max(max_grade, (spec.dim + 1) // 2)
    weights = [negate(r) for r in nilradical_roots(spec)]
    tables = _exterior_tables(weights, horizon)
    _DP_CACHE[spec.name] = (horizon, tables)
    return tables


def omega_p_weights(spec: GrassmannianSpec, p: int) -> WeightMultiset:
    """Weight multiset of the p-th exterior power of the cotangent bundle:
    all sums of p distinct negated nilradical roots."""
    if not 0 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 0..{spec.dim} for {spec.name}")
    rows, counts = _tables_for(spec, p)[p]
    ws = WeightMultiset(grade=p, _rows=rows, _counts=counts)
    if ws.total() != comb(spec.dim, p):
        raise AssertionError(f"{spec.name}: weight DP lost mass at grade {p}")
    return ws


# -- greedy highest-weight subtraction ---------------------------------------------


def decompose(ws: WeightMultiset, spec: GrassmannianSpec) -> list[IrreducibleSummand]:
    """Decompose a Levi-Weyl-invariant weight multiset into irreducibles.

    Repeatedly selects a dominance-maximal Levi-dominant weight of positive
    multiplicity (ties broken lexicographically), emits it, and subtracts the
    full Levi character of that irreducible.  The multiset must come out
    empty; any negative intermediate multiplicity signals an inconsistent
    input and raises DecompositionError.
    """
    levi = spec.levi
    rs = spec.ambient
    remaining = dict(ws.dominant_entries(levi))
    summands: list[IrreducibleSummand] = []
    while remaining:
        rho = max(remaining, key=lambda w: (rs.height_key(w), w))
        mult = remaining[rho]
        if mult <= 0:
            raise DecompositionError(f"nonpositive multiplicity at {rho}")
        character = levi.dominant_weight_multiplicities(rho)
        for w, m in character.items():
            c = remaining.get(w, 0) - mult * m
            if c < 0:
                raise DecompositionError(
                    f"{spec.name}: multiplicity went negative at {w} "
                    f"while removing {mult} x V_{rho}")
            if c:
                remaining[w] = c
            else:
                remaining.pop(w, None)
        summands.extend([_make_summand(spec, rho, ws.grade)] * mult)
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
    key = (spec.name, p)
    hit = _DECOMP_CACHE.get(key)
    if hit is not None:
        return hit
    if p > (spec.dim + 1) // 2:
        base = _dp_summands(spec, spec.dim - p)
        summands = tuple(sorted(
            (_dual_summand(spec, s, p) for s in base),
            key=lambda s: s.highest_weight, reverse=True))
    else:
        summands = tuple(decompose(omega_p_weights(spec, p), spec))
    _DECOMP_CACHE[key] = summands
    return summands


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

    if chosen == "CauchyA":
        summands = tuple(s for _, s in cauchy_decompose(*spec.params, p))
    elif chosen in ("HooksC", "HooksD"):
        summands = tuple(s for _, s in hooks_decompose(spec, p))
    else:
        summands = _dp_summands(spec, p)

    report = DecompositionReport(spec=spec, p=p, summands=summands, method=chosen)
    expected, got = report.rank_identity()
    if expected != got:
        raise DecompositionError(
            f"{spec.name}, p={p}, {chosen}: rank identity failed "
            f"({got} != {expected})")
    return report
