"""Decomposition of the exterior powers of the cotangent bundle into
irreducible homogeneous summands.

Four routes produce the same answer and are tested against each other:

* ``cauchy_decompose``: the ordinary-Grassmannian fast path, one summand per
  partition of p inside the k x (n-k) box;
* ``hooks_decompose``: the symplectic/orthogonal fast paths, indexed by the
  arm = leg +- 1 hook classes;
* ``_kostant_summands``: Kostant's theorem, one summand of highest weight
  w rho - rho per minimal coset representative w of length p, for every
  family; the route ``auto`` takes for the quadrics and the exceptional
  spaces;
* ``_engine_levels``, the general weight engine: Newton's identities build
  each exterior power from the lower ones and the Adams powers of the
  cotangent space, and the Brauer-Klimyk rule reads off each product with
  one dot action per pair of a summand and a cotangent weight.  The actions
  run on rho-shifted points (``RootSystem.shifted_dominant``): rho goes on
  once per summand and comes off once per highest weight found.  It reads
  neither the partitions nor Kostant's walk, and runs only when forced
  (``method="WeightDP"``), as the independent check of the other three.

The engine makes one pass per space to floor(dim/2), in Python integers.
``ENGINE_STEP_LIMIT`` bounds a pass in units of one per dot action and one
per reflection step; a pass past it, or one whose least number of dot
actions already passes it, is refused with one DecompositionError.  The
upper half comes from the duality
``Wedge^{N-p} E = (Wedge^p E)^dual (x) det E``.  ``omega_p_weights`` and
``decompose`` are the per-grade reference for it: every weight of one grade
by subset sums, then Klimyk's formula over the same dot action.

Kostant's route caches the coset points of every grade of a space and
computes the summands, with their Levi dimensions, only for the grade asked;
the engine caches the summands of every grade, and a forced answer is read
from that cache alone.  The answers of the other routes are cached per
(space, p, route) in one more cache, so no route's answer is served for
another.  All three caches are bounded, and the rank identity is checked
on every call, cached or not.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, mul, sub
from typing import NamedTuple

from .catalog import GrassmannianSpec, grassmannian
from .partitions import Partition, dual, hooks_q1, hooks_qm1, partitions_in_box
from .rootsys import DecompositionError, Weight


class RankIdentityError(DecompositionError):
    """The Levi dimensions of the summands do not add up to binom(dim X, p)."""

    def __init__(self, message: str, expected: int, got: int):
        super().__init__(message)
        self.expected = expected
        self.got = got


class WeightMultiset(NamedTuple):
    """Weight multiset of one exterior-power grade, full-group coordinates:
    a dict from weight to count, held as exact Python integers.
    ``entries`` returns a copy of ``counts``, which is not to be changed.
    ``len`` counts distinct weights, so ``_make`` and ``_replace`` do not
    apply."""

    grade: int
    counts: dict[Weight, int]

    @classmethod
    def from_entries(cls, grade: int, entries: dict[Weight, int]) -> "WeightMultiset":
        return cls(grade, dict(entries))

    def total(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def entries(self) -> dict[Weight, int]:
        return dict(self.counts)


class IrreducibleSummand(NamedTuple):
    """One irreducible homogeneous factor of an exterior power.

    ``highest_weight`` carries the full-group coordinates including the
    marked-node coefficient (the twist); ``twist_check`` is that coefficient,
    which the slope identity has confirmed.
    """

    highest_weight: Weight
    levi_dim: int
    twist_check: int


class DecompositionReport(NamedTuple):
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
    # ``twist_via_lemma`` of the Levi part equals weight[k] exactly when
    # row . weight = p (row . lambda), row being row k of the scaled inverse
    # Cartan matrix: one integer dot product each side.  On a mismatch the
    # lemma itself names the failure.
    k = spec.marked_node - 1
    row = spec.ambient.scaled_inverse_cartan[k]
    if sum(map(mul, row, weight)) != p * sum(map(mul, row, spec.cotangent_weight)):
        levi_part = tuple(0 if i == k else x for i, x in enumerate(weight))
        a = twist_via_lemma(spec, levi_part, p)
        raise DecompositionError(
            f"{spec.name}, p={p}: twist {weight[k]} of {weight} "
            f"disagrees with slope identity value {a}")
    return IrreducibleSummand(
        highest_weight=tuple(weight),
        levi_dim=spec.levi.weyl_dim(weight),
        twist_check=weight[k],
    )


def _summands(spec: GrassmannianSpec, p: int, mult: dict[Weight, int],
              size: int, source: str) -> tuple[IrreducibleSummand, ...]:
    """The summands of grade p, sorted descending, with the multiplicities
    ``mult`` of their highest weights.  Raises DecompositionError unless
    every multiplicity is nonnegative and the Levi dimensions add up to
    ``size``, which ``source`` names."""
    out: list[IrreducibleSummand] = []
    for w in sorted(mult, reverse=True):
        m = mult[w]
        if m < 0:
            raise DecompositionError(
                f"{spec.name}, p={p}: negative multiplicity {m} at {w}")
        if m:
            out += [_make_summand(spec, w, p)] * m
    total = sum(s.levi_dim for s in out)
    if total != size:
        raise DecompositionError(
            f"{spec.name}, p={p}: summands have total dimension {total}, "
            f"{source} {size}")
    return tuple(out)


# -- the per-grade reference: subset sums and Klimyk's formula ----------------------


def _weight_tables(spec: GrassmannianSpec, top: int) -> list[dict[Weight, int]]:
    """Weight multisets of the exterior powers of the cotangent space in
    grades 0..top.  A 0/1 knapsack over the negated radical roots gives
    every sum of p distinct roots with its count, up to p = dim // 2; a grade
    p above is the complement of grade dim - p, w -> (sum of all) - w."""
    half = min(top, spec.dim // 2)
    roots = spec.levi.radical_roots
    tables: list[dict[Weight, int]] = [{} for _ in range(half + 1)]
    tables[0][(0,) * spec.ambient.rank] = 1
    for j, root in enumerate(roots):
        for g in range(min(j, half - 1), -1, -1):
            higher = tables[g + 1]
            for w, c in tables[g].items():
                key = tuple(map(sub, w, root))
                higher[key] = higher.get(key, 0) + c
    whole = tuple(-x for x in map(sum, zip(*roots)))
    tables += [{tuple(map(sub, whole, w)): c for w, c in tables[spec.dim - p].items()}
               for p in range(half + 1, top + 1)]
    return tables


def omega_p_weights(spec: GrassmannianSpec, p: int) -> WeightMultiset:
    """Weight multiset of the p-th exterior power of the cotangent bundle:
    all sums of p distinct negated radical roots."""
    if not 0 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 0..{spec.dim} for {spec.name}")
    return WeightMultiset(p, _weight_tables(spec, p)[p])


def decompose(ws: WeightMultiset, spec: GrassmannianSpec) -> list[IrreducibleSummand]:
    """Decompose a Levi-Weyl-invariant weight multiset into irreducibles.

    Klimyk's formula with nu = 0 (Humphreys, Introduction to Lie Algebras
    and Representation Theory, sec. 24; Fulton-Harris, sec. 25): for a
    W_L-invariant multiset m, ``sum_mu m(mu) e^mu = sum_mu m(mu) eps(w)
    ch V_{w(mu + rho) - rho}`` over all weights mu, where w moves mu + rho
    into the dominant Levi chamber and the terms with mu + rho singular
    vanish: one ``dot_dominant`` per weight.

    Raises DecompositionError unless the multiset is W_L-invariant (Klimyk's
    formula needs it), every resulting multiplicity is nonnegative, and the
    Levi dimensions add up to the multiset's size.
    """
    rs, nodes, entries = spec.ambient, spec.levi.nodes, ws.counts
    for i in nodes:
        # s_i fixes the weights with w_i = 0 and must map those with w_i > 0
        # onto those with w_i < 0, count for count; an involution that maps
        # one set into the other, as large, is onto it
        up = [w for w in entries if w[i] > 0]
        if (len(up) != sum(w[i] < 0 for w in entries)
                or any(entries.get(rs.reflect(w, i)) != entries[w] for w in up)):
            raise DecompositionError(
                f"{spec.name}: weight multiset is not invariant under s_{i + 1}")
    mult: dict[Weight, int] = {}
    for w, c in entries.items():
        top, steps = rs.dot_dominant(w, nodes)
        if top is not None:
            mult[top] = mult.get(top, 0) + (-c if steps % 2 else c)
    return list(_summands(spec, ws.grade, mult, ws.total(), "the weight multiset"))


def _dual_summand(spec: GrassmannianSpec, s: IrreducibleSummand, p_dual: int
                  ) -> IrreducibleSummand:
    # Wedge^{N-p} = (Wedge^p)^dual (x) det, det having weight -c1 l_k.
    k = spec.marked_node - 1
    w = list(spec.levi.dual_highest_weight(s.highest_weight))
    w[k] -= spec.index_c1
    out = _make_summand(spec, tuple(w), p_dual)
    if out.levi_dim != s.levi_dim:
        raise DecompositionError(
            f"{spec.name}, p={p_dual}: dual summand {out.highest_weight} of "
            f"{s.highest_weight} changed dimension from {s.levi_dim} to "
            f"{out.levi_dim}")
    return out


# -- the weight engine: Newton's identities and Brauer-Klimyk -----------------------

# Work units one engine pass may take: one per dot action
# (``RootSystem.shifted_dominant``) and one per reflection step it makes, so
# that a pass at a high rank, where an action costs a sweep over the nodes
# even without a step, is bounded too.  A unit is 0.3-0.7 us with its share
# of the pass on one AMD EPYC core.  To floor(dim/2), E6 takes 1,926 units,
# E7 13,569 and IG:10 890,447 (0.3 s); G:3:21 would take 1,423,035, and
# G:2:60 and Q:120 tens of millions.  Those three are refused within about
# a second.  Every grade has at least one summand, so a pass to
# h = floor(dim/2) makes at least dim h (h + 1) / 2 dot actions; a pass whose
# bound passes the limit, as every one at rank 150 does, is refused before
# it starts.
ENGINE_STEP_LIMIT = 2 ** 20
_UNITS = "units (one per dot action and per reflection step)"


def _newton_grade(spec: GrassmannianSpec, levels: list, p: int, steps: int
                  ) -> tuple[tuple[IrreducibleSummand, ...], int]:
    """The engine summands of grade p >= 1, from ``levels``, those of the
    grades below, and the work units spent so far (one per dot action and
    per reflection step), which it returns increased by its own.

    Newton's identity p Wedge^p V = sum_{i=1..p} (-1)^(i-1) psi^i(V)
    Wedge^(p-i) V (Macdonald, Symmetric Functions and Hall Polynomials,
    I.2), where the Adams operation psi^i(V) has the weights i mu of V.
    Each product ch V_lambda psi^i(V) is Brauer-Klimyk: the sum over the
    weights mu of V of eps(w) ch V_{w(lambda + i mu + rho) - rho}, one dot
    action each (Humphreys, Introduction to Lie Algebras and Representation
    Theory, sec. 24).  The sums are kept at the rho-shifted points
    w(lambda + i mu + rho), and rho comes off once per distinct point.
    Every sum must divide by p.
    """
    rs, nodes = spec.ambient, spec.levi.nodes
    shifted = rs.shifted_dominant
    roots = spec.levi.radical_roots  # V has the weights mu = -root
    acc: dict[Weight, int] = {}
    for i in range(1, p + 1):
        scaled = [[-i * x for x in root] for root in roots]
        sign = 1 if i % 2 else -1
        for s in levels[p - i]:
            lam_rho = [x + 1 for x in s.highest_weight]
            for mu in scaled:
                top, n = shifted(list(map(add, lam_rho, mu)), nodes)
                steps += n
                if top is not None:
                    acc[top] = acc.get(top, 0) + (-sign if n % 2 else sign)
            steps += len(scaled)
            if steps > ENGINE_STEP_LIMIT:
                raise DecompositionError(
                    f"{spec.name}: weight engine to grade {spec.dim // 2} passed "
                    f"ENGINE_STEP_LIMIT = {ENGINE_STEP_LIMIT} {_UNITS}")
    mult = {}
    for y, c in acc.items():
        w = tuple([x - 1 for x in y])
        m, r = divmod(c, p)
        if r:
            raise DecompositionError(
                f"{spec.name}, p={p}: Newton sum {c} at {w} is not divisible by {p}")
        mult[w] = m
    return _summands(spec, p, mult, comb(spec.dim, p), "binom(dim, p) ="), steps


# verify --max-rank 7 runs the engine on 39 spaces, the query-mix benchmark on
# none; the cap keeps all of verify's and bounds what a long sweep keeps.
ENGINE_CACHE_SIZE = 64


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _engine_levels(spec: GrassmannianSpec) -> tuple[tuple[IrreducibleSummand, ...], ...]:
    """Engine summands of every grade 0..dim of the exterior algebra.

    Grades 1..dim // 2 come from ``_newton_grade``, each from the summands
    of the grades below; grades above dim // 2 are dual to those below.
    """
    half = spec.dim // 2
    least = spec.dim * half * (half + 1) // 2
    if least > ENGINE_STEP_LIMIT:
        raise DecompositionError(
            f"{spec.name}: weight engine to grade {half} needs at least {least} "
            f"dot actions, past ENGINE_STEP_LIMIT = {ENGINE_STEP_LIMIT} {_UNITS}")
    levels = [(_make_summand(spec, (0,) * spec.ambient.rank, 0),)]
    steps = 0
    for p in range(1, half + 1):
        level, steps = _newton_grade(spec, levels, p, steps)
        levels.append(level)
    for p in range(half + 1, spec.dim + 1):
        dual = (_dual_summand(spec, s, p) for s in levels[spec.dim - p])
        levels.append(tuple(sorted(dual, key=lambda s: s.highest_weight, reverse=True)))
    return tuple(levels)


# -- Kostant's theorem -------------------------------------------------------------

# verify --max-rank 7 asks for 13 spaces and the query-mix benchmark for 15;
# the cap keeps all of them while bounding what a sweep over many spaces keeps.
KOSTANT_CACHE_SIZE = 64


@lru_cache(maxsize=KOSTANT_CACHE_SIZE)
def _kostant_levels(spec: GrassmannianSpec) -> tuple[tuple[Weight, ...], ...]:
    """The points w rho of the minimal coset representatives w of each
    length 0..dim, each level sorted descending.

    The cotangent space is an abelian nilradical, so its p-th exterior power
    is its Lie algebra cohomology H^p, which is multiplicity-free with one
    summand of highest weight w rho - rho for each w of length p minimal in
    its coset W_L w (Kostant, Lie algebra cohomology and the generalized
    Borel-Weil theorem, Ann. of Math. 74, 1961).  Those w are exactly the
    ones with x = w rho strictly Levi-dominant, and dropping the last letter
    of a reduced word keeps w minimal.  As <x, beta^vee> =
    <rho, (w^-1 beta)^vee>, the positive roots beta = w alpha_i, for which
    w s_i is longer and w s_i rho = x - beta, are those with <x, beta^vee>
    = 1.  Such a Levi root is simple, x being strictly Levi-dominant, and
    gives w s_i = s_j w, not minimal; a radical one leaves s_i w^-1 positive
    on the Levi simple roots.  So the next level is every x - beta over the
    radical roots with 2(x, beta) = (beta, beta), one pass down their tree.
    """
    levi = spec.levi
    norms = spec.ambient.simple_root_norms
    squares = [sum(c * n * b for c, n, b in zip(cs, norms, root))  # 2(beta, beta)
               for root, cs in zip(levi.radical_roots, levi.radical_root_coords)]
    level = {(1,) * spec.ambient.rank}
    levels = []
    for _ in range(spec.dim + 1):
        levels.append(tuple(sorted(level, reverse=True)))
        nxt: set[Weight] = set()
        for point in level:
            pairs = levi.radical_pairings(point)  # 2(x, beta)
            for root, pair, square in zip(levi.radical_roots, pairs, squares):
                if 2 * pair != square:
                    continue
                new = tuple(map(sub, point, root))
                if new not in nxt and not all(new[j] > 0 for j in levi.nodes):
                    raise DecompositionError(
                        f"{spec.name}: coset point {new} is not strictly Levi-dominant")
                nxt.add(new)
        level = nxt
    if level:
        raise DecompositionError(
            f"{spec.name}: a minimal coset representative is longer than {spec.dim}")
    return tuple(levels)


def _kostant_summands(spec: GrassmannianSpec, p: int) -> tuple[IrreducibleSummand, ...]:
    """Kostant summands of grade p, sorted descending: highest weight
    w rho - rho for each cached point w rho of length p."""
    return tuple(_make_summand(spec, tuple(x - 1 for x in point), p)
                 for point in _kostant_levels(spec)[p])


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
    if spec.family == "lagrangian":
        hooks, marked = hooks_q1, lambda mu: -mu[0]
    elif spec.family == "spinor":
        hooks, marked = hooks_qm1, lambda mu: -(mu[0] + mu[1])
    else:
        raise ValueError(f"{spec.name}: hook decomposition needs IG:n or OG:n")
    n = spec.params[0]
    if not 0 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 0..{spec.dim} for {spec.name}")
    out = []
    for mu in hooks(p, n) if p else [()]:
        padded = list(mu) + [0] * (n + 1 - len(mu))
        levi = [padded[i - 1] - padded[i] for i in range(n - 1, 0, -1)]
        out.append((mu, _make_summand(spec, (*levi, marked(padded)), p)))
    out.sort(key=lambda t: t[1].highest_weight, reverse=True)
    return out


# -- the public decomposition entry point -------------------------------------------

# verify --max-rank 7 fills 429 answers and the query-mix benchmark 542; the
# cap leaves room for both while bounding what a long-running process keeps.
# The engine's grades are not kept here: ``_engine_levels`` holds them.
ANSWER_CACHE_SIZE = 4096


@lru_cache(maxsize=ANSWER_CACHE_SIZE)
def _route_summands(spec: GrassmannianSpec, p: int) -> tuple[IrreducibleSummand, ...]:
    """Summands of grade p by the route ``method="auto"`` takes for the
    family, computed once per (spec, p).  Threads missing the same key may
    both compute it; the answers are equal.
    """
    route = _AUTO_ROUTES[spec.family]
    if route == "CauchyA":
        return tuple(s for _, s in cauchy_decompose(*spec.params, p))
    if route in ("HooksC", "HooksD"):
        return tuple(s for _, s in hooks_decompose(spec, p))
    return _kostant_summands(spec, p)


# The route ``method="auto"`` takes for each family.
_AUTO_ROUTES = {
    "grassmannian": "CauchyA",
    "lagrangian": "HooksC",
    "spinor": "HooksD",
    "quadric_odd": "Kostant",
    "quadric_even": "Kostant",
    "cayley": "Kostant",
    "freudenthal": "Kostant",
}


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
    if method == "WeightDP":
        chosen, summands = method, _engine_levels(spec)[p]
    else:
        chosen = _AUTO_ROUTES[spec.family]
        summands = _route_summands(spec, p)
    report = DecompositionReport(spec, p, summands, chosen)
    expected, got = report.rank_identity()
    if expected != got:
        raise RankIdentityError(
            f"{spec.name}, p={p}, {chosen}: rank identity failed "
            f"({got} != {expected})", expected, got)
    return report
