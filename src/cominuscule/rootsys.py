"""Exact root-system arithmetic for the simple types A-D, E6, E7.

Weights are integer tuples in the fundamental-weight basis, with Bourbaki
node numbering throughout (E6 and E7 are numbered so that the branch node
attaches at node 4).  All arithmetic is exact and integer: rationals appear
only in the public ``pairing`` and ``inverse_cartan``; no floating point.

Every derived table is read off the simple-root coordinates c(alpha) of the
positive roots and the norms |alpha_i|^2.  Since (l_i, alpha) =
c_i(alpha) |alpha_i|^2 / 2, the rows 2(l_i, alpha) form one integer table
that serves Weyl dimensions and Freudenthal's formula.  The Casimir identity
``sum_{alpha > 0} (lambda, alpha) alpha = h^vee lambda`` (Bourbaki, Lie
Groups and Lie Algebras, VI.1.12; h^vee the dual Coxeter number) gives the
inverse Cartan matrix without elimination:
``2 h^vee C^{-1} = c^T c diag(|alpha_i|^2)``, checked exactly on construction.

The invariant form is normalized so that long roots have squared length 2.
Published tables sometimes use a different global scale (e.g. the type-C
pairing values ``<l_j, l_n> = j`` correspond to twice our values); every
quantity consumed downstream (Weyl dimensions, twist coefficients, string
lengths) is a ratio of pairings, so the scale is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np

Weight = tuple[int, ...]

# Closed-form positive-root counts, used as a self-test of the closure
# construction (one generation code path for all seven types).
_POSITIVE_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63}[r],
}

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6}


@dataclass(frozen=True)
class LieType:
    """A simple Lie type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "B", "C", "D", "E"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "E" and self.rank not in (6, 7):
            raise ValueError("only E6 and E7 are supported")
        if self.rank < _MIN_RANK[self.family]:
            raise ValueError(f"{self.family}_{self.rank}: rank too small")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix C with C[i][j] = <alpha_j, alpha_i^vee>, Bourbaki order."""
    r = lie_type.rank
    fam = lie_type.family
    mat = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i, j, cij=-1, cji=-1):
        mat[i][j] = cij
        mat[j][i] = cji

    if fam in ("A", "B", "C"):
        for i in range(r - 1):
            bond(i, i + 1)
        if fam == "B" and r >= 2:
            mat[r - 1][r - 2] = -2  # alpha_r short
        if fam == "C" and r >= 2:
            mat[r - 2][r - 1] = -2  # alpha_r long
    elif fam == "D":
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 3, r - 1)
    else:  # E6 / E7: chain 1-3-4-5-...-r with node 2 hanging off node 4
        chain = [0] + list(range(2, r))
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    return tuple(tuple(row) for row in mat)


def _norms(lie_type: LieType) -> tuple[int, ...]:
    """(alpha_i, alpha_i) with long roots normalized to squared length 2."""
    r = lie_type.rank
    if lie_type.family == "B":
        return (2,) * (r - 1) + (1,)
    if lie_type.family == "C":
        return (1,) * (r - 1) + (2,)
    return (2,) * r


def is_dominant(w: Weight) -> bool:
    """Dominance in the fundamental-weight basis: all coordinates >= 0."""
    return all(x >= 0 for x in w)


def _add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def negate(w: Weight) -> Weight:
    return tuple(-x for x in w)


class RootSystem:
    """Cartan data and exact weight arithmetic for one simple type.

    Instances are immutable after construction and safe to share across
    threads; all operations are pure.  Use the cached :func:`root_system`
    factory rather than constructing directly.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        self.rank = lie_type.rank
        self.cartan = cartan_matrix(lie_type)
        self.simple_root_norms = _norms(lie_type)
        # Fundamental coordinates of alpha_i = i-th column of the Cartan matrix.
        self.simple_roots = tuple(
            tuple(self.cartan[i][j] for i in range(self.rank))
            for j in range(self.rank)
        )
        self.positive_roots, self.positive_root_coords = self._generate_positive_roots()
        expected = _POSITIVE_COUNTS[lie_type.family](self.rank)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"{lie_type}: got {len(self.positive_roots)} positive roots, "
                f"expected {expected}"
            )
        self._all_nodes = tuple(range(self.rank))

        # Integer tables from the simple-root coordinates c (module docstring).
        c = np.asarray(self.positive_root_coords, dtype=np.int64)
        norms = np.asarray(self.simple_root_norms, dtype=np.int64)
        self._root_pairs = c * norms
        self._root_pairs.flags.writeable = False
        inv = (c.T @ c) * norms
        cartan_inv = np.asarray(self.cartan, dtype=np.int64) @ inv
        two_h = int(cartan_inv[0, 0])
        if two_h % 2 or (cartan_inv != two_h * np.eye(self.rank, dtype=np.int64)).any():
            raise AssertionError(
                f"{lie_type}: Casimir identity fails, C c^T c D is not 2h I")
        self.dual_coxeter = two_h // 2
        # 2 h^vee C^{-1}: column j holds the simple-root coordinates of
        # 2 h^vee l_j, and 4 h^vee (l_i, l_j) is |alpha_i|^2 times entry [i][j].
        self.scaled_inverse_cartan = tuple(tuple(row) for row in inv.tolist())
        self.inverse_cartan = tuple(
            tuple(Fraction(x, two_h) for x in row)
            for row in self.scaled_inverse_cartan
        )
        row_sums = self._root_pairs.sum(axis=1).tolist()
        self._max_row_sum = max(row_sums)
        self._weyl_den = prod(row_sums)

    # -- construction helpers -------------------------------------------------

    def _generate_positive_roots(self):
        """All positive roots by reflection closure from the simple roots.

        For a positive root beta with <beta, alpha_i^vee> = -m < 0, s_i beta
        = beta + m alpha_i is a positive root of greater height, and every
        positive root arises from a simple root by such steps (Humphreys,
        Introduction to Lie Algebras and Representation Theory, 10.2-10.3).
        A step can raise the height by 2 (types B and C), so duplicates are
        caught across all levels.  Sorted by (height, coordinates).
        """
        r = self.rank
        coords = {tuple(int(i == j) for j in range(r)): w
                  for i, w in enumerate(self.simple_roots)}
        level = list(coords)
        while level:
            nxt = []
            for c in level:
                w = coords[c]
                for i, m in enumerate(w):
                    if m < 0:
                        c2 = c[:i] + (c[i] - m,) + c[i + 1:]
                        if c2 not in coords:
                            coords[c2] = tuple(
                                x - m * y for x, y in zip(w, self.simple_roots[i]))
                            nxt.append(c2)
            level = nxt
        ordered = sorted(coords, key=lambda c: (sum(c), c))
        return tuple(coords[c] for c in ordered), tuple(ordered)

    # -- exact pairing ---------------------------------------------------------

    def pairing(self, a: Weight, b: Weight) -> Fraction:
        """Invariant pairing <a, b> induced by the Killing form.

        Computed as a^T (D C^{-1}) b where C is the Cartan matrix and D the
        diagonal of simple-root half-norms, in integers over 4 h^vee;
        symmetric and bilinear.
        """
        if len(a) != self.rank or len(b) != self.rank:
            raise ValueError(f"weights must have length {self.rank}")
        return Fraction(self._pair_scaled(a, b), 4 * self.dual_coxeter)

    def _pair_scaled(self, a: Weight, b: Weight) -> int:
        """4 h^vee <a, b>, an integer."""
        return sum(x * n * sum(g * y for g, y in zip(row, b))
                   for x, n, row in zip(a, self.simple_root_norms,
                                        self.scaled_inverse_cartan))

    # -- Weyl group actions ----------------------------------------------------

    def reflect(self, w: Weight, i: int) -> Weight:
        """Simple reflection s_i(w) = w - w_i alpha_i (i is 0-based)."""
        if not w[i]:
            return w
        ai = self.simple_roots[i]
        c = w[i]
        return tuple(x - c * y for x, y in zip(w, ai))

    def dominant_representative(self, w: Weight, nodes=None) -> Weight:
        """The unique dominant element of the Weyl orbit of w.

        With ``nodes`` restricted to a subset of simple reflections, the
        unique element of the parabolic orbit that is nonnegative on those
        nodes.
        """
        nodes = self._all_nodes if nodes is None else nodes
        w = tuple(w)
        while True:
            for i in nodes:
                if w[i] < 0:
                    w = self.reflect(w, i)
                    break
            else:
                return w

    def weyl_orbit(self, w: Weight, nodes=None) -> set[Weight]:
        """Closure of {w} under the (possibly parabolic) simple reflections."""
        nodes = self._all_nodes if nodes is None else nodes
        seen = {tuple(w)}
        frontier = [tuple(w)]
        while frontier:
            nxt = []
            for v in frontier:
                for i in nodes:
                    u = self.reflect(v, i)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return seen

    # -- cone membership ---------------------------------------------------------

    def root_cone_level(self, diff: Weight, nodes=None) -> int | None:
        """Total height of diff as a nonnegative integer combination of the
        simple roots indexed by ``nodes``; None if diff is not in that cone."""
        nodes = self._all_nodes if nodes is None else nodes
        allowed = set(nodes)
        den = 2 * self.dual_coxeter
        level = 0
        for i, row in enumerate(self.scaled_inverse_cartan):
            num = sum(x * y for x, y in zip(row, diff))
            if i not in allowed:
                if num != 0:
                    return None
                continue
            if num < 0 or num % den:
                return None
            level += num // den
        return level

    # -- dimensions and characters ----------------------------------------------

    def weyl_dim(self, w: Weight) -> int:
        """Dimension of the irreducible module with highest weight w.

        Weyl dimension formula: prod over positive roots of
        <w + rho, alpha> / <rho, alpha>, an exact integer.
        """
        if not is_dominant(w):
            raise ValueError(f"weight {w} is not dominant")
        return self._weyl_dim(self._root_pairs, self._weyl_den, w)

    def _weyl_dim(self, pairs: np.ndarray, den: int, w: Weight) -> int:
        """prod 2<w + rho, alpha> / den over the rows 2(l_i, alpha) of pairs,
        den being prod 2<rho, alpha>; rho has every coordinate 1."""
        if (max(abs(x) for x in w) + 1) * self._max_row_sum >= 2 ** 63:
            raise ValueError(f"weight {w} is too large for the Weyl dimension")
        num = prod((pairs @ (np.asarray(w, dtype=np.int64) + 1)).tolist())
        q, r = divmod(num, den)
        if r:
            raise AssertionError("Weyl dimension did not come out integral")
        return q

    def dominant_weight_multiplicities(self, w: Weight) -> dict[Weight, int]:
        """Freudenthal multiplicities at the dominant weights of V_w."""
        if not is_dominant(w):
            raise ValueError(f"weight {w} is not dominant")
        return self._freudenthal(w, self._all_nodes, self.positive_roots,
                                 self._root_pairs)

    def weight_system(self, w: Weight) -> dict[Weight, int]:
        """Full weight multiset of V_w, extended from the dominant chamber by
        Weyl symmetry.  Total multiplicity equals weyl_dim(w)."""
        out: dict[Weight, int] = {}
        for dom, mult in self.dominant_weight_multiplicities(w).items():
            for v in self.weyl_orbit(dom):
                out[v] = mult
        return out

    def _freudenthal(self, highest, nodes, pos_roots, pairs) -> dict[Weight, int]:
        """Freudenthal recursion restricted to the (parabolic) dominant chamber.

        Works in full fundamental coordinates with the ambient pairing; for a
        Levi subsystem this is legitimate because the orthogonal complement of
        the subsystem's root span pairs to zero with its roots, so every
        pairing in the recursion only sees the subsystem component, and rho
        may have every coordinate 1.  ``pairs`` holds the rows 2(l_i, alpha)
        of ``pos_roots``.
        """
        highest = tuple(highest)
        # Candidate set: all chamber-dominant weights below the highest weight
        # in the subsystem root cone.  Closure under "step by one positive
        # root, then dominantize" in both directions is exhaustive.
        cands = {highest: 0}
        frontier = [highest]
        while frontier:
            nxt = []
            for mu in frontier:
                for alpha in pos_roots:
                    for nu0 in (_sub(mu, alpha), _add(mu, alpha)):
                        nu = self.dominant_representative(nu0, nodes)
                        if nu in cands:
                            continue
                        lev = self.root_cone_level(_sub(highest, nu), nodes)
                        if lev is None:
                            continue
                        cands[nu] = lev
                        nxt.append(nu)
            frontier = nxt

        pairs = pairs.tolist()
        alpha_sq = [sum(x * y for x, y in zip(a, pa))
                    for a, pa in zip(pos_roots, pairs)]
        top_shift = tuple(2 * x + 2 for x in highest)  # 2(highest + rho)
        scale = 4 * self.dual_coxeter

        mults: dict[Weight, int] = {highest: 1}
        dom_cache: dict[Weight, Weight] = {}
        for mu in sorted(cands, key=cands.get)[1:]:
            rhs = 0  # 2 sum_{alpha, j} m(mu + j alpha) <mu + j alpha, alpha>
            for alpha, pa, a2 in zip(pos_roots, pairs, alpha_sq):
                base = sum(x * y for x, y in zip(mu, pa))
                j = 1
                nu = _add(mu, alpha)
                while True:
                    rep = dom_cache.get(nu)
                    if rep is None:
                        rep = self.dominant_representative(nu, nodes)
                        dom_cache[nu] = rep
                    m = mults.get(rep, 0)
                    if not m:
                        break
                    rhs += m * (base + j * a2)
                    j += 1
                    nu = _add(nu, alpha)
            diff = _sub(highest, mu)
            lhs = self._pair_scaled(diff, _sub(top_shift, diff))
            # lhs = <highest+rho,highest+rho> - <mu+rho,mu+rho>, times 4 h^vee
            if lhs <= 0:
                raise AssertionError("Freudenthal denominator must be positive")
            q, r = divmod(scale * rhs, lhs)
            if r or q <= 0:
                raise AssertionError("Freudenthal multiplicity must be a positive integer")
            mults[mu] = q
        return mults

    # -- reporting ---------------------------------------------------------------

    def dump(self) -> dict:
        """Cartan data as plain JSON-ready values (debug interface)."""
        return {
            "type": str(self.lie_type),
            "rank": self.rank,
            "node_numbering": "Bourbaki",
            "cartan": [list(row) for row in self.cartan],
            "inverse_cartan": [[str(f) for f in row] for row in self.inverse_cartan],
            "simple_root_norms": [str(f) for f in self.simple_root_norms],
            "positive_root_count": len(self.positive_roots),
            "positive_roots": [list(r) for r in self.positive_roots],
        }

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type})"


class LeviSubsystem:
    """The Levi root subsystem of a maximal parabolic: the ambient diagram
    minus one marked node, acting on full ambient weight coordinates.

    ``node`` is 1-based (Bourbaki).  Levi-dominance means nonnegativity on
    every coordinate except the marked one, which records the twist.
    """

    def __init__(self, ambient: RootSystem, node: int):
        if not 1 <= node <= ambient.rank:
            raise ValueError(f"node {node} out of range for {ambient.lie_type}")
        self.ambient = ambient
        self.node = node
        self._k = node - 1
        self.nodes = tuple(i for i in range(ambient.rank) if i != self._k)
        levi = [coord[self._k] == 0 for coord in ambient.positive_root_coords]
        self.positive_roots = tuple(
            root for root, keep in zip(ambient.positive_roots, levi) if keep)
        self._pairs = ambient._root_pairs[np.asarray(levi)]
        self._pairs.flags.writeable = False
        self._weyl_den = prod(self._pairs.sum(axis=1).tolist())

    def is_dominant(self, w: Weight) -> bool:
        return all(w[i] >= 0 for i in self.nodes)

    def dominant_representative(self, w: Weight) -> Weight:
        return self.ambient.dominant_representative(w, self.nodes)

    def weyl_dim(self, w: Weight) -> int:
        """Dimension of the irreducible Levi module with highest weight w."""
        if not self.is_dominant(w):
            raise ValueError(f"weight {w} is not Levi-dominant")
        return self.ambient._weyl_dim(self._pairs, self._weyl_den, w)

    def dominant_weight_multiplicities(self, w: Weight) -> dict[Weight, int]:
        """Freudenthal multiplicities at the Levi-dominant weights of the
        Levi module V_w (full ambient coordinates)."""
        if not self.is_dominant(w):
            raise ValueError(f"weight {w} is not Levi-dominant")
        return self.ambient._freudenthal(w, self.nodes, self.positive_roots,
                                         self._pairs)

    def dual_highest_weight(self, w: Weight) -> Weight:
        """Highest weight of the dual Levi module: the dominant representative
        of -w under the Levi Weyl group."""
        return self.dominant_representative(negate(w))

    def __repr__(self) -> str:
        return f"LeviSubsystem({self.ambient.lie_type}, node={self.node})"


# verify --max-rank 7 and the query-mix benchmark each build about 30 root
# systems; the cap keeps all of them while bounding what a sweep keeps.
ROOT_SYSTEM_CACHE_SIZE = 64


@lru_cache(maxsize=ROOT_SYSTEM_CACHE_SIZE)
def root_system(family: str, rank: int | None = None) -> RootSystem:
    """Cached root-system factory.  Accepts ('A', 4) or 'E6' style arguments."""
    if rank is None:
        fam, rank = family[0], int(family[1:])
    else:
        fam = family
    return RootSystem(LieType(fam, int(rank)))
