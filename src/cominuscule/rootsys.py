"""Exact root-system arithmetic for the simple types A-D, E6, E7.

Weights are integer tuples in the fundamental-weight basis, with Bourbaki
node numbering throughout (E6 and E7 are numbered so that the branch node
attaches at node 4).  All arithmetic is exact and integer: rationals appear
only in the public ``pairing`` and ``inverse_cartan``, the only places that
import ``fractions``; no floating point.

Every derived table is read off the simple-root coordinates c(beta) of the
positive roots and the norms |alpha_i|^2, through parent tables, and one
rule, ``_parent_table``, builds every tree: a non-simple positive root is
beta = beta' + alpha_i with beta' a root of its own set (Humphreys,
Introduction to Lie Algebras and Representation Theory, 10.2).  The sets are
all positive roots, a tree over the simple roots, and the two halves of the
split at a marked node k: the Levi roots (c_k = 0), a tree over the other
simple roots, and the radical's (c_k >= 1), a tree over alpha_k.  Since
(l_i, beta) = c_i(beta) |alpha_i|^2 / 2, any linear function of beta, such
as 2(w, beta) = sum_i c_i(beta) |alpha_i|^2 w_i, is its parent's value plus
one term, so one loop, ``_tree_sums``, pairs a weight with every root of a
set in one pass down its tree.  That pass serves every caller: a Weyl
dimension is its product at w + rho (an ambient one a Levi dimension times
the radical's factors), Freudenthal pairs each weight with the roots of its
subsystem, and Kostant's walk each coset point with the radical roots
(``LeviSubsystem.radical_pairings``).  The Casimir identity
``sum_{beta > 0} (lambda, beta) beta = h^vee lambda`` (Bourbaki, Lie Groups
and Lie Algebras, VI.1.12; h^vee the dual Coxeter number) gives the
inverse Cartan matrix without elimination:
``2 h^vee C^{-1} = G diag(|alpha_i|^2)`` with G the Gram matrix
``sum_beta c(beta) c(beta)^T``, read off the ambient tree and checked
exactly on construction.  The dot action w -> u(w + rho) - rho is one
reflection loop on y = w + rho, ``RootSystem.shifted_dominant``.
Everything is pure Python integers, which cannot overflow.

The invariant form is normalized so that long roots have squared length 2.
Published tables sometimes use a different global scale (e.g. the type-C
pairing values ``<l_j, l_n> = j`` correspond to twice our values); every
quantity consumed downstream (Weyl dimensions, twist coefficients, string
lengths) is a ratio of pairings, so the scale is immaterial.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import compress
from math import prod

Weight = tuple[int, ...]


class DecompositionError(RuntimeError):
    """Internal consistency failure: a self-check of the library found its
    own data or results inconsistent."""


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

# The largest rank built.  A build costs about roots x rank steps and memory:
# a cold A149 (G:2:150) takes about 0.22-0.24 s on one CPU, and A999
# (G:2:1000) would need several GB.
MAX_AMBIENT_RANK = 150


def _check_rank(rank: int) -> None:
    if rank > MAX_AMBIENT_RANK:
        raise ValueError(f"ambient rank {rank} is above the limit "
                         f"MAX_AMBIENT_RANK = {MAX_AMBIENT_RANK}")


class LieType(namedtuple("LieType", "family rank")):
    """A simple Lie type: family letter plus rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in ("A", "B", "C", "D", "E"):
            raise ValueError(f"unknown family {family!r}")
        if family == "E" and rank not in (6, 7):
            raise ValueError("only E6 and E7 are supported")
        if rank < _MIN_RANK[family]:
            raise ValueError(f"{family}_{rank}: rank too small")
        _check_rank(rank)
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: validate here too
        return cls(*iterable)

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


def _tree_sums(chain, v) -> list[int]:
    """sum_i c_i(beta) v_i for each root beta of a parent table, in its
    order: each value is its parent's plus v_i."""
    vals: list[int] = []
    append = vals.append
    for parent, i in chain:
        append(v[i] if parent < 0 else vals[parent] + v[i])
    return vals


def _weyl_dim(chain, den: int, v: list[int], scale: int = 1) -> int:
    """scale * prod 2<w + rho, beta> / den over the roots of a parent table,
    from the chain values v of w; den is prod 2<rho, beta>."""
    num = scale * prod(_tree_sums(chain, v))
    q, r = divmod(num, den)
    if r:
        raise DecompositionError(
            f"Weyl dimension {num}/{den} did not come out integral")
    return q


def _parent_table(coords) -> tuple[tuple[int, int], ...]:
    """The parent table of a set of positive roots, given by their
    simple-root coordinate tuples in height order: ``(parent, i)`` for each
    root beta, with beta = parent + alpha_i and the parent an earlier root of
    the same set, or parent -1 for a root of height 1.  A root of greater
    height with no parent in the set is refused."""
    index: dict[tuple[int, ...], int] = {}
    table = []
    for n, c in enumerate(coords):
        for i in compress(range(len(c)), c):  # the i with c_i > 0
            parent = index.get(c[:i] + (c[i] - 1,) + c[i + 1:])
            if parent is not None:
                table.append((parent, i))
                break
        else:
            if sum(c) != 1:
                raise DecompositionError(f"root {c} has no parent in its set")
            table.append((-1, c.index(1)))
        index[c] = n
    return tuple(table)


def _gram(rank: int, chain) -> list[list[int]]:
    """The Gram matrix sum_beta c(beta) c(beta)^T of a parent table.

    c(beta) counts the labels on the path from a simple root to beta, so a
    pair (ancestor-or-self u, node v) lies on the paths of the roots of the
    subtree of v: it adds that subtree's size at (label u, label v) and, for
    u != v, at (label v, label u).  O(sum of heights) steps.
    """
    size = [1] * len(chain)
    for v in range(len(chain) - 1, -1, -1):
        if chain[v][0] >= 0:
            size[chain[v][0]] += size[v]
    gram = [[0] * rank for _ in range(rank)]
    for (u, j), n in zip(chain, size):
        gram[j][j] += n
        while u >= 0:
            u, i = chain[u]
            gram[i][j] += n
            gram[j][i] += n
    return gram


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
        # the nonzero coordinates (j, alpha_i[j]) of each simple root
        self._supports = tuple(tuple((j, a) for j, a in enumerate(root) if a)
                               for root in self.simple_roots)
        (self.positive_roots, self.positive_root_coords,
         self._chain) = self._generate_positive_roots()
        expected = _POSITIVE_COUNTS[lie_type.family](self.rank)
        if len(self.positive_roots) != expected:
            raise DecompositionError(
                f"{lie_type}: got {len(self.positive_roots)} positive roots, "
                f"expected {expected}"
            )
        self._all_nodes = tuple(range(self.rank))

        # Integer tables from the parent tree of the positive roots (module
        # docstring): 2 h^vee C^{-1} = G D, checked over the sparse rows of C.
        norms = self.simple_root_norms
        inv = [[g * n for g, n in zip(row, norms)]
               for row in _gram(self.rank, self._chain)]
        sparse = [[(t, g) for t, g in enumerate(row) if g] for row in self.cartan]
        cartan_inv = [[sum(g * inv[t][j] for t, g in row) for j in range(self.rank)]
                      for row in sparse]
        two_h = cartan_inv[0][0]
        if two_h % 2 or any(x != (two_h if i == j else 0)
                            for i, row in enumerate(cartan_inv)
                            for j, x in enumerate(row)):
            raise DecompositionError(
                f"{lie_type}: Casimir identity fails, C c^T c D is not 2h I")
        self.dual_coxeter = two_h // 2
        # 2 h^vee C^{-1}: column j holds the simple-root coordinates of
        # 2 h^vee l_j, and 4 h^vee (l_i, l_j) is |alpha_i|^2 times entry [i][j].
        self.scaled_inverse_cartan = tuple(map(tuple, inv))
        self._weyl_den = prod(_tree_sums(self._chain, self.simple_root_norms))

    @cached_property
    def inverse_cartan(self) -> tuple[tuple[Fraction, ...], ...]:
        """C^{-1} as exact rationals: ``scaled_inverse_cartan`` over 2 h^vee."""
        from fractions import Fraction

        two_h = 2 * self.dual_coxeter
        return tuple(tuple(Fraction(x, two_h) for x in row)
                     for row in self.scaled_inverse_cartan)

    # -- construction helpers -------------------------------------------------

    def _generate_positive_roots(self):
        """All positive roots by reflection closure from the simple roots,
        with their parent table.

        For a positive root beta with <beta, alpha_i^vee> = -m < 0, s_i beta
        = beta + m alpha_i is a positive root of greater height, and every
        positive root arises from a simple root by such steps (Humphreys,
        Introduction to Lie Algebras and Representation Theory, 10.2-10.3).
        A step can raise the height by 2 (types B and C), so duplicates are
        caught across all levels.  Sorted by (height, coordinates), so parents
        come first.
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
        ordered = tuple(sorted(coords, key=lambda c: (sum(c), c)))
        return tuple(coords[c] for c in ordered), ordered, _parent_table(ordered)

    # -- exact pairing ---------------------------------------------------------

    def pairing(self, a: Weight, b: Weight) -> Fraction:
        """Invariant pairing <a, b> induced by the Killing form.

        Computed as a^T (D C^{-1}) b where C is the Cartan matrix and D the
        diagonal of simple-root half-norms, in integers over 4 h^vee;
        symmetric and bilinear.
        """
        from fractions import Fraction

        for w in (a, b):
            self.check_length(w)
        return Fraction(self._pair_scaled(a, b), 4 * self.dual_coxeter)

    def _pair_scaled(self, a: Weight, b: Weight) -> int:
        """4 h^vee <a, b>, an integer."""
        return sum(x * n * sum(g * y for g, y in zip(row, b))
                   for x, n, row in zip(a, self.simple_root_norms,
                                        self.scaled_inverse_cartan))

    # -- Weyl group actions ----------------------------------------------------

    def reflect(self, w: Weight, i: int) -> Weight:
        """Simple reflection s_i(w) = w - w_i alpha_i (i is 0-based)."""
        c = w[i]
        if not c:
            return w
        y = list(w)
        for j, a in self._supports[i]:
            y[j] -= c * a
        return tuple(y)

    def dominant_representative(self, w: Weight, nodes=None) -> Weight:
        """The unique dominant element of the Weyl orbit of w.

        With ``nodes`` restricted to a subset of simple reflections, the
        unique element of the parabolic orbit that is nonnegative on those
        nodes.
        """
        self.check_length(w)
        nodes = self._all_nodes if nodes is None else nodes
        w = tuple(w)
        while True:
            for i in nodes:
                if w[i] < 0:
                    w = self.reflect(w, i)
                    break
            else:
                return w

    def dot_dominant(self, w: Weight, nodes=None) -> tuple[Weight | None, int]:
        """The dot action into the dominant chamber of the Weyl group
        generated by the reflections in ``nodes``: u(w + rho) - rho, with u
        the element that makes w + rho nonnegative on those nodes, and the
        number of reflections made (``shifted_dominant`` on y = w + rho)."""
        self.check_length(w)
        nodes = self._all_nodes if nodes is None else nodes
        top, steps = self.shifted_dominant([x + 1 for x in w], nodes)
        return (None if top is None else tuple([x - 1 for x in top])), steps

    def shifted_dominant(self, y: list[int], nodes) -> tuple[Weight | None, int]:
        """The rho-shifted dot action: reflects the list y = w + rho in
        place into the chamber of ``nodes`` and returns ``(u y, steps)``, the
        point None when y is singular.

        Each step reflects y in its first node where y is negative.  A zero
        on a node means a reflection fixes y: y is singular, as is every
        point of its orbit.  For a regular y each step shortens u by one, so
        the steps number the length of u, and (-1)^length is its sign
        (Humphreys, Introduction to Lie Algebras and Representation Theory,
        10.3).  rho has every coordinate 1; on a Levi subsystem any rho with
        every Levi coordinate 1 gives the same dot action.  A caller that
        works on rho-shifted points throughout, as the weight engine does,
        shifts once per point instead of once per action.
        """
        supports = self._supports
        steps = 0
        while True:
            for i in nodes:
                c = y[i]
                if c <= 0:
                    break
            else:
                return tuple(y), steps
            if not c:
                return None, steps
            for j, a in supports[i]:
                y[j] -= c * a
            steps += 1

    def weyl_orbit(self, w: Weight, nodes=None) -> set[Weight]:
        """Closure of {w} under the (possibly parabolic) simple reflections."""
        self.check_length(w)
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

    # -- dimensions and characters ----------------------------------------------

    def check_length(self, w: Weight) -> None:
        """Refuse, with the one error, a weight whose length is not the rank."""
        if len(w) != self.rank:
            raise ValueError(f"weight {tuple(w)} has length {len(w)}; "
                             f"{self.lie_type} weights have length {self.rank}")

    def _chain_values(self, w: Weight) -> list[int]:
        """v_i = |alpha_i|^2 (w_i + 1), so 2<w + rho, beta> = sum_i c_i(beta) v_i
        (rho has every coordinate 1).  v_i > 0 exactly when w_i >= 0, so the
        values decide dominance too."""
        self.check_length(w)
        return [n * (x + 1) for n, x in zip(self.simple_root_norms, w)]

    def weyl_dim(self, w: Weight) -> int:
        """Dimension of the irreducible module with highest weight w.

        Weyl dimension formula: prod over positive roots of
        <w + rho, alpha> / <rho, alpha>, an exact integer.
        """
        v = self._chain_values(w)
        if min(v) <= 0:
            raise ValueError(f"weight {w} is not dominant")
        return _weyl_dim(self._chain, self._weyl_den, v)

    def dominant_weight_multiplicities(self, w: Weight) -> dict[Weight, int]:
        """Freudenthal multiplicities at the dominant weights of V_w."""
        self.check_length(w)
        if not is_dominant(w):
            raise ValueError(f"weight {w} is not dominant")
        return self._freudenthal(w, self._all_nodes, self.positive_roots, self._chain)

    def weight_system(self, w: Weight) -> dict[Weight, int]:
        """Full weight multiset of V_w, extended from the dominant chamber by
        Weyl symmetry.  Total multiplicity equals weyl_dim(w)."""
        out: dict[Weight, int] = {}
        for dom, mult in self.dominant_weight_multiplicities(w).items():
            for v in self.weyl_orbit(dom):
                out[v] = mult
        return out

    def _freudenthal(self, highest, nodes, pos_roots, chain) -> dict[Weight, int]:
        """Freudenthal recursion restricted to the (parabolic) dominant chamber.

        Works in full fundamental coordinates with the ambient pairing; for a
        Levi subsystem this is legitimate because the orthogonal complement of
        the subsystem's root span pairs to zero with its roots, so every
        pairing in the recursion only sees the subsystem component, and rho
        may have every coordinate 1.  ``chain`` is the parent table of
        ``pos_roots``.

        The candidates are the dominant weights of V_highest: the weights
        highest - sum c_i alpha_i, every c_i >= 0 over the subsystem's simple
        roots, that are nonnegative on ``nodes`` (Humphreys, Introduction to
        Lie Algebras and Representation Theory, 21.3).  The recursion takes
        them in order of level, sum c_i.
        """
        highest = tuple(highest)
        # Each candidate is reached from highest by subtracting one positive
        # root at a time, every step dominant (Stembridge, The partial order
        # of dominant weights, Adv. Math. 136 (1998)), so a walk that only
        # goes down finds them all; a step adds the root's height to the level.
        heights = _tree_sums(chain, [1] * self.rank)
        cands = {highest: 0}
        walk = [highest]
        for mu in walk:  # grows as the walk goes
            for alpha, height in zip(pos_roots, heights):
                nu = _sub(mu, alpha)
                if nu not in cands and all(nu[i] >= 0 for i in nodes):
                    cands[nu] = cands[mu] + height
                    walk.append(nu)

        # every pairing 2(x, alpha) below is scaled by 4 h^vee, as lhs is
        norms = [4 * self.dual_coxeter * n for n in self.simple_root_norms]
        alpha_sq = [2 * self._pair_scaled(a, a) for a in pos_roots]
        top_shift = tuple(2 * x + 2 for x in highest)  # 2(highest + rho)

        mults: dict[Weight, int] = {highest: 1}
        dom_cache: dict[Weight, Weight] = {}
        for mu in sorted(cands, key=cands.get)[1:]:
            rhs = 0  # sum_{alpha, j >= 1} m(nu) 2(nu, alpha), nu = mu + j alpha
            mu_pairs = _tree_sums(chain, [n * x for n, x in zip(norms, mu)])
            for alpha, pair, a2 in zip(pos_roots, mu_pairs, alpha_sq):
                nu = _add(mu, alpha)
                while True:
                    if nu not in dom_cache:
                        dom_cache[nu] = self.dominant_representative(nu, nodes)
                    m = mults.get(dom_cache[nu], 0)
                    if not m:
                        break
                    pair += a2
                    rhs += m * pair
                    nu = _add(nu, alpha)
            diff = _sub(highest, mu)
            lhs = self._pair_scaled(diff, _sub(top_shift, diff))
            # lhs = <highest+rho,highest+rho> - <mu+rho,mu+rho>, times 4 h^vee
            if lhs <= 0:
                raise DecompositionError(f"Freudenthal denominator at {mu} below "
                                         f"{highest} is {lhs}, not positive")
            q, r = divmod(rhs, lhs)
            if r or q <= 0:
                raise DecompositionError(
                    f"Freudenthal multiplicity at {mu} below {highest} is "
                    f"{rhs}/{lhs}, not a positive integer")
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
    every coordinate except the marked one, which records the twist.  The
    split at the marked node k is made here: ``positive_roots`` are the Levi
    roots (c_k = 0), and ``radical_roots`` those of the radical (c_k >= 1),
    with their simple-root coordinates in ``radical_root_coords``; both keep
    the ambient height order, and each is a tree of its own.
    """

    def __init__(self, ambient: RootSystem, node: int):
        if not 1 <= node <= ambient.rank:
            raise ValueError(f"node {node} out of range for {ambient.lie_type}")
        self.ambient = ambient
        self.node = node
        self._k = node - 1
        self.nodes = tuple(i for i in range(ambient.rank) if i != self._k)
        # ``ambient_weyl_dim`` walks the radical tree instead of the ambient one
        k, coords = self._k, ambient.positive_root_coords
        roots = tuple(zip(ambient.positive_roots, coords))
        self.positive_roots = tuple(r for r, c in roots if not c[k])
        self._coords = tuple(c for c in coords if not c[k])
        self.radical_roots = tuple(r for r, c in roots if c[k])
        self.radical_root_coords = tuple(c for c in coords if c[k])
        norms = ambient.simple_root_norms
        self._chain = _parent_table(self._coords)
        self._weyl_den = prod(_tree_sums(self._chain, norms))
        self._radical_chain = _parent_table(self.radical_root_coords)
        self._radical_den = prod(_tree_sums(self._radical_chain, norms))

    def is_dominant(self, w: Weight) -> bool:
        return all(w[i] >= 0 for i in self.nodes)

    def weyl_dim(self, w: Weight) -> int:
        """Dimension of the irreducible Levi module with highest weight w."""
        v = self.ambient._chain_values(w)
        v[self._k] = 1  # no Levi root reads the marked value
        if min(v) <= 0:
            raise ValueError(f"weight {w} is not Levi-dominant")
        return _weyl_dim(self._chain, self._weyl_den, v)

    def ambient_weyl_dim(self, w: Weight, levi_dim: int) -> int:
        """The ambient ``weyl_dim(w)``, given ``levi_dim``, the Levi dimension
        of w.

        The Weyl product splits over Levi and radical roots, and its Levi
        part is levi_dim: a Levi root reads no marked value and pairs with
        rho as with the Levi rho.  Only the radical's factors are multiplied,
        dim G/P of them on a cominuscule node instead of every positive root.
        """
        v = self.ambient._chain_values(w)
        if min(v) <= 0:
            raise ValueError(f"weight {w} is not dominant")
        return _weyl_dim(self._radical_chain, self._radical_den, v, levi_dim)

    def radical_pairings(self, w: Weight) -> list[int]:
        """2(w, beta) for each beta in ``radical_roots``, one pass down their tree."""
        self.ambient.check_length(w)
        norms = self.ambient.simple_root_norms
        return _tree_sums(self._radical_chain, [n * x for n, x in zip(norms, w)])

    def dominant_weight_multiplicities(self, w: Weight) -> dict[Weight, int]:
        """Freudenthal multiplicities at the Levi-dominant weights of the
        Levi module V_w (full ambient coordinates)."""
        self.ambient.check_length(w)
        if not self.is_dominant(w):
            raise ValueError(f"weight {w} is not Levi-dominant")
        return self.ambient._freudenthal(w, self.nodes, self.positive_roots,
                                         self._chain)

    def dual_highest_weight(self, w: Weight) -> Weight:
        """Highest weight of the dual Levi module: the dominant representative
        of -w under the Levi Weyl group."""
        self.ambient.check_length(w)
        return self.ambient.dominant_representative(negate(w), self.nodes)

    def __repr__(self) -> str:
        return f"LeviSubsystem({self.ambient.lie_type}, node={self.node})"


# verify --max-rank 7 and the query-mix benchmark each build about 30 root
# systems; the cap keeps all of them while bounding what a sweep keeps.
ROOT_SYSTEM_CACHE_SIZE = 64


def root_system(family: str, rank: int | None = None) -> RootSystem:
    """Cached root-system factory.  Accepts ('A', 4) or 'E6' style arguments;
    a label's family letter may be lower case, as in 'e6'.  The rank is
    checked against ``MAX_AMBIENT_RANK`` before the cache is read."""
    if rank is None:
        family, rank = family[:1], family[1:]
        if not (family.isalpha() and rank.isascii() and rank.isdigit()):
            raise ValueError(f"bad root system label {family + rank!r}: expected "
                             "a family letter and a rank, such as A4 or E6")
        family, rank = family.upper(), int(rank)
    elif not isinstance(rank, int):
        raise ValueError(f"bad rank {rank!r} for root system family {family!r}: "
                         "expected an integer")
    _check_rank(rank)
    return _root_system(family, rank)


@lru_cache(maxsize=ROOT_SYSTEM_CACHE_SIZE)
def _root_system(family: str, rank: int) -> RootSystem:
    return RootSystem(LieType(family, rank))
