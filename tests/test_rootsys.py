from fractions import Fraction
from itertools import accumulate, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from cominuscule import rootsys
from cominuscule.catalog import iter_catalog_specs, nilradical_roots
from cominuscule.rootsys import (
    DecompositionError, LeviSubsystem, LieType, RootSystem, is_dominant, negate,
    root_system)
from cominuscule.twists import h0_dim

TYPES = ["A1", "A2", "A4", "B2", "B3", "C2", "C3", "C4", "D4", "D5", "E6", "E7"]

EXPECTED_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63}[r],
}


def weights(rank, lo=-4, hi=4):
    return st.tuples(*[st.integers(lo, hi)] * rank)


def test_lie_type_validation():
    with pytest.raises(ValueError):
        LieType("E", 8)
    with pytest.raises(ValueError):
        LieType("D", 2)
    with pytest.raises(ValueError):
        LieType("Z", 3)
    with pytest.raises(ValueError):
        LieType("E", 6)._replace(rank=8)
    with pytest.raises(ValueError):
        LieType._make(("D", 2))
    assert str(LieType("A", 5)) == "A5"
    assert LieType("A", 5)._replace(rank=6) == LieType("A", 6)


@pytest.mark.parametrize("rank", [4.5, 4.0, "4"])
def test_a_rank_that_is_not_an_integer_is_refused(rank):
    roots = rootsys._root_system.cache_info()
    with pytest.raises(ValueError) as err:
        root_system("A", rank)
    assert str(err.value) == (f"bad rank {rank!r} for root system family 'A': "
                              "expected an integer")
    assert rootsys._root_system.cache_info() == roots


def test_the_rank_cap_is_checked_before_the_cache(monkeypatch):
    assert rootsys.MAX_AMBIENT_RANK == 150
    roots = rootsys._root_system.cache_info()
    for make in (lambda: LieType("A", 151), lambda: root_system("A200"),
                 lambda: root_system("D", 151)):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value).endswith(
            " is above the limit MAX_AMBIENT_RANK = 150")
    assert rootsys._root_system.cache_info() == roots
    # a system already cached is refused once the cap is below its rank
    assert root_system("A", 5) is root_system("A5")
    monkeypatch.setattr(rootsys, "MAX_AMBIENT_RANK", 4)
    with pytest.raises(ValueError, match="^ambient rank 5 is above the limit "
                                         "MAX_AMBIENT_RANK = 4$"):
        root_system("A", 5)


@pytest.mark.parametrize("name", TYPES + ["A10", "B6", "C7", "D8"])
def test_positive_root_counts(name):
    rs = root_system(name)
    fam, r = rs.lie_type.family, rs.rank
    assert len(rs.positive_roots) == EXPECTED_COUNTS[fam](r)
    # every positive root has all-nonnegative simple-root coordinates
    assert all(all(c >= 0 for c in coord) for coord in rs.positive_root_coords)


def _reference_positive_roots(fam, r):
    """Simple-root coordinates of the positive roots, independently of the
    library: Bourbaki's e-basis lists for A-D (Plates I-IV), converted by
    partial sums, and for E the nonnegative vectors of squared length 2."""
    if fam == "E":
        cartan = rootsys.cartan_matrix(LieType(fam, r))
        return {c for c in product(range(5), repeat=r)
                if sum(x * sum(g * y for g, y in zip(row, c))
                       for x, row in zip(c, cartan)) == 2}
    n = r + 1 if fam == "A" else r
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    vectors = [[x - y for x, y in zip(e[i], e[j])] for i, j in combinations(range(n), 2)]
    if fam != "A":
        vectors += [[x + y for x, y in zip(e[i], e[j])]
                    for i, j in combinations(range(n), 2)]
    vectors += {"B": e, "C": [[2 * x for x in v] for v in e]}.get(fam, [])
    out = set()
    for v in vectors:
        s = list(accumulate(v))  # alpha_k = e_k - e_{k+1} below the end of the diagram
        c = s[:r]
        if fam == "C":  # alpha_r = 2 e_r
            c[r - 1] = s[r - 1] // 2
        elif fam == "D":  # alpha_{r-1} = e_{r-1} - e_r, alpha_r = e_{r-1} + e_r
            c[r - 2], c[r - 1] = (s[r - 2] - v[r - 1]) // 2, s[r - 1] // 2
        out.add(tuple(c))
    return out


@pytest.mark.parametrize("fam,r", [
    *((f, r) for f in "ABCD" for r in range(rootsys._MIN_RANK[f], 11)),
    ("E", 6), ("E", 7)])
def test_positive_roots_in_height_order(fam, r):
    rs = RootSystem(LieType(fam, r))
    ref = sorted(_reference_positive_roots(fam, r), key=lambda c: (sum(c), c))
    assert list(rs.positive_root_coords) == ref
    assert list(rs.positive_roots) == [
        tuple(sum(x * a[j] for x, a in zip(c, rs.simple_roots)) for j in range(r))
        for c in ref]


@pytest.mark.parametrize("name", TYPES)
def test_cartan_inverse_exact(name):
    rs = root_system(name)
    n = rs.rank
    for i in range(n):
        for j in range(n):
            acc = sum(Fraction(rs.cartan[i][t]) * rs.inverse_cartan[t][j]
                      for t in range(n))
            assert acc == (1 if i == j else 0)


@given(st.sampled_from(["A3", "B3", "C3", "D4", "E6"]), st.data())
@settings(max_examples=60, deadline=None)
def test_pairing_symmetric_bilinear(name, data):
    rs = root_system(name)
    a = data.draw(weights(rs.rank))
    b = data.draw(weights(rs.rank))
    c = data.draw(weights(rs.rank))
    assert rs.pairing(a, b) == rs.pairing(b, a)
    ab = tuple(x + y for x, y in zip(a, b))
    assert rs.pairing(ab, c) == rs.pairing(a, c) + rs.pairing(b, c)
    zero = (0,) * rs.rank
    assert rs.pairing(zero, c) == 0


def test_pairing_dimension_mismatch():
    rs = root_system("A3")
    with pytest.raises(ValueError):
        rs.pairing((1, 0), (0, 1, 0))


def test_pairing_symplectic_values():
    # <l_j, l_n> = j in the reference tables' normalization; the long-root
    # normalization used here is exactly half that, a global scale that
    # cancels in every downstream ratio.
    for n in (2, 3, 4, 6):
        rs = root_system("C", n)
        ln = tuple(1 if i == n - 1 else 0 for i in range(n))
        for j in range(1, n + 1):
            lj = tuple(1 if i == j - 1 else 0 for i in range(n))
            assert rs.pairing(lj, ln) == Fraction(j, 2)
        # the ratio the twist formula consumes is scale-free
        assert rs.pairing(ln, ln) == Fraction(n, 2)


def test_pairing_orthogonal_values():
    # <l_{n-1}, l_n> = (n-2)/4 and <l_n, l_n> = n/4, on the nose.
    for n in (4, 5, 6, 8):
        rs = root_system("D", n)
        ln = tuple(1 if i == n - 1 else 0 for i in range(n))
        lm = tuple(1 if i == n - 2 else 0 for i in range(n))
        assert rs.pairing(lm, ln) == Fraction(n - 2, 4)
        assert rs.pairing(ln, ln) == Fraction(n, 4)
        for j in range(1, n - 1):
            lj = tuple(1 if i == j - 1 else 0 for i in range(n))
            assert rs.pairing(lj, ln) == Fraction(j, 2)


def test_is_dominant():
    assert is_dominant((1, 0, 0))
    assert is_dominant((0, 0, 0))
    assert not is_dominant((-2, 0, 1, 0, 0, 0))


def test_weyl_dim_vector_reps():
    for n in range(2, 9):
        rs = root_system("A", n - 1)
        assert rs.weyl_dim((1,) + (0,) * (n - 2)) == n


def test_weyl_dim_known_values():
    assert root_system("D5").weyl_dim((0, 0, 0, 0, 1)) == 16  # half-spin
    e6 = root_system("E6")
    assert e6.weyl_dim((1, 0, 0, 0, 0, 0)) == 27
    assert e6.weyl_dim((0, 1, 0, 0, 0, 0)) == 78  # adjoint
    e7 = root_system("E7")
    assert e7.weyl_dim((0, 0, 0, 0, 0, 0, 1)) == 56
    assert e7.weyl_dim((1, 0, 0, 0, 0, 0, 0)) == 133


def test_weyl_dim_minuscule_orbit_cross_check():
    # minuscule weights: dimension equals the Weyl orbit size
    e6 = root_system("E6")
    lam1 = (1, 0, 0, 0, 0, 0)
    assert len(e6.weyl_orbit(lam1)) == e6.weyl_dim(lam1) == 27
    d5 = root_system("D5")
    lam5 = (0, 0, 0, 0, 1)
    assert len(d5.weyl_orbit(lam5)) == d5.weyl_dim(lam5) == 16


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        root_system("A2").weyl_dim((1, -1))


def test_weyl_dim_refuses_a_weight_of_the_wrong_length():
    # a weight of another length is refused, neither truncated to the rank
    # (this 8-tuple would read as the 56) nor indexed past its end
    e7 = root_system("E7")
    levi = LeviSubsystem(e7, 7)
    for w in ((0,) * 6 + (1, 5), (0,) * 5 + (1,)):
        for group in (e7, levi):
            with pytest.raises(ValueError, match="E7 weights have length 7$"):
                group.weyl_dim(w)
    with pytest.raises(ValueError, match="E7 weights have length 7$"):
        e7.pairing((0,) * 8, (0,) * 7)
    assert e7.weyl_dim((0,) * 6 + (1,)) == 56


def test_levi_weyl_dim_reads_every_coordinate_but_the_marked_one():
    levi = LeviSubsystem(root_system("E6"), 1)
    for marked in (-100, -1, 0, 3):
        assert levi.weyl_dim((marked, 0, 1, 0, 0, 0)) == 16
    for i in range(1, 6):
        w = tuple(-1 if j == i else 0 for j in range(6))
        with pytest.raises(ValueError, match="not Levi-dominant"):
            levi.weyl_dim(w)


def _weyl_dim_by_pairing(rs, roots, w):
    """prod <w + rho, alpha> / <rho, alpha> through the Fraction pairing,
    rho being half the sum of ``roots``."""
    two_rho = tuple(map(sum, zip(*roots)))
    num = den = Fraction(1)
    for alpha in roots:
        half = rs.pairing(two_rho, alpha) / 2
        num *= rs.pairing(w, alpha) + half
        den *= half
    return num / den


CATALOG_7 = list(iter_catalog_specs(7))
# ambient groups, then the Levi of every catalog space up to rank 7
WEYL_GROUPS = [root_system(name) for name in ("A3", "B3", "C3", "D4", "E6", "E7")
               ] + [spec.levi for spec in CATALOG_7]


@given(st.sampled_from(WEYL_GROUPS), st.data())
@settings(max_examples=150, deadline=None)
def test_weyl_dim_matches_fraction_pairing(group, data):
    rs = getattr(group, "ambient", group)
    w = list(data.draw(weights(rs.rank, 0, 4)))
    if group is not rs:  # a Levi: any marked coefficient
        w[group.node - 1] = data.draw(st.integers(-8, 8))
    w = tuple(w)
    assert group.weyl_dim(w) == _weyl_dim_by_pairing(rs, group.positive_roots, w)


@given(st.sampled_from(CATALOG_7), st.data())
@settings(max_examples=150, deadline=None)
def test_ambient_weyl_dim_from_the_levi_dimension(spec, data):
    # the radical's dim X factors times the Levi dimension give the product
    # over every positive root; a weight that is not dominant is refused
    levi = spec.levi
    assert len(levi._radical_chain) == spec.dim
    w = data.draw(weights(spec.ambient.rank, 0, 4))
    want = _weyl_dim_by_pairing(spec.ambient, spec.ambient.positive_roots, w)
    assert levi.ambient_weyl_dim(w, levi.weyl_dim(w)) == want
    k = spec.marked_node - 1
    bent = w[:k] + (-1,) + w[k + 1:]
    with pytest.raises(ValueError, match="is not dominant"):
        levi.ambient_weyl_dim(bent, levi.weyl_dim(bent))


@given(st.sampled_from(CATALOG_7), st.data())
@settings(max_examples=150, deadline=None)
def test_radical_pairings_are_the_invariant_pairing(spec, data):
    # one pass down the radical tree gives 2(w, beta) for every radical root
    levi = spec.levi
    w = data.draw(weights(spec.ambient.rank))
    assert levi.radical_pairings(w) == [
        2 * spec.ambient.pairing(w, beta) for beta in levi.radical_roots]


def test_weyl_dim_is_exact_past_int64():
    # Python integers do not wrap: the weights the former int64 guard
    # refused get exact answers
    a1 = root_system("A1")
    for w in (2 ** 62 - 2, 2 ** 62 - 1, 2 ** 63, 2 ** 100):
        assert a1.weyl_dim((w,)) == w + 1
    e7 = root_system("E7")
    w = (2 ** 60,) + (0,) * 6
    assert e7.weyl_dim(w) == _weyl_dim_by_pairing(e7, e7.positive_roots, w)
    spec = CATALOG_7[0]
    w = (0,) * (spec.ambient.rank - 1) + (2 ** 62,)
    assert spec.levi.weyl_dim(w) == _weyl_dim_by_pairing(
        spec.ambient, spec.levi.positive_roots, w)
    # a twist far past any section space of interest
    for spec in CATALOG_7:
        k = spec.marked_node - 1
        twisted = tuple(x + 2 ** 63 if i == k else x
                        for i, x in enumerate(spec.cotangent_weight))
        assert h0_dim(spec, spec.cotangent_weight, 2 ** 63) == _weyl_dim_by_pairing(
            spec.ambient, spec.ambient.positive_roots, twisted)


def _assert_unit_steps(coords, chain):
    # each root is a simple root, or a unit step from an earlier root of
    # the same set
    for n, (c, (parent, i)) in enumerate(zip(coords, chain)):
        if parent < 0:
            assert c == tuple(int(j == i) for j in range(len(c)))
        else:
            assert 0 <= parent < n
            assert c == tuple(x + (j == i) for j, x in enumerate(coords[parent]))


@pytest.mark.parametrize("fam,r", [
    *((f, r) for f in "ABCD" for r in range(rootsys._MIN_RANK[f], 11)),
    ("E", 6), ("E", 7), ("A", 40), ("D", 30)])
def test_parent_table_and_tree_gram(fam, r):
    rs = RootSystem(LieType(fam, r))
    coords = rs.positive_root_coords
    _assert_unit_steps(coords, rs._chain)
    brute = [[sum(c[a] * c[b] for c in coords) for b in range(r)] for a in range(r)]
    assert rootsys._gram(r, rs._chain) == brute


@pytest.mark.parametrize("spec", list(iter_catalog_specs(8)), ids=str)
def test_levi_and_radical_trees(spec):
    # the split at the marked node: the Levi and radical roots each form a
    # tree of their own, the radical one of dim X roots over alpha_k alone
    levi, k = spec.levi, spec.marked_node - 1
    _assert_unit_steps(levi._coords, levi._chain)
    _assert_unit_steps(levi.radical_root_coords, levi._radical_chain)
    assert len(levi.radical_roots) == spec.dim
    assert [c for c in levi.radical_root_coords if sum(c) == 1] == [
        tuple(int(j == k) for j in range(spec.ambient.rank))]
    ambient = spec.ambient
    assert nilradical_roots(spec) == [
        root for root, c in zip(ambient.positive_roots, ambient.positive_root_coords)
        if c[k] == 1]


def test_parent_table_refuses_a_missing_link():
    # alpha_1 + alpha_2 + alpha_3 of A3 without alpha_1 + alpha_2 and
    # alpha_2 + alpha_3: no parent is in the set
    with pytest.raises(DecompositionError, match=r"root \(1, 1, 1\) has no parent"):
        rootsys._parent_table([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    # a parent that comes later is no parent: height order is required
    with pytest.raises(DecompositionError, match=r"root \(1, 1\) has no parent"):
        rootsys._parent_table([(1, 1), (1, 0), (0, 1)])
    assert rootsys._parent_table([(0, 1), (1, 1)]) == ((-1, 1), (0, 0))


@pytest.mark.parametrize("name,norms", [
    ("B3", (2, 2, 2)), ("B3", (1, 1, 2)), ("C3", (2, 2, 1)), ("A3", (2, 2, 1))])
def test_wrong_norms_fail_the_casimir_check(monkeypatch, name, norms):
    monkeypatch.setattr(rootsys, "_norms", lambda lie_type: norms)
    with pytest.raises(DecompositionError, match="Casimir"):
        RootSystem(LieType(name[0], int(name[1:])))


def test_weyl_orbit_small():
    assert root_system("A1").weyl_orbit((1,)) == {(1,), (-1,)}
    assert root_system("B3").weyl_orbit((0, 0, 0)) == {(0, 0, 0)}


@given(st.sampled_from(["A2", "B2", "C3", "D4"]), st.data())
@settings(max_examples=40, deadline=None)
def test_orbit_has_unique_dominant_element(name, data):
    rs = root_system(name)
    w = data.draw(weights(rs.rank, -3, 3))
    orbit = rs.weyl_orbit(w)
    dominants = {v for v in orbit if is_dominant(v)}
    assert dominants == {rs.dominant_representative(w)}


@given(st.sampled_from(WEYL_GROUPS), st.data())
@settings(max_examples=150, deadline=None)
def test_dot_dominant_is_the_dot_action(group, data):
    # u(w + rho) - rho is the dominant point of the orbit of w + rho, less
    # rho; the weight is None exactly when w + rho pairs to zero with a root
    # of the group, and otherwise the steps are the length of u, the number
    # of positive roots on which w + rho is negative
    rs = getattr(group, "ambient", group)
    nodes = getattr(group, "nodes", None)
    w = data.draw(weights(rs.rank, -6, 6))
    y = tuple(x + 1 for x in w)
    top, steps = rs.dot_dominant(w, nodes)
    pairings = [rs.pairing(y, beta) for beta in group.positive_roots]
    if 0 in pairings:
        assert top is None
    else:
        assert top == tuple(x - 1 for x in rs.dominant_representative(y, nodes))
        assert steps == sum(x < 0 for x in pairings)
    # the shifted core reflects y in place, to the point of the same walk
    shifted = list(y)
    point, n = rs.shifted_dominant(
        shifted, tuple(range(rs.rank)) if nodes is None else nodes)
    assert n == steps
    assert point == (None if top is None else tuple(shifted))
    assert top is None or point == tuple(x + 1 for x in top)


def test_a_weyl_dimension_that_is_not_integral_names_its_fraction():
    # one root of height 1 over node 0: the value 3 over a denominator 2
    with pytest.raises(DecompositionError) as exc:
        rootsys._weyl_dim(((-1, 0),), 2, [3])
    assert str(exc.value) == "Weyl dimension 3/2 did not come out integral"


@pytest.mark.parametrize("shift, message", [
    (-32, "Freudenthal denominator at (0,) below (2,) is 0, not positive"),
    (1, "Freudenthal multiplicity at (0,) below (2,) is 34/33, "
        "not a positive integer")])
def test_a_failed_freudenthal_step_names_its_values(monkeypatch, shift, message):
    # on A1 at 2 l_1 the weight 0 has lhs = 4 h^vee (|3 l_1|^2 - |l_1|^2) = 32
    # and rhs = 4 h^vee 2(alpha, alpha) = 2 x 16; the patch moves each
    # scaled pairing by the shift
    real = RootSystem._pair_scaled
    monkeypatch.setattr(RootSystem, "_pair_scaled",
                        lambda self, a, b: real(self, a, b) + shift)
    with pytest.raises(DecompositionError) as exc:
        RootSystem(LieType("A", 1)).dominant_weight_multiplicities((2,))
    assert str(exc.value) == message


def test_weight_system_trivial():
    assert root_system("A2").weight_system((0, 0)) == {(0, 0): 1}


def test_weight_system_adjoint_a2():
    # independent construction: the adjoint multiset is all roots with
    # multiplicity one plus the zero weight with multiplicity rank
    rs = root_system("A2")
    expected = {r: 1 for r in rs.positive_roots}
    expected.update({negate(r): 1 for r in rs.positive_roots})
    expected[(0, 0)] = 2
    assert rs.weight_system((1, 1)) == expected


def test_weight_system_c2_five_dim():
    # independent construction: Wedge^2 of the 4-dim symplectic rep minus
    # the invariant trace line
    rs = root_system("C2")
    four = sorted(rs.weyl_orbit((1, 0)))
    wedge: dict = {}
    for a, b in combinations(four, 2):
        s = tuple(x + y for x, y in zip(a, b))
        wedge[s] = wedge.get(s, 0) + 1
    wedge[(0, 0)] -= 1
    wedge = {k: v for k, v in wedge.items() if v}
    assert rs.weight_system((0, 1)) == wedge
    assert rs.weyl_dim((0, 1)) == 5


@pytest.mark.parametrize("name,w", [
    ("A2", (2, 1)),
    ("A3", (1, 0, 2)),
    ("B3", (1, 1, 0)),
    ("B3", (0, 0, 2)),
    ("C3", (1, 0, 1)),
    ("D4", (0, 1, 0, 1)),
    ("D5", (0, 0, 0, 1, 1)),
    ("E6", (1, 0, 0, 0, 0, 1)),
    ("E7", (0, 0, 0, 0, 0, 1, 1)),
])
def test_weight_system_total_is_weyl_dim(name, w):
    rs = root_system(name)
    system = rs.weight_system(w)
    assert sum(system.values()) == rs.weyl_dim(w)


@pytest.mark.parametrize("name,w", [
    ("B3", (1, 1, 0)),
    ("C3", (2, 0, 1)),
    ("D4", (1, 0, 1, 1)),
])
def test_weight_system_reflection_invariant(name, w):
    rs = root_system(name)
    system = rs.weight_system(w)
    for i in range(rs.rank):
        reflected = {rs.reflect(v, i): m for v, m in system.items()}
        assert reflected == system


def test_freudenthal_agrees_with_orbit_expansion():
    # dominant multiplicities times orbit sizes must add up to the dimension
    for name, w in [("B3", (0, 2, 0)), ("C4", (1, 0, 0, 1)), ("E6", (0, 0, 0, 0, 0, 2))]:
        rs = root_system(name)
        mults = rs.dominant_weight_multiplicities(w)
        total = sum(m * len(rs.weyl_orbit(v)) for v, m in mults.items())
        assert total == rs.weyl_dim(w)


def test_levi_subsystem_half_spin():
    # removing node 1 from E6 leaves a D5 acting on the cotangent fiber
    from cominuscule.rootsys import LeviSubsystem
    e6 = root_system("E6")
    levi = LeviSubsystem(e6, 1)
    assert len(levi.positive_roots) == 20  # D5
    assert levi.weyl_dim((-2, 0, 1, 0, 0, 0)) == 16
    assert levi.is_dominant((-2, 0, 1, 0, 0, 0))
    assert not levi.is_dominant((0, -1, 0, 0, 0, 0))


def test_levi_dual_highest_weight():
    from cominuscule.rootsys import LeviSubsystem
    e7 = root_system("E7")
    levi = LeviSubsystem(e7, 7)
    # the 27-dim Levi module and its dual swap the two end fundamentals
    w = levi.dual_highest_weight((0, 0, 0, 0, 0, 1, -2))
    assert tuple(w[:6]) == (1, 0, 0, 0, 0, 0)


def test_dump_is_json_ready():
    import json
    dump = root_system("E6").dump()
    json.dumps(dump)
    assert dump["positive_root_count"] == 36
    assert dump["node_numbering"] == "Bourbaki"


def test_levi_refuses_a_node_out_of_range():
    with pytest.raises(ValueError, match="^node 0 out of range for A3$"):
        LeviSubsystem(root_system("A", 3), 0)


def test_freudenthal_refuses_a_weight_that_is_not_dominant():
    a3 = root_system("A", 3)
    with pytest.raises(ValueError, match=r"^weight \(1, -1, 0\) is not dominant$"):
        a3.dominant_weight_multiplicities((1, -1, 0))
    # the marked coordinate may be negative, any other may not
    levi = LeviSubsystem(a3, 2)
    assert levi.dominant_weight_multiplicities((0, -3, 0))
    with pytest.raises(ValueError,
                       match=r"^weight \(0, 2, -1\) is not Levi-dominant$"):
        levi.dominant_weight_multiplicities((0, 2, -1))


_A3 = root_system("A3")
_A3_LEVI = LeviSubsystem(_A3, 2)


@pytest.mark.parametrize("entry", [
    _A3.dominant_weight_multiplicities, _A3_LEVI.dominant_weight_multiplicities,
    _A3.weight_system, _A3.weyl_orbit, _A3.dominant_representative,
    _A3.dot_dominant, _A3_LEVI.dual_highest_weight, _A3_LEVI.radical_pairings],
    ids=["dominant_weight_multiplicities", "levi_dominant_weight_multiplicities",
         "weight_system", "weyl_orbit", "dominant_representative", "dot_dominant",
         "levi_dual_highest_weight", "levi_radical_pairings"])
@pytest.mark.parametrize("w", [(1, 0), (1, 0, 0, 0)], ids=["short", "long"])
def test_weight_entry_points_refuse_a_wrong_length(entry, w):
    message = f"weight {w} has length {len(w)}; A3 weights have length 3"
    with pytest.raises(ValueError) as exc:
        entry(w)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "C2", "C3", "C4", "D4"])
def test_freudenthal_candidates_are_the_dominant_weights_below(name):
    # reference without a walk: every nu = lam - sum c_i alpha_i with c_i
    # at most lam's simple-root coordinate, kept when dominant
    rs = root_system(name)
    two_h = 2 * rs.dual_coxeter
    for lam in product(range(4), repeat=rs.rank):
        if sum(lam) > 3:
            continue
        top = [sum(g * x for g, x in zip(row, lam)) // two_h
               for row in rs.scaled_inverse_cartan]
        expected = set()
        for c in product(*(range(t + 1) for t in top)):
            nu = tuple(x - sum(ci * a[j] for ci, a in zip(c, rs.simple_roots))
                       for j, x in enumerate(lam))
            if is_dominant(nu):
                expected.add(nu)
        assert set(rs.dominant_weight_multiplicities(lam)) == expected, lam
