from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cominuscule import rootsys
from cominuscule.catalog import iter_catalog_specs
from cominuscule.rootsys import (
    LieType, RootSystem, is_dominant, negate, root_system)
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
    assert str(LieType("A", 5)) == "A5"


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
        cartan = np.asarray(rootsys.cartan_matrix(LieType(fam, r)))
        grid = np.asarray(list(product(range(5), repeat=r)))
        norm2 = np.einsum("ni,ij,nj->n", grid, cartan, grid)
        return {tuple(c) for c in grid[norm2 == 2].tolist()}
    n = r + 1 if fam == "A" else r
    e = np.eye(n, dtype=int)
    vectors = [e[i] - e[j] for i, j in combinations(range(n), 2)]
    if fam != "A":
        vectors += [e[i] + e[j] for i, j in combinations(range(n), 2)]
    vectors += {"B": list(e), "C": list(2 * e)}.get(fam, [])
    out = set()
    for v in vectors:
        s = np.cumsum(v)  # alpha_k = e_k - e_{k+1} below the end of the diagram
        c = list(s[:r])
        if fam == "C":  # alpha_r = 2 e_r
            c[r - 1] = s[r - 1] // 2
        elif fam == "D":  # alpha_{r-1} = e_{r-1} - e_r, alpha_r = e_{r-1} + e_r
            c[r - 2], c[r - 1] = (s[r - 2] - v[r - 1]) // 2, s[r - 1] // 2
        out.add(tuple(int(x) for x in c))
    return out


@pytest.mark.parametrize("fam,r", [
    *((f, r) for f in "ABCD" for r in range(rootsys._MIN_RANK[f], 11)),
    ("E", 6), ("E", 7)])
def test_positive_roots_in_height_order(fam, r):
    rs = RootSystem(LieType(fam, r))
    ref = sorted(_reference_positive_roots(fam, r), key=lambda c: (sum(c), c))
    assert list(rs.positive_root_coords) == ref
    cols = np.asarray(rs.simple_roots)
    assert [list(w) for w in rs.positive_roots] == (np.asarray(ref) @ cols).tolist()


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


def test_weyl_dim_refuses_int64_overflow():
    # A1: 2<w + rho, alpha> = 2(w + 1) must stay below 2^63
    a1 = root_system("A1")
    assert a1.weyl_dim((2 ** 62 - 2,)) == 2 ** 62 - 1
    with pytest.raises(ValueError, match="too large"):
        a1.weyl_dim((2 ** 62 - 1,))
    e7 = root_system("E7")
    with pytest.raises(ValueError, match="too large"):
        e7.weyl_dim((2 ** 60,) + (0,) * 6)
    spec = CATALOG_7[0]
    with pytest.raises(ValueError, match="too large"):
        spec.levi.weyl_dim((0,) * (spec.ambient.rank - 1) + (2 ** 62,))
    # a twist far past any section space of interest
    for spec in CATALOG_7:
        with pytest.raises(ValueError, match="too large"):
            h0_dim(spec, spec.cotangent_weight, 2 ** 63)


@pytest.mark.parametrize("name,norms", [
    ("B3", (2, 2, 2)), ("B3", (1, 1, 2)), ("C3", (2, 2, 1)), ("A3", (2, 2, 1))])
def test_wrong_norms_fail_the_casimir_check(monkeypatch, name, norms):
    monkeypatch.setattr(rootsys, "_norms", lambda lie_type: norms)
    with pytest.raises(AssertionError, match="Casimir"):
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
