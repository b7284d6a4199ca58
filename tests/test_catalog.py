import pytest

from cominuscule import catalog, rootsys
from cominuscule.catalog import (
    cayley,
    catalog_params,
    check_table1,
    freudenthal,
    grassmannian,
    iter_catalog_specs,
    lagrangian,
    make_spec,
    parse_space,
    quadric,
    spinor,
)
from cominuscule.rootsys import DecompositionError, root_system


def test_cayley_derived_data():
    s = cayley()
    assert (s.dim, s.index_c1) == (16, 12)
    assert s.cotangent_weight == (-2, 0, 1, 0, 0, 0)
    assert s.marked_node == 1
    assert str(s.ambient.lie_type) == "E6"


def test_freudenthal_derived_data():
    s = freudenthal()
    assert (s.dim, s.index_c1) == (27, 18)
    assert s.cotangent_weight == (0, 0, 0, 0, 0, 1, -2)
    assert s.marked_node == 7


def test_small_isomorphic_presentations_stay_distinct():
    # IG(2,4) and the 3-dim quadric agree numerically but are separate specs
    ig2, q3 = lagrangian(2), quadric(3)
    assert (ig2.dim, ig2.index_c1) == (3, 3) == (q3.dim, q3.index_c1)
    assert ig2.name != q3.name
    og4, q6 = spinor(4), quadric(6)
    assert (og4.dim, og4.index_c1) == (6, 6) == (q6.dim, q6.index_c1)


def test_make_spec_dispatch_and_errors():
    assert make_spec("grassmannian", 2, 5).name == "G:2:5"
    assert make_spec("lagrangian", 4).name == "IG:4"
    with pytest.raises(ValueError):
        make_spec("unknown", 1)
    with pytest.raises(ValueError):
        lagrangian(1)
    with pytest.raises(ValueError):
        quadric(2)
    with pytest.raises(ValueError):
        grassmannian(5, 5)


def test_nilradical_counts():
    assert len(grassmannian(1, 7).levi.radical_roots) == 6
    assert len(cayley().levi.radical_roots) == 16
    assert len(spinor(5).levi.radical_roots) == 10
    for spec in iter_catalog_specs(6):
        assert len(spec.levi.radical_roots) == spec.dim


def test_a_node_that_is_not_cominuscule_is_refused_at_build_time():
    # node 2 of E6 has coefficient 2 in the highest root
    with pytest.raises(DecompositionError, match="E6:2: node 2 is not cominuscule"):
        catalog._build("cayley", (), "E6:2", root_system("E6"), 2)


@pytest.mark.parametrize("max_rank", [8])
def test_nilradical_sum_is_index_times_fundamental(max_rank):
    for spec in iter_catalog_specs(max_rank):
        total = [0] * spec.ambient.rank
        for root in spec.levi.radical_roots:
            for i, x in enumerate(root):
                total[i] += x
        expected = [0] * spec.ambient.rank
        expected[spec.marked_node - 1] = spec.index_c1
        assert total == expected, spec.name


def test_cotangent_weight_is_negated_minimal_nilradical_root():
    for spec in iter_catalog_specs(6):
        roots = spec.levi.radical_roots
        rs = spec.ambient
        height = {r: sum(c) for r, c in zip(rs.positive_roots,
                                            rs.positive_root_coords)}
        heights = [height[r] for r in roots]
        lowest = roots[heights.index(min(heights))]
        assert spec.cotangent_weight == tuple(-x for x in lowest)
        assert spec.levi.is_dominant(spec.cotangent_weight)


def test_cotangent_levi_orbit_structure():
    # minuscule fiber (ordinary, spinor, exceptional): one Levi orbit of full
    # size; quadrics are quasi-minuscule (one short orbit plus a leftover);
    # the symplectic fiber S^2 Q-dual splits into a long and a short orbit
    for spec in [grassmannian(2, 6), spinor(5), cayley(), freudenthal(),
                 quadric(6), quadric(8)]:
        orbit = spec.ambient.weyl_orbit(spec.cotangent_weight, spec.levi.nodes)
        assert len(orbit) == spec.dim, spec.name
    for spec in [quadric(5), quadric(7)]:  # odd: a zero Levi weight remains
        orbit = spec.ambient.weyl_orbit(spec.cotangent_weight, spec.levi.nodes)
        assert len(orbit) == spec.dim - 1, spec.name
    for n in (3, 4, 6):
        spec = lagrangian(n)
        orbit = spec.ambient.weyl_orbit(spec.cotangent_weight, spec.levi.nodes)
        assert len(orbit) == n  # the doubled-coordinate orbit of S^2


def test_check_table1_all_match():
    for spec in iter_catalog_specs(7):
        record = check_table1(spec)
        assert record.matches, (spec.name, record)


def test_check_table1_values_and_notes():
    rec = check_table1(grassmannian(2, 5))
    assert rec.expected["dim"] == 6 and rec.expected["c1"] == 5
    assert any("dim V" in note for note in rec.notes)
    rec = check_table1(quadric(6))  # D-type, rank 4: dim = c1 = 2r - 2 = 6
    assert rec.expected == {"dim": 6, "c1": 6}
    rec = check_table1(lagrangian(2))
    assert rec.expected == {"dim": 3, "c1": 3}
    # the fields in the order ``catalog show`` prints them
    assert list(rec._fields) == [
        "matches", "computed", "expected", "notes"]


def test_parse_space_grammar():
    assert parse_space("IG:4").family == "lagrangian"
    assert parse_space("G:3:9").params == (3, 9)
    assert parse_space("Q:7").family == "quadric_odd"
    assert parse_space("Q:8").family == "quadric_even"
    assert parse_space("e6").name == "E6"
    assert parse_space("OG:5").name == "OG:5"


@pytest.mark.parametrize("bad", ["G:0:5", "G:5", "Q:2", "IG:1", "X:3", "E8", "G:2:x",
                                 "G:2:5:", "E6:1", "Q", "IG:1_0", "Q:+3", "G: 2:5",
                                 "G:\u0663:5", "G:-1:5"])
def test_parse_space_diagnostics(bad):
    # refused on every call: no failure is cached
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            parse_space(bad)
        assert bad.split(":")[0] in str(err.value) or bad in str(err.value)


def test_parse_space_refuses_an_ambient_rank_above_the_limit():
    # refused before any root system or spec is built
    assert rootsys.MAX_AMBIENT_RANK == 150
    roots, specs = rootsys._root_system.cache_info(), catalog._build.cache_info()
    for text, rank in (("G:2:1000", 999), ("G:2:152", 151), ("Q:300", 151),
                       ("Q:301", 151), ("IG:151", 151), ("OG:151", 151),
                       ("G:1:" + "9" * 30, 10 ** 30 - 2)):
        with pytest.raises(ValueError) as err:
            parse_space(text)
        assert str(err.value) == (f"bad space {text!r}: ambient rank {rank} is "
                                  "above the limit MAX_AMBIENT_RANK = 150")
    assert rootsys._root_system.cache_info() == roots
    assert catalog._build.cache_info() == specs


def test_the_grammar_limit_is_the_ambient_rank_of_each_form(monkeypatch):
    monkeypatch.setattr(rootsys, "MAX_AMBIENT_RANK", 5)
    for at, above in (("G:2:6", "G:2:7"), ("Q:9", "Q:11"), ("Q:8", "Q:10"),
                      ("IG:5", "IG:6"), ("OG:5", "OG:6")):
        assert parse_space(at).ambient.rank == 5
        with pytest.raises(ValueError, match="ambient rank 6 is above"):
            parse_space(above)


def test_the_library_constructors_are_capped():
    # the cap sits where root systems are built, so the constructors refuse
    # what the grammar refuses, with nothing built or cached
    roots, specs = rootsys._root_system.cache_info(), catalog._build.cache_info()
    for make, rank in ((lambda: grassmannian(2, 1000), 999),
                       (lambda: quadric(300), 151), (lambda: quadric(301), 151),
                       (lambda: lagrangian(151), 151), (lambda: spinor(151), 151),
                       (lambda: make_spec("grassmannian", 1, 152), 151)):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == (f"ambient rank {rank} is above the limit "
                                  "MAX_AMBIENT_RANK = 150")
    assert rootsys._root_system.cache_info() == roots
    assert catalog._build.cache_info() == specs
    # with two faults the constructor's own check speaks first
    with pytest.raises(ValueError) as err:
        parse_space("G:0:1000")
    assert str(err.value) == ("bad space 'G:0:1000': G(0,1000): need "
                              "1 <= k <= n-1, n >= 2")


def test_the_named_large_spaces_are_within_the_limit(monkeypatch):
    # Q:120, Q:200 and G:2:150 reach their constructors (stubbed here, so
    # nothing is built)
    asked = []
    for name in ("grassmannian", "quadric"):
        monkeypatch.setattr(catalog, name, lambda *a, name=name: asked.append((name, a)))
    for text in ("Q:120", "Q:200", "G:2:150"):
        parse_space(text)
    assert asked == [("quadric", (120,)), ("quadric", (200,)),
                     ("grassmannian", (2, 150))]


def test_catalog_params_list_the_catalog_in_order():
    params = catalog_params(8)
    assert tuple(params) == catalog.FAMILIES
    assert [(s.family, s.params) for s in iter_catalog_specs(8)] == [
        (family, args) for family, rows in params.items() for args in rows]
    assert sum(map(len, params.values())) == 48
    assert catalog_params(5)["cayley"] == catalog_params(6)["freudenthal"] == []


def test_catalog_params_take_the_rank_cap_and_refuse_beyond_it():
    params = catalog_params(rootsys.MAX_AMBIENT_RANK)
    assert params["grassmannian"][-1] == (75, 151) and params["spinor"][-1] == (150,)
    with pytest.raises(ValueError, match="^ambient rank 151 is above the limit "
                                         "MAX_AMBIENT_RANK = 150$"):
        catalog_params(rootsys.MAX_AMBIENT_RANK + 1)


def test_make_spec_refuses_a_quadric_of_the_other_parity():
    for family, m, built in (("quadric_even", 7, "quadric_odd"),
                             ("quadric_odd", 8, "quadric_even")):
        with pytest.raises(ValueError) as err:
            make_spec(family, m)
        assert str(err.value) == (f"family {family!r} asked for, but Q:{m} is "
                                  f"of family {built!r}")
    assert make_spec("quadric_even", 8) is quadric(8)


def test_make_spec_refuses_a_wrong_count_or_type():
    for args, form in ((("cayley", 3), "E6"), (("grassmannian", 2), "G:k:n"),
                       (("grassmannian", 2, 5, 1), "G:k:n"),
                       (("lagrangian", "4"), "IG:n")):
        with pytest.raises(ValueError) as err:
            make_spec(*args)
        assert str(err.value) == (f"family {args[0]!r} expects the form {form}, "
                                  f"got the parameters {args[1:]!r}")


def test_make_spec_and_parse_space_reach_a_rebound_constructor(monkeypatch):
    # each constructor is looked up when called, not bound at import
    asked = []
    for name in ("grassmannian", "cayley"):
        real = getattr(catalog, name)
        monkeypatch.setattr(catalog, name, lambda *a, real=real, name=name:
                            asked.append((name, a)) or real(*a))
    assert make_spec("grassmannian", 2, 5) is parse_space("G:2:5")
    assert make_spec("cayley") is parse_space("E6")
    assert asked == [("grassmannian", (2, 5))] * 2 + [("cayley", ())] * 2


def test_make_spec_names_the_families_in_catalog_order():
    with pytest.raises(ValueError) as exc:
        make_spec("torus")
    assert str(exc.value) == (
        "unknown family 'torus'; expected one of ('grassmannian', 'quadric_odd', "
        "'quadric_even', 'lagrangian', 'spinor', 'cayley', 'freudenthal')")


def test_iter_catalog_is_deterministic_and_rank_bounded():
    first = [s.name for s in iter_catalog_specs(5)]
    second = [s.name for s in iter_catalog_specs(5)]
    assert first == second
    assert "E6" not in first
    assert "E6" in [s.name for s in iter_catalog_specs(6)]
    assert "E7" in [s.name for s in iter_catalog_specs(7)]
    for s in iter_catalog_specs(5):
        assert s.ambient.rank <= 5
    with pytest.raises(ValueError):
        list(iter_catalog_specs(1))


def test_each_space_is_built_once():
    assert parse_space("G:2:5") is grassmannian(2, 5)
    assert make_spec("grassmannian", 2, 5) is grassmannian(2, 5)
    assert parse_space("Q:7") is quadric(7) is make_spec("quadric_odd", 7)
    assert parse_space("IG:4") is lagrangian(4)
    assert parse_space("OG:5") is spinor(5)
    assert parse_space("e6") is cayley()
    assert parse_space(" g:2:5 ") is grassmannian(2, 5)
    assert parse_space("Q:07") is quadric(7)
    assert parse_space("E7") is freudenthal()


def test_spec_cache_stays_within_its_cap():
    cache = catalog._build
    assert cache.cache_info().maxsize == catalog.SPEC_CACHE_SIZE == 256
    cache.cache_clear()
    built = 0
    n = 1
    while built <= catalog.SPEC_CACHE_SIZE:
        n += 1
        for k in range(1, n):
            grassmannian(k, n)
            built += 1
    assert cache.cache_info().currsize == catalog.SPEC_CACHE_SIZE
    cache.cache_clear()


def test_parse_space_refuses_a_constructor_out_of_range():
    with pytest.raises(ValueError, match="^bad space 'OG:2': OG:2: need n >= 3$"):
        parse_space("OG:2")
