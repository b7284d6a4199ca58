from collections import Counter
from functools import lru_cache
from itertools import combinations, zip_longest
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cominuscule import plethysm
from cominuscule.catalog import (
    FAMILIES,
    cayley,
    freudenthal,
    grassmannian,
    iter_catalog_specs,
    lagrangian,
    quadric,
    spinor,
)
from cominuscule.plethysm import (
    DecompositionError,
    WeightMultiset,
    cauchy_decompose,
    decompose,
    hooks_decompose,
    omega_decompose,
    omega_p_weights,
    twist_via_lemma,
)
from cominuscule.rootsys import LeviSubsystem, RootSystem, negate


def test_omega_weights_grade_zero_and_top():
    spec = cayley()
    assert omega_p_weights(spec, 0).entries == {(0,) * 6: 1}
    top = omega_p_weights(spec, 16).entries
    assert top == {(-12, 0, 0, 0, 0, 0): 1}  # canonical bundle weight


def test_omega_weights_grade_one_cayley():
    ws = omega_p_weights(cayley(), 1)
    entries = ws.entries
    assert len(entries) == 16 and set(entries.values()) == {1}
    assert entries[(-2, 0, 1, 0, 0, 0)] == 1


@pytest.mark.parametrize("spec,ps", [
    (grassmannian(2, 5), range(7)),
    (lagrangian(3), range(7)),
    (quadric(5), range(6)),
])
def test_total_multiplicity_is_binomial(spec, ps):
    for p in ps:
        assert omega_p_weights(spec, p).total() == comb(spec.dim, p)


def test_omega_weights_out_of_range():
    with pytest.raises(ValueError):
        omega_p_weights(quadric(4), 7)


@pytest.mark.parametrize("spec", [grassmannian(2, 4), lagrangian(3), quadric(5)])
def test_multiset_levi_invariance(spec):
    rs = spec.ambient
    for p in (1, 2, 3):
        entries = omega_p_weights(spec, p).entries
        for i in spec.levi.nodes:
            reflected = {rs.reflect(w, i): m for w, m in entries.items()}
            assert reflected == entries


def test_decompose_p1_is_cotangent_everywhere():
    for spec in [grassmannian(3, 7), lagrangian(4), spinor(5), quadric(7),
                 quadric(8), cayley(), freudenthal()]:
        report = omega_decompose(spec, 1)
        assert len(report.summands) == 1
        assert report.summands[0].highest_weight == spec.cotangent_weight
        assert report.summands[0].levi_dim == spec.dim


def test_cayley_decompositions_match_reference_rows():
    spec = cayley()
    assert omega_decompose(spec, 4).weights() == (
        (-5, 2, 0, 0, 0, 1), (-5, 0, 0, 0, 2, 0))
    assert omega_decompose(spec, 8).weights() == (
        (-8, 0, 0, 0, 0, 4), (-9, 1, 1, 0, 0, 2), (-9, 0, 0, 2, 0, 0))


def test_freudenthal_row_nine():
    spec = freudenthal()
    weights = omega_decompose(spec, 9).weights()
    assert (4, 0, 0, 0, 0, 1, -10) in weights
    assert len(weights) == 3


def _dominant_entries(ws, levi):
    """Entries of a weight multiset whose weight is Levi-dominant; with
    Levi-Weyl symmetry they determine the whole multiset."""
    return {w: c for w, c in ws.entries.items() if levi.is_dominant(w)}


def test_decompose_rejects_inconsistent_multiset():
    # the dominant entries alone, with the count of a non-maximal one
    # lowered: not a Levi-Weyl-invariant multiset
    spec = quadric(5)
    entries = _dominant_entries(omega_p_weights(spec, 2), spec.levi)
    assert len(entries) >= 2
    # height: the sum of the simple-root coordinates C^{-1} w
    inv = spec.ambient.inverse_cartan
    rho = max(entries, key=lambda w: (
        sum(x * y for row in inv for x, y in zip(row, w)), w))
    victim = next(w for w in entries if w != rho)
    entries[victim] -= 1
    ws = WeightMultiset.from_entries(2, {w: c for w, c in entries.items() if c})
    with pytest.raises(DecompositionError):
        decompose(ws, spec)
    # the full multiset with one non-dominant count lowered: its dominant
    # entries are intact, so only the Levi-Weyl symmetry shows the damage
    entries = omega_p_weights(spec, 2).entries
    victim = (-3, 2, -2)
    assert not spec.levi.is_dominant(victim) and entries[victim] == 1
    entries[victim] -= 1
    ws = WeightMultiset.from_entries(2, {w: c for w, c in entries.items() if c})
    with pytest.raises(DecompositionError, match="not invariant"):
        decompose(ws, spec)


def test_from_entries_keeps_weights_and_counts_exact():
    # a multiset holds Python integers: a count of 2^63 and a weight
    # coordinate outside int16 stay exact, and no fixed width applies
    entries = {(0,) * 6: 2 ** 63, (40000, 0, 0, 0, 0, 0): 1,
               (-2 ** 15 - 1, 0, 0, 0, 0, 0): 3}
    ws = WeightMultiset.from_entries(1, entries)
    assert ws.entries == entries
    assert ws.total() == 2 ** 63 + 4 and len(ws) == 3
    # both the multiset and its entries are copies
    entries[(0,) * 6] = 1
    ws.entries[(0,) * 6] = 2
    assert ws.entries[(0,) * 6] == 2 ** 63


def test_cauchy_matches_dp_small():
    fast = omega_decompose(grassmannian(2, 4), 2)
    dp = omega_decompose(grassmannian(2, 4), 2, method="WeightDP")
    assert fast.weights() == dp.weights()
    assert len(fast.summands) == 2
    mus = [mu for mu, _ in cauchy_decompose(2, 4, 2)]
    assert set(mus) == {(2,), (1, 1)}


def test_cauchy_projective_space_is_single_summand():
    for n in (3, 5, 9):
        for p in range(1, n):
            out = cauchy_decompose(1, n, p)
            assert len(out) == 1
            assert out[0][0] == (p,)


def test_cauchy_g36_contains_square_partition():
    mus = [mu for mu, _ in cauchy_decompose(3, 6, 9)]
    assert (3, 3, 3) in mus


def test_cauchy_weight_recipe_pinned_at_p1():
    # the e-basis recipe must reproduce l_{k-1} - 2 l_k + l_{k+1}
    for k, n in [(1, 4), (2, 5), (3, 7)]:
        (mu, s), = cauchy_decompose(k, n, 1)
        assert mu == (1,)
        assert s.highest_weight == grassmannian(k, n).cotangent_weight


def test_hooks_lagrangian_weights():
    spec = lagrangian(4)
    (mu, s), = hooks_decompose(spec, 1)
    assert mu == (2,)
    assert s.highest_weight == (0, 0, 2, -2)
    # the a = 2 rectangle on IG(3,6)
    out = hooks_decompose(lagrangian(3), 3)
    by_mu = {mu: s for mu, s in out}
    assert by_mu[(3, 3)].highest_weight == (3, 0, -3)


def test_hooks_spinor_weights():
    spec = spinor(5)
    (mu, s), = hooks_decompose(spec, 1)
    assert mu == (1, 1)
    assert s.highest_weight == (0, 0, 1, 0, -2)


def test_hooks_rejects_wrong_family():
    with pytest.raises(ValueError):
        hooks_decompose(quadric(5), 2)


def test_hooks_refuse_a_space_without_parameters():
    with pytest.raises(ValueError, match="^E6: hook decomposition needs IG:n or OG:n$"):
        hooks_decompose(cayley(), 1)
    # the fast paths are reached only through method="auto", which picks
    # the right one for the family
    for spec, p, method in [(quadric(5), 2, "CauchyA"), (spinor(5), 3, "HooksC"),
                            (grassmannian(2, 5), 2, "HooksD"),
                            (grassmannian(2, 5), 2, "Cauchy")]:
        with pytest.raises(ValueError):
            omega_decompose(spec, p, method=method)


def test_twist_lemma_values():
    spec = lagrangian(4)
    for mu, s in hooks_decompose(spec, 4):
        levi_part = tuple(0 if i == 3 else x for i, x in enumerate(s.highest_weight))
        assert twist_via_lemma(spec, levi_part, 4) == -mu[0]
    spec = spinor(5)
    for mu, s in hooks_decompose(spec, 4):
        levi_part = tuple(0 if i == 4 else x for i, x in enumerate(s.highest_weight))
        mu2 = mu[1] if len(mu) > 1 else 0
        assert twist_via_lemma(spec, levi_part, 4) == -(mu[0] + mu2)
    assert twist_via_lemma(cayley(), (0,) * 6, 0) == 0


def test_twist_lemma_rejects_marked_coordinate():
    with pytest.raises(ValueError):
        twist_via_lemma(cayley(), (-1, 0, 0, 0, 0, 0), 1)


@pytest.mark.parametrize("weight, message", [
    # the marked coordinate of the summand (3, -4, 0, 0) of grade 3, off by one
    ((3, -3, 0, 0), "G:2:5, p=3: twist -3 of (3, -3, 0, 0) disagrees with "
                    "slope identity value -4"),
    # a Levi coordinate off by one: row 2 of the scaled inverse Cartan
    # matrix is (6, 12, 8, 4), so the numerator moves by 6, not a multiple
    # of 12
    ((4, -4, 0, 0), "G:2:5: twist coefficient -54/12 is not an integer"),
])
def test_make_summand_refuses_a_weight_off_the_slope_identity(weight, message):
    with pytest.raises(DecompositionError) as exc:
        plethysm._make_summand(grassmannian(2, 5), weight, 3)
    assert str(exc.value) == message


def test_the_slope_dot_product_agrees_with_the_lemma_up_to_rank_7(cold_answers):
    # on every summand of every route of every catalog space up to rank 7,
    # the summand's one-dot-product check accepted what the lemma computes,
    # and it refuses, as the lemma does, the marked coordinate moved by one
    for spec in iter_catalog_specs(7):
        k = spec.marked_node - 1
        for p in range(spec.dim + 1):
            answers = [plethysm._route_summands(spec, p),
                       plethysm._kostant_summands(spec, p),
                       plethysm._engine_levels(spec)[p]]
            weights = {s.highest_weight: s.twist_check
                       for answer in answers for s in answer}
            for w, twist in weights.items():
                levi_part = tuple(0 if i == k else x for i, x in enumerate(w))
                assert twist_via_lemma(spec, levi_part, p) == twist == w[k]
                moved = (*w[:k], w[k] + 1, *w[k + 1:])
                with pytest.raises(DecompositionError, match="disagrees"):
                    plethysm._make_summand(spec, moved, p)


@pytest.mark.parametrize("spec", [
    grassmannian(2, 6), grassmannian(3, 7), lagrangian(4), spinor(5),
    lagrangian(8), spinor(10),
])
def test_path_agreement_moderate(spec):
    for p in range(0, spec.dim + 1):
        fast = omega_decompose(spec, p)
        dp = omega_decompose(spec, p, method="WeightDP")
        assert fast.weights() == dp.weights(), (spec.name, p)
        assert [s.levi_dim for s in fast.summands] == \
            [s.levi_dim for s in dp.summands]


def test_rank_identity_cayley_all_grades():
    spec = cayley()
    for p in range(17):
        expected, got = omega_decompose(spec, p).rank_identity()
        assert expected == got == comb(16, p)


@lru_cache(maxsize=None)
def _reference_tables(spec):
    """The weight multisets of every grade of a space, from one knapsack."""
    return plethysm._weight_tables(spec, spec.dim)


def _direct(spec, p):
    """Grade p by the per-grade reference: subset sums, then Klimyk."""
    return tuple(decompose(WeightMultiset(p, _reference_tables(spec)[p]), spec))


def test_duality_shortcut_matches_direct_dp():
    # grades above dim // 2 are derived by duality on every engine space;
    # recompute them directly from the weight multiset and compare (E7's
    # grade 14 is the dual of grade 13 in the middle of its odd dimension)
    cases = [(freudenthal(), [14, 20])]
    for spec in [cayley(), quadric(12), quadric(13), grassmannian(3, 7),
                 lagrangian(4), spinor(5)]:
        cases.append((spec, range(spec.dim // 2 + 1, spec.dim + 1)))
    for spec, grades in cases:
        for p in grades:
            via_duality = omega_decompose(spec, p, method="WeightDP")
            assert via_duality.summands == _direct(spec, p), (spec.name, p)


def test_engine_pass_equals_the_per_grade_path(cold_answers):
    # the Newton grades of one engine pass against one subset sum and one
    # Klimyk pass per grade, on every grade the pass computes directly
    specs = [s for s in iter_catalog_specs(7) if s.dim <= 27]
    assert len(specs) == 39
    for spec in specs:
        levels = plethysm._engine_levels(spec)
        for p in range(spec.dim // 2 + 1):
            assert levels[p] == _direct(spec, p), (spec.name, p)


def test_engine_stops_at_half_the_dimension(engine_horizons, cold_answers):
    # every grade of an engine space is answered from one pass of Newton
    # grades that reaches grade dim // 2 and no further
    for spec in (quadric(5), quadric(6), lagrangian(3)):
        for p in range(spec.dim + 1):
            omega_decompose(spec, p, method="WeightDP")
        assert engine_horizons.pop(spec.name) == [spec.dim // 2], spec.name


def test_engine_weights_match_brute_force():
    # every sum of p distinct negated radical roots, counted directly;
    # grades above dim // 2 are the complements of grades below
    specs = [s for s in iter_catalog_specs(10) if s.dim <= 10]
    assert {s.family for s in specs} >= {"grassmannian", "quadric_odd",
                                          "quadric_even", "lagrangian", "spinor"}
    for spec in specs:
        vectors = [negate(r) for r in spec.levi.radical_roots]
        for p in range(spec.dim + 1):
            brute = Counter(tuple(map(sum, zip(*subset))) if subset
                            else (0,) * spec.ambient.rank
                            for subset in combinations(vectors, p))
            assert omega_p_weights(spec, p).entries == brute, (spec.name, p)


def test_engine_refuses_a_large_space_past_its_step_limit(cold_answers):
    # G:2:60 would take tens of millions of reflection steps: the pass
    # stops at the limit with one line naming it
    with pytest.raises(DecompositionError) as exc:
        omega_decompose(grassmannian(2, 60), 2, method="WeightDP")
    assert str(exc.value) == ("G:2:60: weight engine to grade 58 passed "
                              "ENGINE_STEP_LIMIT = 1048576 units (one per dot "
                              "action and per reflection step)")


def test_engine_refuses_a_pass_at_rank_150_before_it_starts(engine_horizons):
    # grades 1..2812 of G:75:150 need at least 5625 * 2812 * 2813 / 2 dot
    # actions, one per summand of a lower grade and cotangent weight
    with pytest.raises(DecompositionError) as exc:
        omega_decompose(grassmannian(75, 150), 1, method="WeightDP")
    assert str(exc.value) == (
        "G:75:150: weight engine to grade 2812 needs at least 22247313750 dot "
        "actions, past ENGINE_STEP_LIMIT = 1048576 units (one per dot action "
        "and per reflection step)")
    assert engine_horizons == {}


def test_engine_refuses_a_dp_past_its_state_limit(monkeypatch, cold_answers):
    # E6 takes 1926 units up to grade 8, 736 dot actions and 1190 reflection
    # steps: one fewer allowed and the engine refuses with one line naming
    # the limit and its unit
    spec = cayley()
    spent = []
    real = plethysm._newton_grade

    def counting(spec, levels, p, steps):
        level, steps = real(spec, levels, p, steps)
        spent.append((p, steps))
        return level, steps

    monkeypatch.setattr(plethysm, "_newton_grade", counting)
    plethysm._engine_levels(spec)
    assert spent[-1] == (8, 1926) and len(spent) == 8
    plethysm._engine_levels.cache_clear()
    monkeypatch.setattr(plethysm, "ENGINE_STEP_LIMIT", 1925)
    with pytest.raises(DecompositionError) as exc:
        omega_decompose(spec, 1, method="WeightDP")
    assert str(exc.value) == ("E6: weight engine to grade 8 passed "
                              "ENGINE_STEP_LIMIT = 1925 units (one per dot "
                              "action and per reflection step)")
    monkeypatch.setattr(plethysm, "ENGINE_STEP_LIMIT", 1926)
    assert omega_decompose(spec, 1, method="WeightDP").summands == \
        omega_decompose(spec, 1).summands
    # the units are counted as they are spent: a low limit stops the pass
    # before its last grade
    plethysm._engine_levels.cache_clear()
    spent.clear()
    monkeypatch.setattr(plethysm, "ENGINE_STEP_LIMIT", 1000)
    with pytest.raises(DecompositionError, match="E6: .*ENGINE_STEP_LIMIT = 1000 "):
        plethysm._engine_levels(spec)
    assert len(spent) < 7
    # every grade has a summand, so grades 1..8 take at least
    # 16 * (1 + ... + 8) = 576 dot actions: a limit below that refuses the
    # pass before its first grade
    spent.clear()
    monkeypatch.setattr(plethysm, "ENGINE_STEP_LIMIT", 575)
    with pytest.raises(DecompositionError) as exc:
        plethysm._engine_levels(spec)
    assert str(exc.value) == ("E6: weight engine to grade 8 needs at least 576 "
                              "dot actions, past ENGINE_STEP_LIMIT = 575 units "
                              "(one per dot action and per reflection step)")
    assert spent == []


def test_engine_work_on_the_verify_spaces(monkeypatch, cold_answers):
    # the engine passes verify --max-rank 7 forces, on its 39 spaces of
    # dim <= 27, make 15,814 dot actions and 25,091 reflection steps: 40,905
    # units of the step limit.  A change that makes each action cheaper
    # keeps these; one that makes the engine do more work fails here
    specs = [s for s in iter_catalog_specs(7) if s.dim <= 27]
    assert len(specs) == 39
    work = [0, 0]
    real = RootSystem.shifted_dominant

    def counting(self, y, nodes):
        top, steps = real(self, y, nodes)
        work[0] += 1
        work[1] += steps
        return top, steps

    monkeypatch.setattr(RootSystem, "shifted_dominant", counting)
    units = {}
    real_grade = plethysm._newton_grade

    def last_units(spec, levels, p, steps):
        level, units[spec.name] = real_grade(spec, levels, p, steps)
        return level, units[spec.name]

    monkeypatch.setattr(plethysm, "_newton_grade", last_units)
    for spec in specs:
        plethysm._engine_levels(spec)
    assert work == [15814, 25091]
    assert sum(units.values()) == 40905


def test_a_dual_summand_that_changes_dimension_names_both(monkeypatch,
                                                          cold_answers):
    # a Levi dimension inflated above half the dimension of Q:5 breaks the
    # duality with grade 2, whose summand is named with both dimensions
    real = plethysm._make_summand

    def inflated(spec, weight, p):
        s = real(spec, weight, p)
        if p > spec.dim // 2:
            s = s._replace(levi_dim=s.levi_dim + 1)
        return s

    monkeypatch.setattr(plethysm, "_make_summand", inflated)
    with pytest.raises(DecompositionError) as exc:
        omega_decompose(quadric(5), 3, method="WeightDP")
    assert str(exc.value) == ("Q:5, p=3: dual summand (-4, 0, 2) of (-3, 0, 2) "
                              "changed dimension from 10 to 11")


@pytest.mark.parametrize("spec,top", [
    (cayley(), None), (freudenthal(), 6), (grassmannian(3, 7), None),
    (lagrangian(4), None), (spinor(5), None),
    *((quadric(n), None) for n in range(5, 14)),
])
def test_engine_summands_reexpand_to_the_weight_multiset(spec, top):
    # Freudenthal's recursion is an independent reference for the engine:
    # the dominant characters of its summands must add up to the dominant
    # part of the weight multiset of their grade
    levi = spec.levi
    for p in range((top or (spec.dim + 1) // 2) + 1):
        summed = Counter()
        for s in omega_decompose(spec, p, method="WeightDP").summands:
            summed.update(levi.dominant_weight_multiplicities(s.highest_weight))
        grade = WeightMultiset(p, _reference_tables(spec)[p])
        assert summed == _dominant_entries(grade, levi), (spec.name, p)


DUALITY_SPECS = [s for s in iter_catalog_specs(8) if s.dim <= 27]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_engine_duality_against_direct_grades(data):
    # grade dim - p of the forced engine against the per-grade reference,
    # which never goes through the engine's duality, and
    # against the Levi dual of grade p twisted by the canonical weight -c1 l_k
    spec = data.draw(st.sampled_from(DUALITY_SPECS))
    p = data.draw(st.integers(0, spec.dim))
    q = spec.dim - p
    engine = omega_decompose(spec, q, method="WeightDP").summands
    assert engine == _direct(spec, q)
    k = spec.marked_node - 1
    dual = []
    for s in omega_decompose(spec, p, method="WeightDP").summands:
        w = list(spec.levi.dual_highest_weight(s.highest_weight))
        w[k] -= spec.index_c1
        dual.append(tuple(w))
    assert sorted(s.highest_weight for s in engine) == sorted(dual)


def test_duality_small_rank():
    # summands of the complementary grade are the Levi duals shifted by the
    # canonical weight
    spec = grassmannian(2, 5)
    k = spec.marked_node - 1
    for p in range(spec.dim + 1):
        lhs = set(omega_decompose(spec, spec.dim - p).weights())
        rhs = set()
        for s in omega_decompose(spec, p).summands:
            w = list(spec.levi.dual_highest_weight(s.highest_weight))
            w[k] -= spec.index_c1
            rhs.add(tuple(w))
        assert lhs == rhs


def test_quadric_middle_grade_splits():
    # even-dimensional quadric: the middle exterior power has two summands
    spec = quadric(6)
    report = omega_decompose(spec, 3)
    assert len(report.summands) == 2
    expected, got = report.rank_identity()
    assert expected == got == comb(6, 3)


def test_report_sorted_descending():
    for spec in [cayley(), grassmannian(3, 7)]:
        for p in (4, 5):
            ws = omega_decompose(spec, p).weights()
            assert list(ws) == sorted(ws, reverse=True)


def _spy_routes(monkeypatch):
    """Record (route, p) for every fast-path run, and ("WeightDP", space)
    for every engine pass, which starts at grade 1."""
    ran = []
    for name, route in (("cauchy_decompose", "CauchyA"),
                        ("hooks_decompose", "Hooks")):
        def spy(*args, _real=getattr(plethysm, name), _route=route):
            ran.append((_route, args[-1]))
            return _real(*args)

        monkeypatch.setattr(plethysm, name, spy)

    def engine(spec, levels, p, steps, _real=plethysm._newton_grade):
        if p == 1:
            ran.append(("WeightDP", spec.name))
        return _real(spec, levels, p, steps)

    monkeypatch.setattr(plethysm, "_newton_grade", engine)
    return ran


def test_answer_cache_runs_each_fast_path_once(monkeypatch, cold_answers):
    ran = _spy_routes(monkeypatch)
    for spec in (grassmannian(3, 6), lagrangian(3), spinor(5)):
        first = omega_decompose(spec, 4)
        assert omega_decompose(spec, 4) == first
    assert ran == [("CauchyA", 4), ("Hooks", 4), ("Hooks", 4)]


def test_answer_cache_keeps_routes_apart(monkeypatch, cold_answers):
    # a forced engine answer is never served from a fast-path entry, nor the
    # reverse, so verify's cross-check never compares an answer with itself:
    # the engine's grades come from its own pass and its level cache alone
    for spec, fast in ((grassmannian(3, 6), "CauchyA"), (lagrangian(3), "Hooks"),
                       (spinor(5), "Hooks")):
        ran = _spy_routes(monkeypatch)
        omega_decompose(spec, 2)
        answers = plethysm._route_summands.cache_info()
        forced = omega_decompose(spec, 2, method="WeightDP")
        omega_decompose(spec, 3, method="WeightDP")
        assert plethysm._route_summands.cache_info() == answers, spec.name
        assert forced.summands is plethysm._engine_levels(spec)[2], spec.name
        omega_decompose(spec, 3)
        assert ran == [(fast, 2), ("WeightDP", spec.name), (fast, 3)], spec.name
        monkeypatch.undo()


def test_answer_cache_takes_the_route_from_the_family(cold_answers):
    # the cache is keyed by (spec, p) alone: no caller names a route, so no
    # name can be answered by the wrong route
    assert plethysm._route_summands(grassmannian(3, 6), 2) == tuple(
        s for _, s in plethysm.cauchy_decompose(3, 6, 2))
    assert plethysm._route_summands(lagrangian(3), 2) == tuple(
        s for _, s in plethysm.hooks_decompose(lagrangian(3), 2))
    assert plethysm._route_summands(quadric(5), 2) == \
        plethysm._kostant_summands(quadric(5), 2)
    with pytest.raises(TypeError):
        plethysm._route_summands(quadric(5), 2, "WeightDP")


def test_rank_identity_checked_on_cached_answers(monkeypatch, cold_answers):
    # the check sits outside the cache: a cached answer that lost a summand
    # fails on every call, not only on the one that computed it
    real = plethysm._kostant_summands
    runs = []

    def lossy(spec, p):
        runs.append(p)
        return real(spec, p)[1:]

    monkeypatch.setattr(plethysm, "_kostant_summands", lossy)
    for _ in range(2):
        with pytest.raises(plethysm.RankIdentityError):
            omega_decompose(quadric(6), 3)
    assert runs == [3]


def test_out_of_range_p_is_refused_on_every_call():
    for _ in range(2):
        for spec, p in ((grassmannian(2, 5), 7), (quadric(5), -1), (cayley(), 17)):
            for method in ("auto", "WeightDP"):
                with pytest.raises(ValueError):
                    omega_decompose(spec, p, method=method)


def test_answer_cache_stays_within_its_cap(cold_answers):
    cache = plethysm._route_summands
    assert cache.cache_info().maxsize == plethysm.ANSWER_CACHE_SIZE == 4096
    asked = set()
    n = 1
    while len(asked) <= plethysm.ANSWER_CACHE_SIZE:
        n += 1
        for k in range(1, n):
            spec = grassmannian(k, n)
            for p in range(min(spec.dim, 8) + 1):
                omega_decompose(spec, p)
                asked.add((spec.name, p))
    assert cache.cache_info().currsize == plethysm.ANSWER_CACHE_SIZE


# -- Kostant's route -------------------------------------------------------------------


def test_kostant_route_equals_the_engine_up_to_rank_7(cold_answers):
    # every grade of every catalog space, summand by summand: one minimal
    # coset representative per summand against the forced weight engine
    specs = list(iter_catalog_specs(7))
    assert {s.family for s in specs} == set(FAMILIES)
    for spec in specs:
        assert len(plethysm._kostant_levels(spec)) == spec.dim + 1, spec.name
        for p in range(spec.dim + 1):
            engine = omega_decompose(spec, p, method="WeightDP").summands
            assert plethysm._kostant_summands(spec, p) == engine, (spec.name, p)


def test_kostant_pays_only_for_the_grade_asked(monkeypatch, cold_answers):
    # the coset points of every grade are cached, but a question about one
    # grade computes the Levi dimensions of that grade's summands only
    spec = quadric(30)
    calls = []
    real = LeviSubsystem.weyl_dim

    def counting(self, w):
        calls.append(w)
        return real(self, w)

    monkeypatch.setattr(LeviSubsystem, "weyl_dim", counting)
    report = omega_decompose(spec, 2)
    assert len(calls) == len(report.summands) == 1


def test_kostant_levels_equal_the_partition_fast_paths():
    specs = [grassmannian(k, n) for n in range(2, 9) for k in range(1, n // 2 + 1)]
    specs += [lagrangian(n) for n in range(2, 6)] + [spinor(n) for n in range(3, 7)]
    for spec in specs:
        for p in range(spec.dim + 1):
            if spec.family == "grassmannian":
                fast = cauchy_decompose(*spec.params, p)
            else:
                fast = hooks_decompose(spec, p)
            kostant = plethysm._kostant_summands(spec, p)
            assert kostant == tuple(s for _, s in fast), (spec.name, p)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _gaussian_binomial(n, k):
    # [n k] = [n-1 k-1] + x^k [n-1 k]
    if k in (0, n):
        return (1,)
    low = _gaussian_binomial(n - 1, k - 1)
    high = (0,) * k + _gaussian_binomial(n - 1, k)
    return tuple(map(sum, zip_longest(low, high, fillvalue=0)))


def _macdonald(heights):
    """prod (1 - x^(h+1)) / (1 - x^h) over the heights, by exact division."""
    poly = [1]
    for h in heights:
        poly = _times(poly, [1] + [0] * h + [-1])
    for h in heights:
        for i in range(h, len(poly)):
            poly[i] += poly[i - h]
        assert not any(poly[-h:])
        del poly[-h:]
    return poly


def _poincare(spec):
    """The Poincare polynomial of X by its family's closed form."""
    if spec.family == "grassmannian":
        k, n = spec.params
        return list(_gaussian_binomial(n, k))
    if spec.family in ("lagrangian", "spinor"):  # prod (1 + x^i), i <= n or i < n
        n, = spec.params
        poly = [1]
        for i in range(1, n + (spec.family == "lagrangian")):
            poly = _times(poly, [1] + [0] * (i - 1) + [1])
        return poly
    if spec.family in ("quadric_odd", "quadric_even"):
        m, = spec.params
        poly = [1] * (m + 1)
        poly[m // 2] += m % 2 == 0
        return poly
    return _macdonald([sum(c) for c in spec.levi.radical_root_coords])


def test_kostant_level_sizes_are_the_poincare_polynomial():
    # one minimal coset representative per Schubert cell: the level sizes are
    # the Betti numbers b_2p, read here off closed forms that share no code
    # with the walk
    totals = {}
    for spec in iter_catalog_specs(10):
        sizes = [len(level) for level in plethysm._kostant_levels(spec)]
        assert sizes == _poincare(spec), spec.name
        totals[spec.name] = sum(sizes)
    assert (totals["E6"], totals["E7"], totals["IG:10"], totals["OG:10"]) == (
        27, 56, 2 ** 10, 2 ** 9)
    assert len(totals) == 66


def _quadric_weights(spec, p):
    """Summand weights of grade p on Q:m from the standard module V of the
    Levi so(m): the cotangent bundle is V twisted, and Wedge^q V is
    irreducible with highest weight l_q, except near the spin ends, where
    it is 2 l_last (odd m, q = rank), l_{last-1} + l_last (even m,
    q = rank - 1), or splits into 2 l_{last-1} + 2 l_last (even m,
    q = rank) (Fulton-Harris, sec. 19.2).  Ambient nodes, Levi rank r - 1."""
    m, r = spec.dim, spec.ambient.rank
    if p in (0, m):
        return [(-p,) + (0,) * (r - 1)]
    q = min(p, m - p)

    def weight(*levi_part):
        w = [-(p + 1)] + [0] * (r - 1)
        for node, c in levi_part:
            w[node - 1] += c
        return tuple(w)

    if spec.family == "quadric_odd" and q == r - 1:
        return [weight((r, 2))]
    if spec.family == "quadric_even" and q == r - 2:
        return [weight((r - 1, 1), (r, 1))]
    if spec.family == "quadric_even" and q == r - 1:
        return [weight((r - 1, 2)), weight((r, 2))]
    return [weight((q + 1, 1))]


def test_quadric_closed_form_from_kostant(cold_answers):
    for m in range(3, 41):
        spec = quadric(m)
        for p in range(m + 1):
            report = omega_decompose(spec, p)
            assert report.method == "Kostant"
            assert sorted(report.weights()) == sorted(_quadric_weights(spec, p)), \
                (m, p)
            assert len(report.summands) == (2 if 2 * p == m else 1), (m, p)


@pytest.mark.parametrize("call, message", [
    (lambda: cauchy_decompose(2, 4, 5), r"p=5 out of range 0\.\.4"),
    (lambda: hooks_decompose(lagrangian(2), 4), r"p=4 out of range 0\.\.3 for IG:2"),
])
def test_a_fast_path_refuses_a_grade_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
