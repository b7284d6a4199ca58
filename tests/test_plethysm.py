from collections import Counter
from itertools import combinations
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
    nilradical_roots,
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
from cominuscule.rootsys import negate


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


@pytest.mark.parametrize("spec", [
    grassmannian(2, 6), grassmannian(3, 7), lagrangian(4), spinor(5),
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
            direct = tuple(decompose(omega_p_weights(spec, p), spec))
            via_duality = omega_decompose(spec, p, method="WeightDP")
            assert via_duality.summands == direct, (spec.name, p)


def test_engine_pass_equals_the_per_grade_path(cold_answers):
    # the batched Klimyk runs of one engine pass against one DP and one
    # decompose per grade, on every grade the pass computes directly
    specs = [s for s in iter_catalog_specs(7) if s.dim <= 27]
    assert len(specs) == 39
    for spec in specs:
        levels = plethysm._engine_levels(spec)
        for p in range(spec.dim // 2 + 1):
            direct = tuple(decompose(omega_p_weights(spec, p), spec))
            assert levels[p] == direct, (spec.name, p)


def test_engine_runs_hold_no_more_rows_than_the_largest_grade(monkeypatch,
                                                             cold_answers):
    # each Klimyk run is a block of consecutive grades of the DP whose rows
    # add up to at most those of its largest grade, so batching never
    # raises the working set above what one grade needs
    grades, runs = {}, []
    real_dp, real_klimyk = plethysm._exterior_tables, plethysm._klimyk

    def dp(spec, max_grade):
        lo, hi, states = real_dp(spec, max_grade)
        grades[spec.name] = [len(keys) for keys, _ in states]
        return lo, hi, states

    def klimyk(spec, keys, counts, lo, hi):
        runs.append((spec.name, int(lo[-1]), int(hi[-1]), len(keys)))
        return real_klimyk(spec, keys, counts, lo, hi)

    monkeypatch.setattr(plethysm, "_exterior_tables", dp)
    monkeypatch.setattr(plethysm, "_klimyk", klimyk)
    for spec in (quadric(12), lagrangian(4), spinor(7), cayley(), freudenthal()):
        plethysm._engine_levels(spec)
        sizes = grades[spec.name]
        assert len(sizes) == spec.dim // 2 + 1
        mine = [r[1:] for r in runs if r[0] == spec.name]
        assert [g for first, last, _ in mine for g in range(first, last + 1)] \
            == list(range(len(sizes))), spec.name
        for first, last, rows in mine:
            assert rows == sum(sizes[first:last + 1]) <= max(sizes), spec.name
    assert max(grades["E7"]) == 71307
    assert [r[1:3] for r in runs if r[0] == "E7"] == [
        (0, 8), (9, 9), (10, 10), (11, 11), (12, 12), (13, 13)]


def test_engine_stops_at_half_the_dimension(dp_horizons, cold_answers):
    # every grade of an engine space is answered from DP tables that reach
    # grade dim // 2 and no further
    for spec in (quadric(5), quadric(6), lagrangian(3)):
        for p in range(spec.dim + 1):
            omega_decompose(spec, p, method="WeightDP")
        assert dp_horizons.pop(spec.name) == [spec.dim // 2], spec.name


def test_engine_weights_match_brute_force():
    # every sum of p distinct negated nilradical roots, counted directly;
    # grades above dim // 2 take the DP's direct path
    specs = [s for s in iter_catalog_specs(10) if s.dim <= 10]
    assert {s.family for s in specs} >= {"grassmannian", "quadric_odd",
                                          "quadric_even", "lagrangian", "spinor"}
    for spec in specs:
        vectors = [negate(r) for r in nilradical_roots(spec)]
        for p in range(spec.dim + 1):
            brute = Counter(tuple(map(sum, zip(*subset))) if subset
                            else (0,) * spec.ambient.rank
                            for subset in combinations(vectors, p))
            assert omega_p_weights(spec, p).entries == brute, (spec.name, p)


def test_engine_refuses_a_weight_box_beyond_64_bits():
    spec = grassmannian(2, 60)
    with pytest.raises(DecompositionError, match="G:2:60: .*64-bit key"):
        omega_decompose(spec, 2, method="WeightDP")


@pytest.mark.parametrize("spec,top", [
    (cayley(), None), (freudenthal(), 6), (grassmannian(3, 7), None),
    (lagrangian(4), None), (spinor(5), None),
    *((quadric(n), None) for n in range(5, 14)),
])
def test_engine_summands_reexpand_to_the_weight_multiset(spec, top):
    # Freudenthal's recursion is an independent reference for the engine:
    # the dominant characters of the summands must add up to the dominant
    # part of the weight multiset they were read off
    levi = spec.levi
    for p in range((top or (spec.dim + 1) // 2) + 1):
        summed = Counter()
        for s in omega_decompose(spec, p, method="WeightDP").summands:
            summed.update(levi.dominant_weight_multiplicities(s.highest_weight))
        assert summed == _dominant_entries(omega_p_weights(spec, p), levi), \
            (spec.name, p)


DUALITY_SPECS = [s for s in iter_catalog_specs(8) if s.dim <= 27]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_engine_duality_against_direct_grades(data):
    # grade dim - p of the forced engine against a direct DP and decompose
    # of that grade, which never goes through the engine's duality, and
    # against the Levi dual of grade p twisted by the canonical weight -c1 l_k
    spec = data.draw(st.sampled_from(DUALITY_SPECS))
    p = data.draw(st.integers(0, spec.dim))
    q = spec.dim - p
    engine = omega_decompose(spec, q, method="WeightDP").summands
    assert engine == tuple(decompose(omega_p_weights(spec, q), spec))
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
    """Record (route, p) for every fast-path and engine run."""
    ran = []
    for name, route in (("cauchy_decompose", "CauchyA"),
                        ("hooks_decompose", "Hooks"),
                        ("_dp_summands", "WeightDP")):
        def spy(*args, _real=getattr(plethysm, name), _route=route):
            ran.append((_route, args[-1]))
            return _real(*args)

        monkeypatch.setattr(plethysm, name, spy)
    return ran


def test_answer_cache_runs_each_fast_path_once(monkeypatch, cold_answers):
    ran = _spy_routes(monkeypatch)
    for spec in (grassmannian(3, 6), lagrangian(3), spinor(5)):
        first = omega_decompose(spec, 4)
        assert omega_decompose(spec, 4) == first
    assert ran == [("CauchyA", 4), ("Hooks", 4), ("Hooks", 4)]


def test_answer_cache_keeps_routes_apart(monkeypatch, cold_answers):
    # a forced engine answer is never served from a fast-path entry, nor the
    # reverse, so verify's cross-check never compares an answer with itself
    for spec, fast in ((grassmannian(3, 6), "CauchyA"), (lagrangian(3), "Hooks"),
                       (spinor(5), "Hooks")):
        ran = _spy_routes(monkeypatch)
        omega_decompose(spec, 2)
        omega_decompose(spec, 2, method="WeightDP")
        omega_decompose(spec, 3, method="WeightDP")
        omega_decompose(spec, 3)
        assert ran == [(fast, 2), ("WeightDP", 2), ("WeightDP", 3), (fast, 3)], \
            spec.name
        monkeypatch.undo()


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
        levels = plethysm._kostant_levels(spec)
        assert len(levels) == spec.dim + 1, spec.name
        for p in range(spec.dim + 1):
            engine = omega_decompose(spec, p, method="WeightDP").summands
            assert levels[p] == engine, (spec.name, p)


def test_kostant_levels_equal_the_partition_fast_paths():
    specs = [grassmannian(k, n) for n in range(2, 9) for k in range(1, n // 2 + 1)]
    specs += [lagrangian(n) for n in range(2, 6)] + [spinor(n) for n in range(3, 7)]
    for spec in specs:
        levels = plethysm._kostant_levels(spec)
        for p in range(spec.dim + 1):
            if spec.family == "grassmannian":
                fast = cauchy_decompose(*spec.params, p)
            else:
                fast = hooks_decompose(spec, p)
            assert levels[p] == tuple(s for _, s in fast), (spec.name, p)


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
