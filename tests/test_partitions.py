from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cominuscule import partitions
from cominuscule.partitions import (
    COST_A,
    COST_C,
    COST_D,
    closed_form_cases,
    dual,
    frobenius,
    from_frobenius,
    hooks_q1,
    hooks_qm1,
    min_twist_grass,
    min_twist_grass_oracle,
    min_twist_lagr,
    min_twist_lagr_oracle,
    min_twist_spinor,
    min_twist_spinor_oracle,
    partitions_in_box,
)


@st.composite
def partition_strategy(draw, max_size=40):
    n = draw(st.integers(0, max_size))
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        part = draw(st.integers(1, min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return tuple(parts)


def test_dual_examples():
    assert dual((3, 1)) == (2, 1, 1)
    assert dual((2, 2, 2, 2, 2)) == (5, 5)
    assert dual(()) == ()


@given(partition_strategy())
@settings(max_examples=200, deadline=None)
def test_dual_is_involution(mu):
    assert dual(dual(mu)) == mu


@given(partition_strategy(max_size=25))
@settings(max_examples=100, deadline=None)
def test_frobenius_roundtrip(mu):
    arms, legs = frobenius(mu)
    assert all(a > b for a, b in zip(arms, arms[1:]))
    assert all(a > b for a, b in zip(legs, legs[1:]))
    assert from_frobenius(arms, legs) == mu


def test_partitions_in_box_order_and_bounds():
    got = list(partitions_in_box(5, 3, 4))
    assert got == sorted(got, reverse=True)
    for mu in got:
        assert sum(mu) == 5 and len(mu) <= 3 and mu[0] <= 4
    assert list(partitions_in_box(0, 2, 2)) == [()]
    assert list(partitions_in_box(5, 2, 2)) == []


@pytest.mark.parametrize("rows,width", [(0, 3), (3, 0), (1, 4), (3, 3), (4, 2), (3, 5)])
def test_partitions_in_box_matches_brute_force(rows, width):
    for size in range(rows * width + 2):
        brute = sorted((tuple(x for x in mu if x)
                        for mu in product(range(width + 1), repeat=rows)
                        if sum(mu) == size
                        and all(a >= b for a, b in zip(mu, mu[1:]))),
                       reverse=True)
        assert list(partitions_in_box(size, rows, width)) == brute, (size, rows, width)


def test_partitions_in_box_prunes_a_full_box(monkeypatch):
    # a branch whose size exceeds rows x width is cut at once; without that
    # the one partition filling the 9 x 9 box took 48,619 recursive calls
    real = partitions.partitions_in_box
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(partitions, "partitions_in_box", counting)
    for size, found in (
            (81, [(9,) * 9]),
            (78, [(9,) * 8 + (6,), (9,) * 7 + (8, 7), (9,) * 6 + (8, 8, 8)])):
        calls = 0
        assert list(counting(size, 9, 9)) == found
        assert calls <= 200, (size, calls)


def test_distinct_partitions_prune_a_full_staircase(monkeypatch):
    # a branch whose size exceeds cap + (cap - 1) + ... + 1 is cut at once;
    # without that the one partition 19 + 18 + ... + 1 of 190 took 524,288
    # recursive calls, and hooks_q1(100, 20) took 455,862
    real = partitions._distinct_partitions
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(partitions, "_distinct_partitions", counting)
    assert list(counting(190, 19)) == [tuple(range(19, 0, -1))]
    assert calls <= 200, calls
    # the subsets of {1, ..., 20} summing to 100, counted independently
    subsets = [1] + [0] * 100
    for part in range(1, 21):
        for total in range(100, part - 1, -1):
            subsets[total] += subsets[total - part]
    calls = 0
    assert len(hooks_q1(100, 20)) == subsets[100]
    assert calls <= 100_000, calls


def _brute_hooks(p, n, delta):
    out = []
    for mu in partitions_in_box(2 * p, n, 2 * p):
        arms, legs = frobenius(mu)
        if arms and all(a == b + delta for a, b in zip(arms, legs)):
            out.append(mu)
    return sorted(out, reverse=True)


@pytest.mark.parametrize("p", range(1, 11))
@pytest.mark.parametrize("n", [3, 5, 8])
def test_hooks_match_brute_force_filter(p, n):
    assert hooks_q1(p, n) == _brute_hooks(p, n, +1)
    assert hooks_qm1(p, n) == _brute_hooks(p, n, -1)


def test_hooks_known_values():
    assert hooks_q1(1, 5) == [(2,)]
    assert hooks_qm1(1, 5) == [(1, 1)]
    assert hooks_qm1(2, 5) == [(2, 1, 1)]
    # p = 3: brute force gives exactly these two, and (3,3) is the
    # rectangle-class member of shape (a+1) x a with a = 2
    assert hooks_q1(3, 5) == [(4, 1, 1), (3, 3)]
    assert (3, 3) in hooks_q1(3, 5)


@pytest.mark.parametrize("p", range(1, 13))
def test_hook_classes_are_exchanged_by_dual(p):
    n = 2 * p
    q1 = {dual(mu) for mu in hooks_q1(p, n)}
    qm1 = set(hooks_qm1(p, n))
    assert q1 == qm1


@pytest.mark.parametrize("p", [1, 2, 5])
def test_hooks_qm1_with_one_row_is_empty(p):
    # every member of the arm = leg - 1 class has at least two rows
    assert hooks_qm1(p, 1) == []


def test_min_twist_grass_known_values():
    assert min_twist_grass(3, 12, 10) == 7  # 3 + ceil(10/3)
    assert min_twist_grass(3, 9, 7) == 6    # ceil(2 sqrt 7)
    for n in (5, 8):
        for p in range(1, n - 1):
            assert min_twist_grass(1, n, p) == p + 1
    assert min_twist_grass(2, 4, 4) == 4  # top power, canonical twist


def test_min_twist_grass_normalizes_k():
    assert min_twist_grass(7, 10, 10) == min_twist_grass(3, 10, 10)
    witness = min_twist_grass_oracle(7, 10, 10)
    assert witness.box == (3, 7)


def test_min_twist_grass_range_errors():
    with pytest.raises(ValueError):
        min_twist_grass(3, 9, 0)
    with pytest.raises(ValueError):
        min_twist_grass(3, 9, 19)
    with pytest.raises(ValueError):
        min_twist_grass(0, 5, 1)


def test_grass_oracle_named_sets():
    w = min_twist_grass_oracle(3, 9, 7)
    assert w.l == 6
    assert w.partitions == ((4, 3), (3, 3, 1), (3, 2, 2))
    assert w.criterion == COST_A
    w = min_twist_grass_oracle(2, 4, 4)
    assert (w.l, w.partitions) == (4, ((2, 2),))


def test_grass_oracle_witness_invariants():
    for k in (2, 3):
        for n in (2 * k, 2 * k + 2):
            for p in range(1, k * (n - k) + 1):
                w = min_twist_grass_oracle(k, n, p)
                for mu in w.partitions:
                    assert sum(mu) == p
                    assert len(mu) <= k and mu[0] <= n - k
                    assert mu[0] + len(mu) == w.l


@pytest.mark.parametrize("oracle, hooks, cost, top", [
    (min_twist_lagr_oracle, hooks_q1, lambda mu: mu[0], lambda n: n * (n + 1) // 2),
    (min_twist_spinor_oracle, hooks_qm1, lambda mu: mu[0] + mu[1],
     lambda n: n * (n - 1) // 2),
])
def test_hook_oracle_witness_invariants(oracle, hooks, cost, top):
    for n in range(2, 8):
        for p in range(1, top(n) + 1):
            w = oracle(n, p)
            assert w.partitions and w.box is None
            for mu in w.partitions:
                assert sum(mu) == 2 * p and len(mu) <= n
                assert cost(mu) == w.l
            members = hooks(p, n)
            assert all(cost(mu) >= w.l for mu in members), (n, p)
            assert w.partitions == tuple(mu for mu in members if cost(mu) == w.l)


@pytest.mark.parametrize("k", range(1, 7))
def test_grass_formula_equals_oracle(k):
    for n in range(2 * k, 13):
        for p in range(1, k * (n - k) + 1):
            assert min_twist_grass(k, n, p) == min_twist_grass_oracle(k, n, p).l


def test_rectangular_witness_characterization():
    # a rectangular minimizer exists iff l(p)^2 - 4p is a perfect square with
    # roots fitting the box; cross-filter the oracle output
    from math import isqrt
    for k in (2, 3, 4):
        n = 2 * k + 2
        for p in range(1, k * (n - k) + 1):
            w = min_twist_grass_oracle(k, n, p)
            rects = {mu for mu in w.partitions if len(set(mu)) == 1}
            disc = w.l * w.l - 4 * p
            expected = set()
            if disc >= 0 and isqrt(disc) ** 2 == disc:
                d = (w.l + isqrt(disc)) // 2
                e = w.l - d
                for wd, ht in ((d, e), (e, d)):
                    if wd >= 1 and ht >= 1 and ht <= k and wd <= n - k:
                        expected.add((wd,) * ht)
            assert rects == expected, (k, n, p)


def test_min_twist_lagr_known_values():
    assert min_twist_lagr(1) == 2
    assert min_twist_lagr(3) == 3
    assert min_twist_lagr(6) == 4  # 2p = 12 not triangular
    with pytest.raises(ValueError):
        min_twist_lagr(0)


def test_lagr_oracle():
    w = min_twist_lagr_oracle(4, 3)
    assert w.l == 3 and w.partitions == ((3, 3),)
    assert w.criterion == COST_C
    w = min_twist_lagr_oracle(4, 6)
    assert w.l == 4
    with pytest.raises(ValueError):
        min_twist_lagr_oracle(3, 7)


@pytest.mark.parametrize("n", range(2, 11))
def test_lagr_formula_equals_oracle(n):
    for p in range(1, n * (n + 1) // 2 + 1):
        assert min_twist_lagr(p) == min_twist_lagr_oracle(n, p).l


def test_closed_forms_meet_their_defining_inequalities():
    # l(p) is the least l with (2l - 1)^2 >= 8p, and the orthogonal
    # parameter a the least a with (2a + 1)^2 >= 8p; exact at any size
    for p in [*range(1, 5000), 10 ** 30, 10 ** 30 + 1, 2 * 10 ** 40 + 7]:
        l = min_twist_lagr(p)
        assert (2 * l - 1) ** 2 >= 8 * p > (2 * l - 3) ** 2, p
        a, b = partitions._spinor_parameters(p)
        assert (2 * a + 1) ** 2 >= 8 * p > (2 * a - 1) ** 2, p
        assert 2 * p == a * (a + 1) - 2 * b and 0 <= b < a, p


def test_a_failed_spinor_parametrization_names_its_values(monkeypatch):
    # a ceil(sqrt) one too small gives a = 2 for p = 4, and 2b = -2
    monkeypatch.setattr(partitions, "_ceil_sqrt", lambda n: 5)
    with pytest.raises(partitions.DecompositionError,
                       match=r"^2p = a\(a\+1\) - 2b failed at p=4, a=2, 2b=-2$"):
        partitions._spinor_parameters(4)


def test_min_twist_spinor_known_values():
    assert min_twist_spinor(1) == 2   # a=1 forces b=0
    assert min_twist_spinor(2) == 3   # b = a-1 > 0 corner
    assert min_twist_spinor(3) == 4
    with pytest.raises(ValueError):
        min_twist_spinor(-1)


def test_spinor_oracle():
    w = min_twist_spinor_oracle(5, 2)
    assert w.l == 3 and w.partitions == ((2, 1, 1),)
    assert w.criterion == COST_D
    w = min_twist_spinor_oracle(5, 3)
    assert w.l == 4
    assert set(w.partitions) == {(3, 1, 1, 1), (2, 2, 2)}


@pytest.mark.parametrize("n", range(3, 11))
def test_spinor_formula_equals_oracle(n):
    for p in range(1, n * (n - 1) // 2 + 1):
        assert min_twist_spinor(p) == min_twist_spinor_oracle(n, p).l


@pytest.mark.parametrize("call, message", [
    (lambda: from_frobenius((1,), ()), "arm and leg sequences must have equal length"),
    (lambda: hooks_q1(0, 3), "need p >= 1 and n >= 1"),
    (lambda: hooks_qm1(0, 3), "need p >= 1 and n >= 1"),
    (lambda: min_twist_grass_oracle(2, 5, 7), r"p=7 out of range 1\.\.6 for \(2,5\)"),
    (lambda: min_twist_spinor_oracle(4, 7), r"p=7 out of range 1\.\.6 for n=4"),
    (lambda: list(closed_form_cases("B", 3)), "unknown family 'B'; expected A, C or D"),
])
def test_bad_input_is_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
