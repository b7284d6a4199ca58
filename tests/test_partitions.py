from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cominuscule import partitions
from cominuscule.partitions import (
    COST_A,
    COST_C,
    COST_D,
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
