"""Young-diagram combinatorics behind the minimal-twist computations.

Partitions are weakly decreasing tuples of positive integers; the empty
tuple is the zero partition.  The two hook classes live here:

* ``hooks_q1(p, n)``: partitions of 2p with at most n rows whose Frobenius
  coordinates satisfy arm = leg + 1 on every diagonal hook.  These index the
  exterior powers of a symmetric square.
* ``hooks_qm1(p, n)``: the transposed class (arm = leg - 1), indexing the
  exterior powers of an alternating square.

Each closed-form minimal twist (ordinary, symplectic, orthogonal flavor)
ships with an exhaustive-enumeration oracle that minimizes the matching
dominance cost and returns every minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

Partition = tuple[int, ...]

# Dominance costs used by the oracles; kept as named constants so
# verification reports can say which criterion was minimized.
COST_A = "mu1+mu1'"
COST_C = "mu1"
COST_D = "mu1+mu2"


def dual(mu: Partition) -> Partition:
    """Conjugate partition: (mu')_j counts the rows with mu_i >= j."""
    if not mu:
        return ()
    return tuple(sum(1 for x in mu if x >= j) for j in range(1, mu[0] + 1))


def frobenius(mu: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Frobenius coordinates (arms | legs) along the main diagonal."""
    mu_d = dual(mu)
    d = sum(1 for i, x in enumerate(mu) if x >= i + 1)
    arms = tuple(mu[i] - (i + 1) for i in range(d))
    legs = tuple(mu_d[i] - (i + 1) for i in range(d))
    return arms, legs


def from_frobenius(arms, legs) -> Partition:
    """Rebuild a partition from its Frobenius coordinates."""
    d = len(arms)
    if d != len(legs):
        raise ValueError("arm and leg sequences must have equal length")
    nrows = legs[0] + 1 if d else 0
    mu = [0] * nrows
    for i in range(d):
        mu[i] = arms[i] + i + 1
    for i in range(d, nrows):
        mu[i] = sum(1 for j in range(d) if legs[j] + j + 1 >= i + 1)
    return tuple(mu)


def partitions_in_box(size: int, max_rows: int, max_width: int) -> Iterator[Partition]:
    """Partitions of ``size`` with at most ``max_rows`` rows and parts at most
    ``max_width``, in descending lexicographic order."""
    if size == 0:
        yield ()
        return
    if size > max_rows * max_width:  # also covers an empty box
        return
    for first in range(min(size, max_width), 0, -1):
        for rest in partitions_in_box(size - first, max_rows - 1, first):
            yield (first,) + rest


def _distinct_partitions(size: int, cap: int) -> Iterator[Partition]:
    """Partitions of ``size`` into strictly decreasing parts, largest <= cap."""
    if size == 0:
        yield ()
        return
    for first in range(min(size, cap), 0, -1):
        for rest in _distinct_partitions(size - first, first - 1):
            yield (first,) + rest


def hooks_q1(p: int, n: int) -> list[Partition]:
    """The arm = leg + 1 hook class of 2p, at most n rows.

    Built directly from the hook data: members correspond to partitions of p
    into distinct parts c_1 > ... > c_d (c_i = arm_i = leg_i + 1), with
    c_1 = number of rows <= n.  Sorted descending-lexicographically.
    """
    if p < 1 or n < 1:
        raise ValueError("need p >= 1 and n >= 1")
    out = [from_frobenius(c, tuple(x - 1 for x in c))
           for c in _distinct_partitions(p, n)]
    return sorted(out, reverse=True)


def hooks_qm1(p: int, n: int) -> list[Partition]:
    """The arm = leg - 1 hook class of 2p, at most n rows (transposes of the
    arm = leg + 1 class)."""
    if p < 1 or n < 1:
        raise ValueError("need p >= 1 and n >= 1")
    out = [from_frobenius(tuple(x - 1 for x in c), c)
           for c in _distinct_partitions(p, n - 1)]
    return sorted(out, reverse=True)


@dataclass(frozen=True)
class MinTwistWitness:
    """Minimum of a dominance cost over a partition class, with all minimizers.

    ``criterion`` names the cost that was minimized (one of COST_A, COST_C,
    COST_D); ``box`` records the (rows, width) bounding box that was
    enumerated, after any k -> min(k, n-k) normalization.
    """

    l: int
    partitions: tuple[Partition, ...]
    criterion: str
    box: tuple[int, int] | None = None


def _ceil_sqrt(m: int) -> int:
    r = isqrt(m)
    return r if r * r == m else r + 1


def min_twist_grass(k: int, n: int, p: int) -> int:
    """Minimal twist for p-forms on an ordinary Grassmannian of k-planes in
    n-space: ceil(2 sqrt(p)) up to p = k^2, then k + ceil(p/k); the top
    exterior power is the canonical bundle and forces the value n."""
    k = _normalize_k(k, n)
    top = k * (n - k)
    if not 1 <= p <= top:
        raise ValueError(f"p={p} out of range 1..{top} for ({k},{n})")
    if p == top:
        return n
    if p <= k * k:
        return _ceil_sqrt(4 * p)
    return k + -(-p // k)


def _normalize_k(k: int, n: int) -> int:
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for n={n}")
    return min(k, n - k)


def min_twist_grass_oracle(k: int, n: int, p: int) -> MinTwistWitness:
    """Exhaustive minimization of mu_1 + mu_1' over partitions of p inside the
    k x (n-k) box (at most k rows, parts at most n-k)."""
    k = _normalize_k(k, n)
    width = n - k
    if not 1 <= p <= k * width:
        raise ValueError(f"p={p} out of range 1..{k * width} for ({k},{n})")
    best = None
    mins: list[Partition] = []
    for mu in partitions_in_box(p, k, width):
        cost = mu[0] + len(mu)
        if best is None or cost < best:
            best = cost
            mins = [mu]
        elif cost == best:
            mins.append(mu)
    return MinTwistWitness(best, tuple(mins), COST_A, box=(k, width))


def min_twist_lagr(p: int) -> int:
    """Minimal twist for p-forms in the symplectic flavor:
    ceil(sqrt(2p) + 1/2), evaluated exactly."""
    if p < 1:
        raise ValueError("need p >= 1")
    l = (isqrt(8 * p) + 1) // 2
    while (2 * l - 1) ** 2 < 8 * p:
        l += 1
    while l > 1 and (2 * (l - 1) - 1) ** 2 >= 8 * p:
        l -= 1
    return l


def min_twist_lagr_oracle(n: int, p: int) -> MinTwistWitness:
    """Exhaustive minimization of mu_1 over the arm = leg + 1 class."""
    if not 1 <= p <= n * (n + 1) // 2:
        raise ValueError(f"p={p} out of range 1..{n * (n + 1) // 2} for n={n}")
    mus = hooks_q1(p, n)
    best = min(mu[0] for mu in mus)
    mins = tuple(mu for mu in mus if mu[0] == best)
    return MinTwistWitness(best, mins, COST_C, box=None)


def _spinor_parameters(p: int) -> tuple[int, int]:
    # a = ceil(sqrt(2p) - 1/2); write 2p = a(a+1) - 2b with 0 <= b < a.
    a = max(1, (isqrt(8 * p) - 1) // 2)
    while (2 * a + 1) ** 2 < 8 * p:
        a += 1
    while a > 1 and (2 * (a - 1) + 1) ** 2 >= 8 * p:
        a -= 1
    b2 = a * (a + 1) - 2 * p
    if b2 < 0 or b2 % 2:
        raise AssertionError("parametrization 2p = a(a+1) - 2b failed")
    b = b2 // 2
    if not 0 <= b < max(a, 1):
        raise AssertionError(f"b={b} out of range for a={a}")
    return a, b


def min_twist_spinor(p: int) -> int:
    """Minimal twist for p-forms in the orthogonal flavor: with
    2p = a(a+1) - 2b, the answer is 2a except in the corner case
    b = a - 1 > 0, where one hook removal lowers it to 2a - 1."""
    if p < 1:
        raise ValueError("need p >= 1")
    a, b = _spinor_parameters(p)
    if b == a - 1 and b > 0:
        return 2 * a - 1
    return 2 * a


def min_twist_spinor_oracle(n: int, p: int) -> MinTwistWitness:
    """Exhaustive minimization of mu_1 + mu_2 over the arm = leg - 1 class."""
    if not 1 <= p <= n * (n - 1) // 2:
        raise ValueError(f"p={p} out of range 1..{n * (n - 1) // 2} for n={n}")
    mus = hooks_qm1(p, n)
    cost = lambda mu: mu[0] + (mu[1] if len(mu) > 1 else 0)
    best = min(cost(mu) for mu in mus)
    mins = tuple(mu for mu in mus if cost(mu) == best)
    return MinTwistWitness(best, mins, COST_D, box=None)


def closed_form_cases(family: str, max_rank: int, max_p: int | None = None
                      ) -> Iterator[tuple[int | None, int, int, int, MinTwistWitness]]:
    """Every case on which a family's closed form is checked against its
    oracle, up to an ambient rank (and grade ``max_p``, if given).

    Family "A" sweeps G(k,n) with k <= n/2 and n <= max_rank + 1, "C" the
    symplectic flavor with 2 <= n <= max_rank, "D" the orthogonal flavor
    with 3 <= n <= max_rank.  Yields (k, n, p, closed-form l, oracle
    witness), with k None outside family A.
    """
    if max_p is not None and max_p < 0:
        raise ValueError(f"max_p={max_p} must be nonnegative")
    if family == "A":
        spaces = [(k, n, k * (n - k)) for n in range(2, max_rank + 2)
                 for k in range(1, n // 2 + 1)]
    elif family == "C":
        spaces = [(None, n, n * (n + 1) // 2) for n in range(2, max_rank + 1)]
    elif family == "D":
        spaces = [(None, n, n * (n - 1) // 2) for n in range(3, max_rank + 1)]
    else:
        raise ValueError(f"unknown family {family!r}; expected A, C or D")
    for k, n, top in spaces:
        for p in range(1, (top if max_p is None else min(top, max_p)) + 1):
            if family == "A":
                yield k, n, p, min_twist_grass(k, n, p), min_twist_grass_oracle(k, n, p)
            elif family == "C":
                yield k, n, p, min_twist_lagr(p), min_twist_lagr_oracle(n, p)
            else:
                yield k, n, p, min_twist_spinor(p), min_twist_spinor_oracle(n, p)
