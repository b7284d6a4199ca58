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

from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple

from .catalog import catalog_params
from .rootsys import DecompositionError

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
    if size > cap * (cap + 1) // 2:  # more than cap + (cap - 1) + ... + 1
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
    """The arm = leg - 1 hook class of 2p, at most n rows: the transposes of
    the arm = leg + 1 class with at most n - 1 rows, sorted likewise."""
    if p < 1 or n < 1:
        raise ValueError("need p >= 1 and n >= 1")
    return sorted(map(dual, hooks_q1(p, n - 1)), reverse=True) if n > 1 else []


class MinTwistWitness(NamedTuple):
    """Minimum of a dominance cost over a partition class, with all minimizers.

    ``criterion`` names the cost that was minimized (one of COST_A, COST_C,
    COST_D); ``box`` records the (rows, width) bounding box that was
    enumerated, after any k -> min(k, n-k) normalization.
    """

    l: int
    partitions: tuple[Partition, ...]
    criterion: str
    box: tuple[int, int] | None = None


def _minimize(mus: Iterable[Partition], cost: Callable[[Partition], int],
              criterion: str, box: tuple[int, int] | None = None) -> MinTwistWitness:
    """The least cost over a nonempty partition class, with every minimizer
    in enumeration order; one pass, one cost per partition."""
    best, mins = None, []
    for mu in mus:
        c = cost(mu)
        if best is None or c < best:
            best, mins = c, [mu]
        elif c == best:
            mins.append(mu)
    return MinTwistWitness(best, tuple(mins), criterion, box)


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
    return _minimize(partitions_in_box(p, k, width), lambda mu: mu[0] + len(mu),
                     COST_A, box=(k, width))


def min_twist_lagr(p: int) -> int:
    """Minimal twist for p-forms in the symplectic flavor:
    ceil(sqrt(2p) + 1/2), evaluated exactly."""
    if p < 1:
        raise ValueError("need p >= 1")
    # the least l with (2l - 1)^2 >= 8p
    return (_ceil_sqrt(8 * p) + 2) // 2


def min_twist_lagr_oracle(n: int, p: int) -> MinTwistWitness:
    """Exhaustive minimization of mu_1 over the arm = leg + 1 class."""
    if not 1 <= p <= n * (n + 1) // 2:
        raise ValueError(f"p={p} out of range 1..{n * (n + 1) // 2} for n={n}")
    return _minimize(hooks_q1(p, n), lambda mu: mu[0], COST_C)


def _spinor_parameters(p: int) -> tuple[int, int]:
    # a = ceil(sqrt(2p) - 1/2), the least a with (2a + 1)^2 >= 8p; write
    # 2p = a(a+1) - 2b with 0 <= b < a.
    a = _ceil_sqrt(8 * p) // 2
    b2 = a * (a + 1) - 2 * p
    if b2 < 0 or b2 % 2:
        raise DecompositionError(f"2p = a(a+1) - 2b failed at p={p}, a={a}, 2b={b2}")
    b = b2 // 2
    if not 0 <= b < max(a, 1):
        raise DecompositionError(f"b={b} out of range for a={a}")
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
    return _minimize(hooks_qm1(p, n), lambda mu: sum(mu[:2]), COST_D)


def closed_form_cases(family: str, max_rank: int
                      ) -> Iterator[tuple[int | None, int, int, int, MinTwistWitness]]:
    """Every case on which a family's closed form is checked against its
    oracle, up to an ambient rank.

    Family "A" sweeps the catalog's G(k,n), "C" its IG:n and "D" its OG:n
    (``catalog_params``).  Yields (k, n, p, closed-form l, oracle witness),
    with k None outside family A.
    """
    params = catalog_params(max_rank)
    if family == "A":
        yield from ((k, n, p, min_twist_grass(k, n, p), min_twist_grass_oracle(k, n, p))
                    for k, n in params["grassmannian"]
                    for p in range(1, k * (n - k) + 1))
    elif family == "C":
        yield from ((None, n, p, min_twist_lagr(p), min_twist_lagr_oracle(n, p))
                    for (n,) in params["lagrangian"]
                    for p in range(1, n * (n + 1) // 2 + 1))
    elif family == "D":
        yield from ((None, n, p, min_twist_spinor(p), min_twist_spinor_oracle(n, p))
                    for (n,) in params["spinor"]
                    for p in range(1, n * (n - 1) // 2 + 1))
    else:
        raise ValueError(f"unknown family {family!r}; expected A, C or D")
