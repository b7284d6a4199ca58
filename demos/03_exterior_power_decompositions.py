"""Decomposing the exterior powers of the cotangent bundle.

Four independent routes agree: the partition-indexed fast paths
(tensor-square, symmetric-square, alternating-square Cauchy formulas),
Kostant's theorem (one summand per minimal coset representative), and the
general weight engine (Newton's identities over the cotangent weights,
each product read off by the Brauer-Klimyk rule).  The quadrics and the exceptional spaces have no
partition fast path; Kostant's route answers them, and the engine, run when
forced, checks every route from first principles.
"""

from math import comb

from cominuscule import (
    cauchy_decompose,
    cayley,
    freudenthal,
    grassmannian,
    hooks_decompose,
    lagrangian,
    omega_decompose,
)


def show(report):
    terms = []
    for s in report.summands:
        w = " ".join(f"{c:+d}l{i+1}" for i, c in enumerate(s.highest_weight) if c)
        terms.append(f"[{w}] (dim {s.levi_dim})")
    print(f"  p={report.p:2d}  " + "  ".join(terms))


# Ordinary Grassmannian: one summand per partition of p in the box.
print("G(2,5), all exterior powers, via the tensor-square Cauchy formula:")
for p in range(7):
    show(omega_decompose(grassmannian(2, 5), p))
print("partitions at p = 3:",
      [mu for mu, _ in cauchy_decompose(2, 5, 3)])

# The same answers come out of the weight engine.
for p in range(7):
    fast = omega_decompose(grassmannian(2, 5), p)
    dp = omega_decompose(grassmannian(2, 5), p, method="WeightDP")
    assert fast.weights() == dp.weights()
print("weight engine agrees with the Cauchy route on G(2,5)\n")

# Symplectic flavor: hook-class indexing.
print("IG(3,6) at p = 3 (the a = 2 rectangle appears):")
for mu, s in hooks_decompose(lagrangian(3), 3):
    print(f"  {mu}: weight {s.highest_weight}, dim {s.levi_dim}")

# The Cayley plane: 16 grades, 27 summands in total, every rank identity
# exact.  The full run takes well under a second.
print("\nCayley plane, all 16 grades:")
total = 0
for p in range(17):
    report = omega_decompose(cayley(), p)
    total += len(report.summands)
    expected, got = report.rank_identity()
    assert expected == got == comb(16, p)
    show(report)
print("summand count across all grades:", total)

# The 27-dimensional Freudenthal variety: every grade is read off one pass
# over its 56 minimal coset representatives.
print("\nFreudenthal variety, a few grades:")
for p in (9, 15, 18, 26):
    show(omega_decompose(freudenthal(), p))
