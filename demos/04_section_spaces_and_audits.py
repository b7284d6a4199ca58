"""Minimal twists, section dimensions, and the reference-table audits.

A twisted summand has sections exactly when its shifted weight is dominant,
so the minimal twist of a form bundle is read off the marked coefficients of
its summands, and the section space at the minimum is an explicit
irreducible module.
"""

from cominuscule import (
    cayley,
    grassmannian,
    h0_dim,
    lagrangian,
    min_twist,
    nonvanishing_scan,
    omega_decompose,
    quadric,
    table_audit,
)

# Minimal twists with witnesses.
for space, p in [(grassmannian(3, 9), 7), (lagrangian(4), 3), (cayley(), 8)]:
    r = min_twist(space, p)
    print(f"{r.space}: l({p}) = {r.l}, degree shift {r.degree}, "
          f"h0 = {r.h0_dim}, witnesses {[w.highest_weight for w in r.witnesses]}")

# Quadrics: nothing at twist p, sections at p + 1.
spec = quadric(8)
for p in (2, 5):
    report = min_twist(spec, p)
    at_p = sum(h0_dim(spec, s, p) for s in omega_decompose(spec, p).summands)
    print(f"Q:8, p={p}: h0 at twist {p} is {at_p}, first sections at {report.l}")

# Low-twist scan: sections at twist 2 only for 1-forms; at twist 3 only for
# p <= 2, except the symplectic p = 3 family.
scan = nonvanishing_scan(6)
print(f"\nscan at rank 6: {len(scan.violations)} violations; exceptions:")
for e in scan.exceptions:
    print(f"  {e.space} p={e.p} l={e.l}  ({e.note})")

# Audits of the transcribed exceptional tables.  Kostant's route recomputes
# every row; the 27-dimensional table matches completely, while the
# 16-dimensional one has a single bad cell in its p = 8 row (a transcription
# typo, pinned by the exact rank identity 660 + 8085 + 4125 = C(16,8)).
for which in ("E6", "E7"):
    audit = table_audit(which)
    status = "all rows match" if audit.ok else \
        f"mismatch at rows {[r.p for r in audit.mismatches]}"
    print(f"\n{which} audit: {status}")
    for row in audit.mismatches:
        print("  computed:", row.computed_weights)
        print("  printed: ", row.table_weights)
