"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and asserting at the stated tolerance (exact integers throughout; time and
memory budgets where specified).

Two criteria check the engine against reference material that the engine
proves wrong in one place each, and they assert those findings exactly:

* criterion 1 requires the recomputed Cayley-plane table to reproduce every
  row of the verbatim transcription except one cell of the p = 8 row, whose
  printed weight has the wrong Levi dimension for the rank identity; the
  computed weight is proved right by the same identity;
* criterion 4 requires the named two-element minimizer set for
  (k, p) = (3, 10) to be the exhaustive minimizer set less exactly one
  partition of equal cost, checked against a brute-force enumeration.

Either goes red if its finding disappears or moves.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import resource
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

from cominuscule.catalog import (
    cayley,
    freudenthal,
    grassmannian,
    iter_catalog_specs,
    lagrangian,
    quadric,
    spinor,
)
from cominuscule.foliations import cayley_family, orthogonal_family, symplectic_family
from cominuscule.partitions import (
    closed_form_cases,
    dual,
    min_twist_grass,
    min_twist_grass_oracle,
    min_twist_lagr_oracle,
    min_twist_spinor_oracle,
)
from cominuscule.plethysm import _kostant_levels, _route_summands, omega_decompose
from cominuscule.twists import h0_dim, min_twist, nonvanishing_scan, table_audit

GIB = 2 ** 30


def _line(num: int, ok: bool, desc: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


def _peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# The one cell of the Cayley-plane table that the engine proves wrong: the
# row p = E6_TYPO_ROW prints E6_TYPO_PRINTED where the engine computes
# E6_TYPO_COMPUTED.  tables.py stays a verbatim transcription.
E6_TYPO_ROW = 8
E6_TYPO_PRINTED = (-9, 1, 1, 0, 0, 6)
E6_TYPO_COMPUTED = (-9, 1, 1, 0, 0, 2)


def _dim_sum(dims: list[int]) -> str:
    return f"{' + '.join(map(str, dims))} = {sum(dims)}"


def test_criterion_01_e6_table_reproduction():
    t0 = time.monotonic()
    audit = table_audit("E6")
    elapsed = time.monotonic() - t0
    peak = _peak_rss()
    spec = cayley()
    rank = comb(spec.dim, E6_TYPO_ROW)
    row = next(r for r in audit.rows if r.p == E6_TYPO_ROW)
    printed, computed = Counter(row.table_weights), Counter(row.computed_weights)
    printed_dims = [spec.levi.weyl_dim(w) for w in row.table_weights]
    computed_dims = [spec.levi.weyl_dim(w) for w in row.computed_weights]
    mismatched = [r.p for r in audit.mismatches]

    budget = elapsed <= 60 and peak <= GIB
    all_l = len(audit.rows) == 15 and all(r.l_match for r in audit.rows)
    only_typo_row = mismatched == [E6_TYPO_ROW]
    one_cell = (printed - computed == Counter([E6_TYPO_PRINTED])
                and computed - printed == Counter([E6_TYPO_COMPUTED]))
    proved = sum(computed_dims) == rank != sum(printed_dims)
    ok = budget and all_l and only_typo_row and one_cell and proved
    _line(1, ok, f"E6 table: {sum(r.ok for r in audit.rows)}/"
                 f"{len(audit.rows)} rows verbatim, row p={E6_TYPO_ROW} "
                 f"computed Levi dims {_dim_sum(computed_dims)} of {rank}, "
                 f"{elapsed:.1f}s, peak {peak / GIB:.2f} GiB")
    assert budget, (elapsed, peak)
    assert all_l, [(r.p, r.table_l, r.computed_l) for r in audit.rows]
    assert only_typo_row, (
        f"expected exactly row p={E6_TYPO_ROW} to differ from the "
        f"transcription, got mismatching rows {mismatched}")
    assert one_cell, (
        f"row p={E6_TYPO_ROW}: expected printed {E6_TYPO_PRINTED} against "
        f"computed {E6_TYPO_COMPUTED} and nothing else; printed only "
        f"{sorted(printed - computed)}, computed only "
        f"{sorted(computed - printed)}")
    assert proved, (
        f"row p={E6_TYPO_ROW}: Levi dimensions of the computed weights "
        f"{_dim_sum(computed_dims)}, of the printed weights "
        f"{_dim_sum(printed_dims)}; the rank identity needs "
        f"C({spec.dim},{E6_TYPO_ROW}) = {rank}")


def test_criterion_02_e7_table_reproduction(engine_horizons):
    # start from no engine levels and no cached answers, so the horizon below
    # is this test's own and not one left by an earlier test
    _route_summands.cache_clear()
    _kostant_levels.cache_clear()
    spec = freudenthal()
    t0 = time.monotonic()
    audit = table_audit("E7")
    # the audit reads Kostant's route; a forced engine pass over every grade
    # recomputes each row independently
    engine = {p: tuple(sorted(omega_decompose(spec, p, method="WeightDP")
                              .weights(), reverse=True))
              for p in range(spec.dim + 1)}
    elapsed = time.monotonic() - t0
    peak = _peak_rss()
    horizon = max(engine_horizons["E7"])
    disagree = [r.p for r in audit.rows if engine[r.p] != r.computed_weights]
    ok = (audit.ok and len(audit.rows) == 26 and elapsed <= 600
          and peak <= 4 * GIB and horizon <= 14 and not disagree)
    _line(2, ok, f"E7 table: {sum(r.ok for r in audit.rows)}/26 rows match, "
                 f"{elapsed:.1f}s, peak {peak / GIB:.2f} GiB, duality shortcut "
                 f"horizon {horizon}")
    assert elapsed <= 600 and peak <= 4 * GIB
    assert len(audit.rows) == 26
    # the engine's high grades must come from the duality shortcut, not
    # from Newton's identities
    assert horizon <= 14, horizon
    assert not disagree, disagree
    # the interleaved-twist row surfaces as an explicit, crash-free verdict
    row15 = next(r for r in audit.rows if r.p == 15)
    assert isinstance(row15.weights_match, bool)
    assert (0, 0, 3, 0, 0, 0, -14) in row15.computed_weights
    assert audit.ok, [r.p for r in audit.mismatches]


def test_criterion_03_closed_form_vs_oracle():
    t0 = time.monotonic()
    # G(k,n) for k <= 8, 2k <= n <= 16; both hook flavors for n <= 10
    for family, max_rank in (("A", 15), ("C", 10), ("D", 10)):
        for k, n, p, l, oracle in closed_form_cases(family, max_rank):
            assert l == oracle.l, (family, k, n, p)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 60
    _line(3, ok, f"closed form equals oracle on all three families, {elapsed:.1f}s")
    assert ok


def _brute_grass_minimizers(k: int, n: int, p: int) -> tuple[int, set]:
    """Minimum of mu_1 + mu_1' over partitions of p with at most k rows and
    parts at most n - k, and all its minimizers, by filtering every k-tuple
    of row lengths."""
    found: dict[int, set] = {}
    for rows in product(range(n - k + 1), repeat=k):
        if sum(rows) != p or list(rows) != sorted(rows, reverse=True):
            continue
        mu = tuple(x for x in rows if x)
        found.setdefault(mu[0] + len(mu), set()).add(mu)
    best = min(found)
    return best, found[best]


def test_criterion_04_named_minimal_partition_sets():
    w7 = min_twist_grass_oracle(3, 9, 7)
    p7_ok = set(w7.partitions) == {(4, 3), (3, 3, 1), (3, 2, 2)}

    # The named p = 10 set is written in the conjugate (at-most-k-columns)
    # convention and omits one minimizer of equal cost.  Whether the source
    # lists minimizers only up to some equivalence cannot be settled from
    # the abstract, so only what is provable is pinned.
    w10 = min_twist_grass_oracle(3, 10, 10)
    named = {(2, 2, 2, 2, 2), (3, 3, 3, 1)}
    l10 = min_twist_grass(3, 10, 10)
    brute_l, brute = _brute_grass_minimizers(3, 10, 10)
    conjugates = {dual(mu) for mu in w10.partitions}
    complete = set(w10.partitions) == brute and w10.l == brute_l == l10 == 7
    conj_ok = conjugates == {(2, 2, 2, 2, 2), (3, 3, 2, 2), (3, 3, 3, 1)}
    named_short = named < conjugates and conjugates - named == {(3, 3, 2, 2)}
    costs_ok = all(mu[0] + len(mu) == l10 for mu in conjugates)
    p10_ok = complete and conj_ok and named_short and costs_ok
    _line(4, p7_ok and p10_ok,
          f"named minimizer sets: p=7 {'ok' if p7_ok else 'mismatch'}, "
          f"p=10 named set is the conjugated oracle set less "
          f"{sorted(conjugates - named)}, all of cost {l10}")
    assert p7_ok, w7.partitions
    assert complete, (
        f"oracle {sorted(w10.partitions)} at cost {w10.l} in the {w10.box} "
        f"box; brute force {sorted(brute)} at cost {brute_l}; closed form "
        f"{l10}")
    assert conj_ok, sorted(conjugates)
    assert named_short, (
        f"named {sorted(named)} against the conjugated oracle set "
        f"{sorted(conjugates)}: missing {sorted(conjugates - named)}, extra "
        f"{sorted(named - conjugates)}")
    assert costs_ok, {mu: mu[0] + len(mu) for mu in conjugates}


def test_criterion_05_rank_identity():
    t0 = time.monotonic()
    specs = []
    for k in range(1, 7):
        for n in range(2 * k, 38):
            if k * (n - k) <= 36:
                specs.append(grassmannian(k, n))
    specs += [lagrangian(n) for n in range(2, 9)]
    specs += [spinor(n) for n in range(3, 10)]
    specs += [quadric(m) for m in range(3, 13)]
    checked = 0
    for spec in specs:
        for p in range(0, spec.dim + 1):
            expected, got = omega_decompose(spec, p).rank_identity()
            assert expected == got == comb(spec.dim, p), (spec.name, p)
            checked += 1
    for p in range(0, 17):
        expected, got = omega_decompose(cayley(), p).rank_identity()
        assert expected == got == comb(16, p), p
        checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed <= 120
    _line(5, ok, f"rank identity on {checked} (space, p) pairs, {elapsed:.1f}s")
    assert ok


def test_criterion_06_path_agreement():
    t0 = time.monotonic()
    specs = []
    for k in range(1, 5):
        for n in range(2 * k, 23):
            if k * (n - k) <= 21:
                specs.append(grassmannian(k, n))
    specs += [lagrangian(n) for n in range(2, 7)]
    specs += [spinor(n) for n in range(3, 8)]
    checked = 0
    for spec in specs:
        for p in range(0, spec.dim + 1):
            fast = omega_decompose(spec, p)
            dp = omega_decompose(spec, p, method="WeightDP")
            assert fast.weights() == dp.weights(), (spec.name, p)
            assert [s.levi_dim for s in fast.summands] == \
                [s.levi_dim for s in dp.summands], (spec.name, p)
            checked += 1
    elapsed = time.monotonic() - t0
    _line(6, True, f"fast paths equal weight engine on {checked} instances, "
                   f"{elapsed:.1f}s")


def test_criterion_07_low_twist_scan():
    scan = nonvanishing_scan(6)
    no_violations = not scan.violations
    exceptions = scan.exceptions
    all_lagr_p3 = all(e.p == 3 and e.l == 3 and "Lagrangian" in e.note
                      for e in exceptions)
    ig_spaces = {s.name for s in iter_catalog_specs(6)
                 if s.family == "lagrangian" and s.dim >= 3}
    seen = {e.space for e in exceptions}
    ig_all_present = ig_spaces <= seen
    extras = seen - ig_spaces
    only_iso_extras = extras <= {"Q:3"}  # the Lagrangian in quadric clothing
    ok = no_violations and all_lagr_p3 and ig_all_present and only_iso_extras
    _line(7, ok, f"scan at rank 6: {len(scan.violations)} violations, "
                 f"exceptions {sorted(seen)}")
    assert no_violations and all_lagr_p3 and ig_all_present and only_iso_extras


def test_criterion_08_quadric_closed_form():
    for m in range(3, 13):
        spec = quadric(m)
        for p in range(1, m):
            report = min_twist(spec, p)
            assert report.l == p + 1, (m, p)
            vanish = sum(h0_dim(spec, s, p)
                         for s in omega_decompose(spec, p).summands)
            assert vanish == 0, (m, p)
    _line(8, True, "quadrics 3..12: no sections at twist p, first sections at p+1")


def test_criterion_09_family_consistency():
    for n in range(2, 11):
        for a in range(1, n - 1):
            fam = symplectic_family(n, a)
            assert fam.l == min_twist_lagr_oracle(n, fam.p).l, (n, a)
    for n in range(3, 11):
        for a in range(1, n - 1):
            fam = orthogonal_family(n, a)
            assert fam.l == min_twist_spinor_oracle(n, fam.p).l, (n, a)
    fam = cayley_family()
    audit_row8 = next(r for r in table_audit("E6").rows if r.p == 8)
    assert (fam.p, fam.l, fam.degree) == (8, 8, -1)
    assert fam.l == audit_row8.computed_l == audit_row8.table_l
    _line(9, True, "projection families match oracles; Cayley family "
                   "consistent with the recomputed p=8 row")


def test_criterion_10_twist_identity_cross_check():
    checked = 0
    specs = []
    for k in range(1, 6):
        for n in range(2 * k, 29):
            if k * (n - k) <= 27:
                specs.append(grassmannian(k, n))
    specs += [lagrangian(n) for n in range(2, 7)]
    specs += [spinor(n) for n in range(3, 8)]
    specs += [quadric(m) for m in range(3, 13)]
    specs += [cayley(), lagrangian(2)]
    specs.append(freudenthal())
    for spec in specs:
        rs = spec.ambient
        k = spec.marked_node - 1
        lam_k = tuple(1 if i == k else 0 for i in range(rs.rank))
        kk = rs.pairing(lam_k, lam_k)
        lam = spec.cotangent_weight
        for p in range(0, spec.dim + 1):
            for s in omega_decompose(spec, p).summands:
                rho = tuple(0 if i == k else x
                            for i, x in enumerate(s.highest_weight))
                a = (Fraction(p) * rs.pairing(lam, lam_k)
                     - rs.pairing(rho, lam_k)) / kk
                assert a.denominator == 1, (spec.name, p, s.highest_weight)
                assert int(a) == s.highest_weight[k], (spec.name, p)
                checked += 1
    _line(10, True, f"twist slope identity exact on {checked} summands")
