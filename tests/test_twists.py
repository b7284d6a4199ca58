import pytest

from cominuscule import parse_space, rootsys, twists
from cominuscule.catalog import (
    cayley,
    freudenthal,
    grassmannian,
    iter_catalog_specs,
    lagrangian,
    quadric,
    spinor,
)
from cominuscule.partitions import min_twist_lagr
from cominuscule.plethysm import DecompositionError, IrreducibleSummand, omega_decompose
from cominuscule.rootsys import is_dominant
from cominuscule.twists import (
    closed_form_l,
    h0_dim,
    min_twist,
    nonvanishing_scan,
    table_audit,
)


def test_h0_dim_dominance_gate():
    spec = cayley()
    cot = omega_decompose(spec, 1).summands[0]
    assert h0_dim(spec, cot, 1) == 0  # marked coordinate still negative
    assert h0_dim(spec, cot, 2) == spec.ambient.weyl_dim((0, 0, 1, 0, 0, 0))
    # raw weights are accepted too
    assert h0_dim(spec, (-2, 0, 1, 0, 0, 0), 2) == h0_dim(spec, cot, 2)


def _summands_near_l():
    """(spec, summands of Omega^p, l(p)) for every catalog space up to rank 8
    and every p >= 1."""
    return [(spec, omega_decompose(spec, p).summands, min_twist(spec, p).l)
            for spec in iter_catalog_specs(8) for p in range(1, spec.dim + 1)]


def _expected_h0(spec, weight, t):
    k = spec.marked_node - 1
    twisted = tuple(x + t if i == k else x for i, x in enumerate(weight))
    return spec.ambient.weyl_dim(twisted) if is_dominant(twisted) else 0


def test_h0_dim_is_the_weyl_dimension_of_a_dominant_twist():
    # at l(p) - 2 ... l(p) + 3, for summand objects and raw tuples, and for
    # raw tuples made negative on a node other than the marked one
    counts = {"zero": 0, "nonzero": 0, "not Levi-dominant": 0}
    for spec, summands, l in _summands_near_l():
        k = spec.marked_node - 1
        j = (k + 1) % spec.ambient.rank
        for s in summands:
            w = s.highest_weight
            bent = w[:j] + (-1,) + w[j + 1:]
            for t in range(l - 2, l + 4):
                want = _expected_h0(spec, w, t)
                assert h0_dim(spec, s, t) == h0_dim(spec, w, t) == want
                counts["nonzero" if want else "zero"] += 1
                if j != k:
                    assert h0_dim(spec, bent, t) == 0
                    counts["not Levi-dominant"] += 1
    assert min(counts.values()) > 2000, counts


def test_h0_below_the_minimal_twist_computes_no_weyl_dimension(monkeypatch):
    # below l(p) every summand has a negative marked coordinate, and a twist
    # moves only that coordinate: h0_dim answers 0 before any Weyl dimension
    cases = _summands_near_l()
    calls = []
    tree_sums = rootsys._tree_sums
    weyl_dim = rootsys.RootSystem.weyl_dim
    monkeypatch.setattr(rootsys, "_tree_sums",
                        lambda *a: calls.append("chain") or tree_sums(*a))
    monkeypatch.setattr(rootsys.RootSystem, "weyl_dim",
                        lambda self, w: calls.append("weyl_dim") or weyl_dim(self, w))
    for spec, summands, l in cases:
        assert sum(h0_dim(spec, s, l - 1) for s in summands) == 0
        assert sum(h0_dim(spec, s.highest_weight, l - 1) for s in summands) == 0
    assert calls == []
    # the spies see the paths that do compute one: a summand multiplies the
    # radical's factors onto its Levi dimension, a bare weight takes them all
    spec, summands, l = cases[0]
    assert h0_dim(spec, summands[0], l) > 0
    assert calls == ["chain"]
    assert h0_dim(spec, summands[0].highest_weight, l) > 0
    assert calls == ["chain", "weyl_dim", "chain"]


def _h0_total(spec, p, t):
    return sum(h0_dim(spec, s, t) for s in omega_decompose(spec, p).summands)


@pytest.mark.parametrize("first, second", [
    ("IG:2", "Q:3"), ("OG:4", "Q:6"), ("OG:3", "G:1:4"), ("Q:4", "G:2:4"),
    ("G:2:5", "G:3:5"), ("G:2:6", "G:4:6"), ("G:3:7", "G:4:7")])
def test_isomorphic_presentations_agree(first, second):
    # one variety through two specs, with different families, routes, closed
    # forms and Levi weights: what belongs to X itself must agree.  IG:2,
    # OG:4 and G:2:4 set a partition fast path against Kostant's walk
    a, b = parse_space(first), parse_space(second)
    assert a.dim == b.dim
    for p in range(1, a.dim + 1):
        l = min_twist(a, p).l
        assert min_twist(b, p).l == l, p
        for t in range(l - 1, l + 4):
            assert _h0_total(a, p, t) == _h0_total(b, p, t), (p, t)


def test_h0_dim_refuses_a_weight_of_the_wrong_length():
    # refused before the marked coordinate is read, at any twist
    spec = freudenthal()
    for w in ((0,) * 6 + (1, 5), (0,) * 6, (0, 0, 0)):
        for l in (-100, 0, 100):
            with pytest.raises(ValueError, match="E7 weights have length 7$"):
                h0_dim(spec, w, l)


def test_h0_dim_lagrangian_rectangle():
    # triangular p: the witness is the (a+1) x a rectangle and the section
    # space is the module with highest weight (a+1) l_{n-a}
    spec = lagrangian(4)
    report = min_twist(spec, 3)  # a = 2
    assert report.l == 3
    (witness,) = report.witnesses
    assert witness.highest_weight == (0, 3, 0, -3)
    assert report.h0_dim == spec.ambient.weyl_dim((0, 3, 0, 0))


def test_min_twist_monotone_witness():
    spec = grassmannian(2, 5)
    report = min_twist(spec, 3)
    for extra in (0, 1, 2):
        assert h0_dim(spec, report.witnesses[0], report.l + extra) >= 1
    assert all(h0_dim(spec, w, report.l - 1) == 0 for w in report.witnesses)


def test_min_twist_out_of_range():
    with pytest.raises(ValueError):
        min_twist(quadric(4), 0)
    with pytest.raises(ValueError):
        min_twist(quadric(4), 5)


def test_min_twist_cayley_p8():
    report = min_twist(cayley(), 8)
    assert (report.l, report.degree) == (8, -1)
    assert [w.highest_weight for w in report.witnesses] == [(-8, 0, 0, 0, 0, 4)]
    assert report.h0_dim == cayley().ambient.weyl_dim((0, 0, 0, 0, 0, 4))


def test_min_twist_freudenthal_p17():
    report = min_twist(freudenthal(), 17)
    assert report.l == 16


def test_quadric_closed_form_and_force_plethysm():
    for m in (4, 5, 8):
        spec = quadric(m)
        for p in range(1, m):
            report = min_twist(spec, p)
            assert report.l == p + 1
            assert report.witnesses
            assert all(h0_dim(spec, w, p) == 0 for w in
                       omega_decompose(spec, p).summands)


def test_top_form_is_canonical():
    for spec in [grassmannian(2, 5), lagrangian(3), spinor(4), quadric(5), cayley()]:
        report = min_twist(spec, spec.dim)
        assert report.l == spec.index_c1
        assert report.h0_dim == 1
        (w,) = report.witnesses
        twisted = tuple(x + (report.l if i == spec.marked_node - 1 else 0)
                        for i, x in enumerate(w.highest_weight))
        assert twisted == (0,) * spec.ambient.rank


@pytest.mark.parametrize("spec", [grassmannian(3, 8), lagrangian(5), spinor(6)])
def test_min_twist_agrees_with_closed_form(spec):
    for p in range(1, spec.dim + 1):
        report = min_twist(spec, p)
        assert report.l == closed_form_l(spec, p)


def test_table_audit_e6_finds_single_transcription_mismatch():
    audit = table_audit("E6")
    assert len(audit.rows) == 15
    assert all(r.l_match for r in audit.rows)
    bad = [r for r in audit.rows if not r.weights_match]
    assert [r.p for r in bad] == [8]
    # the printed middle summand of the p = 8 row has coefficient 6 on the
    # last fundamental; the recomputation (pinned by the exact rank identity
    # 660 + 8085 + 4125 = C(16,8)) gives 2
    row = bad[0]
    assert (-9, 1, 1, 0, 0, 6) in row.table_weights
    assert (-9, 1, 1, 0, 0, 2) in row.computed_weights
    assert not audit.ok and audit.mismatches == (row,)


def test_table_audit_e7_matches_completely():
    audit = table_audit("E7")
    assert len(audit.rows) == 26
    assert audit.ok
    # the interleaved-twist row is a confirmed match, not a typo
    row15 = next(r for r in audit.rows if r.p == 15)
    assert (0, 0, 3, 0, 0, 0, -14) in row15.computed_weights
    assert row15.weights_match and row15.l_match and row15.computed_l == 14


def test_table_audit_rejects_unknown():
    with pytest.raises(ValueError):
        table_audit("E8")


def test_nonvanishing_scan_small():
    scan = nonvanishing_scan(4)
    assert scan.violations == ()
    named = {(e.space, e.p) for e in scan.exceptions}
    assert named == {("Q:3", 3), ("IG:2", 3), ("IG:3", 3), ("IG:4", 3)}
    for e in scan.exceptions:
        assert e.l == 3 and "Lagrangian" in e.note
    # every catalog space contributes its full grade range to the evidence
    total = sum(s.dim for s in iter_catalog_specs(4))
    assert len(scan.entries) == total


def test_scan_degrees_follow_shift():
    scan = nonvanishing_scan(3)
    for e in scan.entries:
        assert e.degree == e.l - e.p - 1


def test_lagrangian_exception_via_min_twist():
    # the permitted exception is a genuine section space
    report = min_twist(lagrangian(3), 3)
    assert report.l == 3 == min_twist_lagr(3)
    assert report.h0_dim >= 1


# -- checks that raise ----------------------------------------------------------


def test_a_closed_form_disagreement_raises_a_decomposition_error(monkeypatch):
    real = twists.closed_form_l
    monkeypatch.setattr(twists, "closed_form_l", lambda spec, p: real(spec, p) + 1)
    with pytest.raises(DecompositionError, match=(
            r"^G:2:5, p=3: closed form gives l=5, CauchyA gives l=4$")):
        min_twist(grassmannian(2, 5), 3)
