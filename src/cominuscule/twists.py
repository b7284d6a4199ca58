"""Degree-zero Bott-Borel-Weil answers: minimal twists and section spaces.

For a homogeneous bundle E_b on a cominuscule space, H^0(E_b(l)) is nonzero
exactly when b + l*l_k is dominant for the ambient group, in which case its
dimension is the Weyl dimension of that weight.  Since every summand of an
exterior power is Levi-dominant away from the marked node, the minimal twist
of one summand is just the negated marked coefficient, and l(p) is the
minimum over summands; dominance at l implies dominance at every l' >= l, so
higher twists never vanish again.

Every family except the exceptional spaces has a closed form for l(p) (for
quadrics l(p) = p + 1 when p < dim); ``min_twist`` reads l(p) off the
decomposition and raises if the closed form disagrees.  Global generation of
the critically twisted form bundle on quadrics is a sheaf statement outside
this module's scope and is deliberately not modeled.
"""

from __future__ import annotations

from typing import NamedTuple

from . import tables
from .catalog import GrassmannianSpec, cayley, freudenthal, iter_catalog_specs
from .partitions import min_twist_grass, min_twist_lagr, min_twist_spinor
from .plethysm import DecompositionError, IrreducibleSummand, omega_decompose
from .rootsys import Weight


class MinTwistReport(NamedTuple):
    """Minimal twist l(p) with its Bott-Borel-Weil witnesses.

    ``degree`` is the foliation-degree shift l - p - 1; ``h0_dim`` is the
    dimension of the first nonvanishing section space, summed over witness
    summands.
    """

    spec: GrassmannianSpec
    p: int
    l: int
    degree: int
    witnesses: tuple[IrreducibleSummand, ...]
    h0_dim: int
    method: str

    @property
    def space(self) -> str:
        return self.spec.name


def h0_dim(spec: GrassmannianSpec, summand, l: int) -> int:
    """dim H^0 of one twisted summand: 0 unless the twisted weight is
    dominant, else the ambient Weyl dimension.

    A twist moves only the marked coordinate, so a negative marked
    coordinate answers 0 at once; otherwise the Weyl dimension decides
    dominance.  A summand brings its Levi dimension, which a twist leaves
    alone, so only the radical's factors are multiplied
    (``LeviSubsystem.ambient_weyl_dim``); a bare weight takes the full
    product.
    """
    if isinstance(summand, IrreducibleSummand):
        weight, levi_dim = summand.highest_weight, summand.levi_dim
    else:
        weight, levi_dim = tuple(summand), None
    ambient = spec.ambient
    ambient.check_length(weight)
    k = spec.marked_node - 1
    marked = weight[k] + l
    if marked < 0:
        return 0
    twisted = weight[:k] + (marked,) + weight[k + 1:]
    try:
        if levi_dim is None:
            return ambient.weyl_dim(twisted)
        return spec.levi.ambient_weyl_dim(twisted, levi_dim)
    except ValueError:  # a coordinate other than the marked one is negative
        return 0


def closed_form_l(spec: GrassmannianSpec, p: int) -> int | None:
    """The per-family closed form for l(p), or None for exceptional spaces."""
    if not 1 <= p <= spec.dim:
        raise ValueError(f"p={p} out of range 1..{spec.dim} for {spec.name}")
    if spec.family == "grassmannian":
        return min_twist_grass(*spec.params, p)
    if spec.family == "lagrangian":
        return min_twist_lagr(p)
    if spec.family == "spinor":
        return min_twist_spinor(p)
    if spec.family in ("quadric_odd", "quadric_even"):
        # Hypersurface argument: no sections at twist p, sections at p + 1.
        return spec.index_c1 if p == spec.dim else p + 1
    return None


def _min_l(spec: GrassmannianSpec, summands) -> int:
    """l(p) read off a decomposition: the smallest twist making some summand
    dominant, i.e. the least negated marked coefficient."""
    k = spec.marked_node - 1
    return min(-s.highest_weight[k] for s in summands)


def min_twist(spec: GrassmannianSpec, p: int) -> MinTwistReport:
    """Minimal twist report for the p-th exterior power.

    The summand decomposition always comes from the family's preferred path;
    l(p) is the smallest twist making some summand dominant.  For families
    with a closed form the two answers are cross-checked and a disagreement
    raises ``DecompositionError`` (it would falsify a theorem, i.e. reveal a
    bug).
    """
    formula = closed_form_l(spec, p)
    report = omega_decompose(spec, p)
    l = _min_l(spec, report.summands)
    if formula is not None and formula != l:
        raise DecompositionError(
            f"{spec.name}, p={p}: closed form gives l={formula}, "
            f"{report.method} gives l={l}")
    k = spec.marked_node - 1
    witnesses = tuple(s for s in report.summands
                      if -s.highest_weight[k] == l)
    h0 = sum(h0_dim(spec, s, l) for s in witnesses)
    if h0 < 1:
        raise DecompositionError(
            f"{spec.name}, p={p}: the witnesses at l={l} have h0_dim={h0}, "
            f"expected at least 1")
    return MinTwistReport(spec, p, l, l - p - 1, witnesses, h0, report.method)


def route_l(spec: GrassmannianSpec, p: int) -> int:
    """l(p) read off the auto route's decomposition alone, with no closed
    form consulted."""
    return _min_l(spec, omega_decompose(spec, p).summands)


# -- low-twist scan ---------------------------------------------------------------


class ScanEntry(NamedTuple):
    space: str
    p: int
    l: int
    degree: int
    status: str  # "ok" | "exception" | "violation"
    note: str = ""


class NonvanishingScan(NamedTuple):
    """Evidence table for the low-twist nonvanishing constraints:
    sections at twist 2 force p = 1, and sections at twist 3 force p <= 2
    except on a Lagrangian Grassmannian at p = 3."""

    max_rank: int
    entries: tuple[ScanEntry, ...]

    @property
    def violations(self) -> tuple[ScanEntry, ...]:
        return tuple(e for e in self.entries if e.status == "violation")

    @property
    def exceptions(self) -> tuple[ScanEntry, ...]:
        return tuple(e for e in self.entries if e.status == "exception")


def _is_lagrangian_class(spec: GrassmannianSpec) -> str | None:
    """Name of the Lagrangian presentation if the space is one, else None.
    The 3-dimensional quadric counts: it is IG(2,4) in disguise."""
    if spec.family == "lagrangian":
        return spec.name
    if spec.family == "quadric_odd" and spec.params[0] == 3:
        return "IG:2"
    return None


def scan_entry(spec: GrassmannianSpec, p: int) -> ScanEntry:
    """One (space, p) of the scan, its l(p) the closed form where there is
    one and read off the auto route otherwise; with l(p) <= 3 it is
    classified as a confirmation, a permitted Lagrangian p = 3 exception, or
    a violation."""
    l = closed_form_l(spec, p)
    if l is None:
        l = route_l(spec, p)
    status, note = "ok", ""
    if l <= 2 and p != 1:
        status = "violation"
        note = "sections at twist <= 2 with p > 1"
    elif l <= 3 and p > 2:
        lagr = _is_lagrangian_class(spec)
        if p == 3 and lagr is not None:
            status = "exception"
            note = f"permitted: Lagrangian Grassmannian ({lagr}) at p=3"
        else:
            status = "violation"
            note = "sections at twist 3 with p > 2"
    return ScanEntry(spec.name, p, l, l - p - 1, status, note)


def nonvanishing_scan(max_rank: int) -> NonvanishingScan:
    """``scan_entry`` on every catalog space up to ``max_rank``, all p."""
    return NonvanishingScan(max_rank, tuple(
        scan_entry(spec, p) for spec in iter_catalog_specs(max_rank)
        for p in range(1, spec.dim + 1)))


# -- audit of the transcribed exceptional tables -------------------------------------


class TableAuditRow(NamedTuple):
    p: int
    computed_weights: tuple[Weight, ...]
    table_weights: tuple[Weight, ...]
    weights_match: bool
    computed_l: int
    table_l: int
    l_match: bool

    @property
    def ok(self) -> bool:
        return self.weights_match and self.l_match


class TableAudit(NamedTuple):
    """Row-by-row diff of the computed decomposition against a transcribed
    reference table.

    The computed output is the ground truth being compared against the
    transcription; a mismatch is evidence of a typo in the printed table and
    is reported with both values, never patched.
    """

    which: str
    rows: tuple[TableAuditRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def mismatches(self) -> tuple[TableAuditRow, ...]:
        return tuple(r for r in self.rows if not r.ok)


def _exceptional_table(which: str):
    """The space and the transcribed table of "E6" or "E7"."""
    if which == "E6":
        return cayley(), tables.TABLE_E6
    if which == "E7":
        return freudenthal(), tables.TABLE_E7
    raise ValueError(f"unknown table {which!r}; expected E6 or E7")


def table_audit_row(which: str, p: int) -> TableAuditRow:
    """Recompute row p of an exceptional table ("E6" or "E7") and diff it
    cell by cell against the transcription."""
    spec, table = _exceptional_table(which)
    expected_weights, expected_l = table[p]
    report = omega_decompose(spec, p)
    got = tuple(sorted(report.weights(), reverse=True))
    want = tuple(sorted(expected_weights, reverse=True))
    got_l = _min_l(spec, report.summands)
    return TableAuditRow(p, got, want, got == want, got_l, expected_l,
                         got_l == expected_l)


def table_audit(which: str) -> TableAudit:
    """``table_audit_row`` on every row of the table, in order of p."""
    return TableAudit(which, tuple(table_audit_row(which, p)
                                   for p in sorted(_exceptional_table(which)[1])))
