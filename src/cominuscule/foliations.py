"""Numeric invariants of the minimal-degree foliation families.

Only integers are modeled: codimension, twist of the normal sheaf, degree
(the twist shifted by codimension plus one), rank and first Chern class of
the tangent sheaf, and a textual descriptor of the parameter space.  The
geometry behind them (rational maps, Schubert base loci, tangent-sheaf
extensions, integrability) is proof material with no computable surface and
stays out of scope.

Families:

* rectangle families on ordinary Grassmannians, cut out by flags: a p = d*e
  rectangle inside the k x (n-k) box gives a family of twist d + e, minimal
  exactly when d and e solve x^2 - l(p) x + p = 0 (so l(p)^2 - 4p must be a
  perfect square);
* symplectic and orthogonal projection families with 2p = a(a+1);
* the octonionic-line pencil on the Cayley plane at p = 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import catalog_params, cayley
from .partitions import min_twist_grass, min_twist_lagr, min_twist_spinor
from .plethysm import DecompositionError
from .twists import min_twist


@dataclass(frozen=True, eq=False)
class FoliationFamilyReport:
    """One family of foliations, reduced to its numeric invariants."""

    space: str
    p: int
    l: int  # c1 of the normal sheaf
    degree: int  # l - p - 1
    kind: str  # rect_flag | araujo_druel | symplectic_projection | orthogonal_projection | cayley_lines
    params: dict
    parameter_space: str
    tf_rank: int
    tf_c1: int
    minimal: bool
    notes: tuple[str, ...] = ()


def _family(space: str, dim: int, c1: int, p: int, l: int, kind: str, params: dict,
            parameter_space: str, minimal: bool = True,
            notes: tuple[str, ...] = ()) -> FoliationFamilyReport:
    """A family's report from the invariants of its space X (dim X, c1(X))
    and its codimension p and normal twist l: degree l - p - 1, and a
    tangent sheaf of rank dim X - p with c1(X) - l."""
    return FoliationFamilyReport(space, p, l, l - p - 1, kind, params, parameter_space,
                                 dim - p, c1 - l, minimal, notes)


def _flag_text(a: int, b: int, n: int) -> str:
    if a == 0 and b == n:
        return "point"
    if a == 0:
        return f"G({b}, C^{n})"
    if b == n:
        return f"G({a}, C^{n})"
    return f"Flag({a}, {b}; C^{n})"


def rect_family(k: int, n: int, p: int) -> list[FoliationFamilyReport]:
    """All rectangle families on G(k,n) in codimension p.

    One report per factorization p = d*e with e <= k rows and d <= n-k
    columns; both orientations of a rectangle appear when both fit the box.
    The minimal ones are exactly those with d + e = l(p); reports are sorted
    minimal-first, then by decreasing width.
    """
    if n < 2 * k:
        raise ValueError(f"rect families need n >= 2k, got k={k}, n={n}")
    l_min = min_twist_grass(k, n, p)  # range-checks k, then p
    h = n - k
    out = []
    for e in range(1, min(k, p) + 1):
        if p % e:
            continue
        d = p // e
        if d > h:
            continue
        kind = "araujo_druel" if e == k else "rect_flag"
        params = {"d": d, "e": e, "h": h}
        notes = ()
        if kind == "araujo_druel":
            params["m"] = m = n - k - d
            notes = (f"linear-projection case: c1 of the normal sheaf is n - m = {n - m}",)
        out.append(_family(f"G:{k}:{n}", k * h, n, p, d + e, kind, params,
                           _flag_text(h - d, h + e, n), d + e == l_min, notes))
    out.sort(key=lambda r: (not r.minimal, -r.params["d"]))
    return out


def symplectic_family(n: int, a: int) -> FoliationFamilyReport:
    """Isotropic-reduction family on IG(n,2n): codimension p = a(a+1)/2,
    twist a+1, degree -a(a-1)/2, parametrized by IG(n-a, 2n)."""
    if not 1 <= a <= n - 1:
        raise ValueError(f"need 1 <= a <= n-1, got a={a}, n={n}")
    p = a * (a + 1) // 2
    l = a + 1
    if l != (least := min_twist_lagr(p)):
        raise DecompositionError(f"symplectic family twist l={l} at a={a}, p={p} "
                                 f"must be minimal, the closed form gives {least}")
    return _family(f"IG:{n}", n * (n + 1) // 2, n + 1, p, l, "symplectic_projection",
                   {"a": a, "n": n}, f"IG({n - a}, C^{2 * n})")


def orthogonal_family(n: int, a: int) -> FoliationFamilyReport:
    """Isotropic-reduction family on OG(n,2n): codimension p = a(a+1)/2,
    twist 2a, degree -(a-1)(a-2)/2, parametrized by OG(n-a-1, 2n)."""
    if not 1 <= a <= n - 2:
        raise ValueError(f"need 1 <= a <= n-2, got a={a}, n={n}")
    p = a * (a + 1) // 2
    l = 2 * a
    if l != (least := min_twist_spinor(p)):
        raise DecompositionError(f"orthogonal family twist l={l} at a={a}, p={p} "
                                 f"must be minimal, the closed form gives {least}")
    return _family(f"OG:{n}", n * (n - 1) // 2, 2 * n - 2, p, l, "orthogonal_projection",
                   {"a": a, "n": n}, f"OG({n - a - 1}, C^{2 * n})")


def cayley_family() -> FoliationFamilyReport:
    """The octonionic-line family on the Cayley plane: codimension 8 with
    normal twist 8, hence degree -1, parametrized by the dual plane.

    Cross-checked against the decomposition: l(8) = 8 with unique witness
    -8 l1 + 4 l6.  The twisted witness weight is 4 l6; its dual 4 l1 names
    the same section space in the opposite duality convention, and both
    carry the same dimension, so both are recorded.
    """
    spec = cayley()
    report = min_twist(spec, 8)
    if report.l != 8 or len(report.witnesses) != 1:
        raise DecompositionError(
            f"E6, p=8: expected l=8 with 1 witness, got l={report.l} "
            f"with {len(report.witnesses)}")
    witness = report.witnesses[0].highest_weight
    if witness != (-8, 0, 0, 0, 0, 4):
        raise DecompositionError(
            f"E6, p=8: expected the witness (-8, 0, 0, 0, 0, 4), got {witness}")
    dim_dual = spec.ambient.weyl_dim((4, 0, 0, 0, 0, 0))
    if dim_dual != report.h0_dim:
        raise DecompositionError(
            f"E6, p=8: the dual weight 4 l1 has dimension {dim_dual}, "
            f"the witness h0_dim={report.h0_dim}")
    return _family(spec.name, spec.dim, spec.index_c1, report.p, report.l, "cayley_lines",
                   {}, "dual Cayley plane (E6 marked at node 6)", notes=(
                       "witness summand -8l1+4l6; twisted section weight 4l6, dual 4l1, "
                       f"dimension {report.h0_dim} either way",))


def _space_order(name: str) -> tuple:
    """A space name as (head, integer parameters): G:1:2 before G:1:10."""
    head, *params = name.split(":")
    return head, tuple(map(int, params))


def foliation_atlas(max_rank: int) -> list[FoliationFamilyReport]:
    """All minimal-degree families the catalog affords up to an ambient rank:
    minimal rectangles, all symplectic/orthogonal parameters, and the Cayley
    family.  Sorted by (space, p) for deterministic output."""
    rows: list[FoliationFamilyReport] = []
    params = catalog_params(max_rank)
    for k, n in params["grassmannian"]:
        for p in range(1, k * (n - k) + 1):
            rows.extend(r for r in rect_family(k, n, p) if r.minimal)
    for (n,) in params["lagrangian"]:
        rows.extend(symplectic_family(n, a) for a in range(1, n))
    for (n,) in params["spinor"]:
        rows.extend(orthogonal_family(n, a) for a in range(1, n - 1))
    if params["cayley"]:
        rows.append(cayley_family())
    rows.sort(key=lambda r: (_space_order(r.space), r.p, -r.params.get("d", 0)))
    return rows
