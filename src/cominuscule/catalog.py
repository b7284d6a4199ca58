"""Catalog of the irreducible cominuscule Grassmannians.

Each space is an ambient simple type with one marked (cominuscule) node:

====================  =============  ===========  ==============
space                 ambient        marked node  name grammar
====================  =============  ===========  ==============
k-planes in n-space   A_{n-1}        k            ``G:k:n``
odd quadric Q^m       B_{(m+1)/2}    1            ``Q:m``
even quadric Q^m      D_{m/2+1}      1            ``Q:m``
Lagrangian, IG(n,2n)  C_n            n            ``IG:n``
spinor, OG(n,2n)      D_n            n            ``OG:n``
Cayley plane          E6             1            ``E6``
Freudenthal variety   E7             7            ``E7``
====================  =============  ===========  ==============

All derived data (dimension, index, cotangent weight, Levi) is recomputed
from the root system, never copied from a table; ``check_table1`` compares
the recomputation against the hard-coded reference values.  Isomorphic
small cases (``IG:2`` vs ``Q:3``, ``OG:4`` vs ``Q:6``, ...) are distinct
specs on purpose: formulas are stated per presentation.

Specs are immutable and shared, and so are their root systems and Levis:
each constructor returns the one spec built for its parameters, keeping up
to ``SPEC_CACHE_SIZE`` of them, so ``parse_space("G:2:5") is
grassmannian(2, 5)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .rootsys import (
    DecompositionError,
    LeviSubsystem,
    RootSystem,
    Weight,
    _check_rank,
    negate,
    root_system,
)


class GrassmannianSpec(NamedTuple):
    """One cominuscule space: ambient type, marked node, derived data."""

    family: str
    params: tuple[int, ...]
    name: str
    marked_node: int  # 1-based Bourbaki node
    dim: int
    index_c1: int
    cotangent_weight: Weight
    ambient: RootSystem
    levi: LeviSubsystem

    def __str__(self) -> str:
        return self.name


def nilradical_roots(spec: GrassmannianSpec) -> list[Weight]:
    """Positive roots supported on the marked node, in height order: the
    radical roots of the spec's Levi.

    For a cominuscule node the marked coefficient is always exactly 1, which
    the spec checked when it was built; the negatives of these roots are the
    weights of the cotangent bundle, and there are dim X of them.
    """
    return list(spec.levi.radical_roots)


# The catalog has 40 specs up to rank 7 and 48 up to rank 8; the cap leaves
# room for wider sweeps while bounding what a sweep over many spaces keeps.
SPEC_CACHE_SIZE = 256


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _build(family: str, params: tuple[int, ...], name: str,
           ambient: RootSystem, node: int) -> GrassmannianSpec:
    k = node - 1
    levi = LeviSubsystem(ambient, node)
    if any(c[k] != 1 for c in levi.radical_root_coords):
        raise DecompositionError(f"{name}: node {node} is not cominuscule")
    total = [sum(x) for x in zip(*levi.radical_roots)]
    if any(total[i] for i in levi.nodes):
        raise DecompositionError(
            f"{name}: sum of nilradical roots is not along the marked node")
    return GrassmannianSpec(
        family=family,
        params=params,
        name=name,
        marked_node=node,
        dim=len(levi.radical_roots),
        index_c1=total[k],
        cotangent_weight=negate(ambient.simple_roots[k]),
        ambient=ambient,
        levi=levi,
    )


def grassmannian(k: int, n: int) -> GrassmannianSpec:
    """G(k, n): k-planes in n-space, ambient A_{n-1} marked at node k."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"G({k},{n}): need 1 <= k <= n-1, n >= 2")
    return _build("grassmannian", (k, n), f"G:{k}:{n}",
                  root_system("A", n - 1), k)


def quadric(m: int) -> GrassmannianSpec:
    """The m-dimensional quadric: B-type for odd m, D-type for even m."""
    if m < 3:
        raise ValueError(f"Q:{m}: need dimension >= 3")
    if m % 2:
        r = (m + 1) // 2
        return _build("quadric_odd", (m,), f"Q:{m}", root_system("B", r), 1)
    r = m // 2 + 1
    return _build("quadric_even", (m,), f"Q:{m}", root_system("D", r), 1)


def lagrangian(n: int) -> GrassmannianSpec:
    """IG(n, 2n): maximal isotropic subspaces for a symplectic form."""
    if n < 2:
        raise ValueError(f"IG:{n}: need n >= 2")
    return _build("lagrangian", (n,), f"IG:{n}", root_system("C", n), n)


def spinor(n: int) -> GrassmannianSpec:
    """OG(n, 2n): one family of maximal isotropics for a symmetric form."""
    if n < 3:
        raise ValueError(f"OG:{n}: need n >= 3")
    return _build("spinor", (n,), f"OG:{n}", root_system("D", n), n)


def cayley() -> GrassmannianSpec:
    return _build("cayley", (), "E6", root_system("E6"), 1)


def freudenthal() -> GrassmannianSpec:
    return _build("freudenthal", (), "E7", root_system("E7"), 7)


_FAMILY_FORMS = {
    "grassmannian": "G:k:n",
    "quadric_odd": "Q:m",
    "quadric_even": "Q:m",
    "lagrangian": "IG:n",
    "spinor": "OG:n",
    "cayley": "E6",
    "freudenthal": "E7",
}
FAMILIES = tuple(_FAMILY_FORMS)
_FORMS = {form.split(":")[0]: form for form in _FAMILY_FORMS.values()}


def make_spec(family: str, *params: int) -> GrassmannianSpec:
    """Build a spec by family name; params as for the named constructors.
    A wrong count or type of params, or the other quadric parity, is refused."""
    form = _FAMILY_FORMS.get(family)
    if form is None:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if len(params) != form.count(":") or any(type(x) is not int for x in params):
        raise ValueError(f"family {family!r} expects the form {form}, "
                         f"got the parameters {params!r}")
    # looked up per call, as in parse_space, so a rebound constructor is reached
    spec = {"G:k:n": grassmannian, "Q:m": quadric, "IG:n": lagrangian,
            "OG:n": spinor, "E6": cayley, "E7": freudenthal}[form](*params)
    if spec.family != family:
        raise ValueError(f"family {family!r} asked for, but {spec.name} is "
                         f"of family {spec.family!r}")
    return spec


def parse_space(text: str) -> GrassmannianSpec:
    """Parse the space grammar ``G:k:n | Q:m | IG:n | OG:n | E6 | E7``.

    Heads are case-insensitive; a parameter is ASCII decimal digits with an
    optional leading minus.  An ambient rank above
    ``rootsys.MAX_AMBIENT_RANK`` is refused before any root system is built.
    """
    head, *tokens = text.strip().split(":")
    form = _FORMS.get(head.upper())
    if form is None:
        raise ValueError(f"bad space {text!r}: token {head!r} does not match "
                         + " | ".join(_FORMS.values()))
    if len(tokens) != form.count(":"):
        raise ValueError(f"bad space {text!r}: expected the form {form}")
    for token in tokens:
        digits = token.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad space {text!r}: parameter {token!r} of {form} "
                             "is not an integer in ASCII digits")
    try:
        if form == "G:k:n":
            return grassmannian(int(tokens[0]), int(tokens[1]))
        if form == "Q:m":
            return quadric(int(tokens[0]))
        if form == "IG:n":
            return lagrangian(int(tokens[0]))
        if form == "OG:n":
            return spinor(int(tokens[0]))
    except ValueError as exc:
        raise ValueError(f"bad space {text!r}: {exc}") from None
    return cayley() if form == "E6" else freudenthal()


class Table1Check(NamedTuple):
    """Conformance record for one catalog row: recomputed values against the
    reference dimension/index formulas and cotangent weight."""

    matches: bool
    computed: dict
    expected: dict
    notes: tuple[str, ...] = ()


def check_table1(spec: GrassmannianSpec) -> Table1Check:
    """Compare a spec's derived data against the reference table values.

    Mismatches are reported, not fatal.  The ordinary-Grassmannian row is
    indexed by n = dim V (the reference table's r plays that role; its
    ambient rank is n - 1), which is recorded as a note rather than resolved
    silently.
    """
    notes: list[str] = []
    if spec.family == "grassmannian":
        k, n = spec.params
        expected = {"dim": k * (n - k), "c1": n}
        notes.append("table row reads G(k,r) with r = dim V = ambient rank + 1")
    elif spec.family == "quadric_odd":
        r = spec.ambient.rank
        expected = {"dim": 2 * r - 1, "c1": 2 * r - 1}
    elif spec.family == "quadric_even":
        r = spec.ambient.rank
        expected = {"dim": 2 * r - 2, "c1": 2 * r - 2}
    elif spec.family == "lagrangian":
        (n,) = spec.params
        expected = {"dim": n * (n + 1) // 2, "c1": n + 1}
    elif spec.family == "spinor":
        (n,) = spec.params
        expected = {"dim": n * (n - 1) // 2, "c1": 2 * n - 2}
    elif spec.family == "cayley":
        expected = {"dim": 16, "c1": 12,
                    "cotangent": (-2, 0, 1, 0, 0, 0)}
    else:
        expected = {"dim": 27, "c1": 18,
                    "cotangent": (0, 0, 0, 0, 0, 1, -2)}

    computed = {"dim": spec.dim, "c1": spec.index_c1,
                "cotangent": spec.cotangent_weight}
    return Table1Check(
        matches=all(computed[key] == expected[key] for key in expected),
        computed={k: computed[k] for k in sorted(computed)},
        expected={k: expected[k] for k in sorted(expected)},
        notes=tuple(notes),
    )


def catalog_params(max_rank: int) -> dict[str, list[tuple[int, ...]]]:
    """Per family, in catalog order, the constructor parameters of every
    catalog space whose ambient rank is at most max_rank, ordinary
    Grassmannians normalized to k <= n - k.  A max_rank above the rank cap is
    refused at once, before a sweep builds every space below the cap."""
    if max_rank < 2:
        raise ValueError("need max_rank >= 2")
    _check_rank(max_rank)
    return {
        "grassmannian": [(k, n) for n in range(2, max_rank + 2)  # A_{n-1}
                         for k in range(1, n // 2 + 1)],
        "quadric_odd": [(2 * r - 1,) for r in range(2, max_rank + 1)],  # B_r
        "quadric_even": [(2 * r - 2,) for r in range(3, max_rank + 1)],  # D_r
        "lagrangian": [(n,) for n in range(2, max_rank + 1)],  # C_n
        "spinor": [(n,) for n in range(3, max_rank + 1)],  # D_n
        "cayley": [()] * (max_rank >= 6),
        "freudenthal": [()] * (max_rank >= 7),
    }


def iter_catalog_specs(max_rank: int) -> Iterator[GrassmannianSpec]:
    """All catalog specs whose ambient rank is at most max_rank, in the
    order of ``catalog_params``."""
    for family, params in catalog_params(max_rank).items():
        for args in params:
            yield make_spec(family, *args)
