"""Command-line interface.

Exit codes are a contract for CI use: 0 means every requested check passed,
1 means a mathematical mismatch was found (for example a table-audit diff or
a scan violation), 2 means a usage error, 3 means an internal failure (a
consistency check inside the library raised, or an internal limit was hit),
reported as one ``internal error: <Type>: <message>`` line on stderr.  All
configuration is by flags;
output is deterministic for fixed inputs, with result assembly order-fixed
by sorting rather than by completion order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import catalog, foliations, partitions, twists
from .plethysm import DecompositionReport, RankIdentityError, omega_decompose
from .rootsys import root_system

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# -- serialization -----------------------------------------------------------------


def _emit(payload, fmt: str, out: str | None, csv_rows, csv_fields) -> None:
    """Write JSON (default) or CSV to --out (default stdout), UTF-8."""
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=csv_fields, lineterminator="\n")
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in csv_fields})
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_cell(value):
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return value


def _spec_dict(spec: catalog.GrassmannianSpec) -> dict:
    return {
        "space": spec.name,
        "family": spec.family,
        "params": list(spec.params),
        "ambient": str(spec.ambient.lie_type),
        "marked_node": spec.marked_node,
        "dim": spec.dim,
        "c1": spec.index_c1,
        "cotangent_weight": list(spec.cotangent_weight),
    }


def _decomposition_dict(report: DecompositionReport) -> dict:
    expected, got = report.rank_identity()
    return {
        "space": report.spec.name,
        "p": report.p,
        "method": report.method,
        "summands": [
            {
                "weight": list(s.highest_weight),
                "levi_dim": s.levi_dim,
                "twist": s.twist_check,
            }
            for s in report.summands
        ],
        "rank_check": {"expected": expected, "got": got},
    }


def _min_twist_dict(report: twists.MinTwistReport) -> dict:
    return {
        "space": report.space,
        "p": report.p,
        "l": report.l,
        "d": report.degree,
        "h0_dim": report.h0_dim,
        "method": report.method,
        "witnesses": [list(s.highest_weight) for s in report.witnesses],
    }


def _foliation_dict(report: foliations.FoliationFamilyReport) -> dict:
    return {
        "space": report.space,
        "p": report.p,
        "l": report.l,
        "degree": report.degree,
        "kind": report.kind,
        "params": dict(report.params),
        "parameter_space": report.parameter_space,
        "tf_rank": report.tf_rank,
        "tf_c1": report.tf_c1,
        "minimal": report.minimal,
        "notes": list(report.notes),
    }


_FOLIATION_FIELDS = ["space", "p", "l", "degree", "kind", "params",
                     "parameter_space", "tf_rank", "tf_c1", "minimal"]


# -- verify components ---------------------------------------------------------------


def _component(name, checked, failures):
    return {
        "name": name,
        "ok": not failures,
        "checked": checked,
        "failures": failures[:50],
    }


def _verify_partitions(max_rank: int) -> dict:
    failures = []
    checked = 0
    for family in ("A", "C", "D"):
        for k, n, p, f, o in partitions.closed_form_cases(family, max_rank):
            checked += 1
            if f != o.l:
                failures.append({"family": family,
                                 **({"k": k} if family == "A" else {}),
                                 "n": n, "p": p, "formula_l": f, "oracle_l": o.l})
    return _component("partition formula vs oracle", checked, failures)


def _verify_spaces(max_rank: int, jobs: int) -> list[dict]:
    """The rank identity of the auto route on every catalog space with
    dim <= 36, and for dim <= 27 the auto route against the forced weight
    engine: one pool task per space asks each grade once per route, in
    order, so no two threads build the same DP tables."""
    specs = [s for s in catalog.iter_catalog_specs(max_rank) if s.dim <= 36]

    def check(spec):
        paths, ranks = [], []
        for p in range(0, spec.dim + 1):
            try:
                fast = omega_decompose(spec, p)
            except RankIdentityError as exc:
                fast = None
                ranks.append({"space": spec.name, "p": p,
                              "expected": exc.expected, "got": exc.got})
            if spec.dim > 27:
                continue
            try:
                dp = omega_decompose(spec, p, method="WeightDP")
            except RankIdentityError as exc:
                paths.append({"space": spec.name, "p": p, "method": "WeightDP",
                              "expected": exc.expected, "got": exc.got})
                continue
            if fast is not None and fast.weights() != dp.weights():
                paths.append({"space": spec.name, "p": p,
                              "fast": [list(w) for w in fast.weights()],
                              "dp": [list(w) for w in dp.weights()]})
        return paths, ranks

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(check, specs))
    return [
        _component("fast path vs weight engine",
                   sum(s.dim + 1 for s in specs if s.dim <= 27),
                   [f for paths, _ in results for f in paths]),
        _component("rank identity", sum(s.dim + 1 for s in specs),
                   [f for _, ranks in results for f in ranks]),
    ]


def _verify_tables(max_rank: int) -> dict:
    failures = []
    checked = 0
    params = catalog.catalog_params(max_rank)
    for which, family in (("E6", "cayley"), ("E7", "freudenthal")):
        if not params[family]:
            continue
        audit = twists.table_audit(which)
        checked += len(audit.rows)
        for row in audit.mismatches:
            failures.append({
                "table": which, "p": row.p,
                "computed": [list(w) for w in row.computed_weights],
                "table_value": [list(w) for w in row.table_weights],
                "computed_l": row.computed_l, "table_l": row.table_l,
            })
    return _component("table audit", checked, failures)


def _verify_nonvanishing(max_rank: int) -> dict:
    scan = twists.nonvanishing_scan(max_rank)
    failures = [{"space": e.space, "p": e.p, "l": e.l, "note": e.note}
                for e in scan.violations]
    return _component("low-twist nonvanishing scan", len(scan.entries), failures)


def _verify_families(max_rank: int) -> dict:
    """The twist of each projection family in the foliation atlas against
    its partition oracle, and the Cayley family's (p, l, degree)."""
    oracles = {"symplectic_projection": ("symplectic", partitions.min_twist_lagr_oracle),
               "orthogonal_projection": ("orthogonal", partitions.min_twist_spinor_oracle)}
    failures = []
    checked = 0
    for fam in foliations.foliation_atlas(max_rank):
        if fam.kind == "cayley_lines":
            checked += 1
            if (fam.p, fam.l, fam.degree) != (8, 8, -1):
                failures.append({"family": "cayley", "got": [fam.p, fam.l, fam.degree]})
        elif fam.kind in oracles:
            checked += 1
            name, oracle = oracles[fam.kind]
            n, a = fam.params["n"], fam.params["a"]
            oracle_l = oracle(n, fam.p).l
            if fam.l != oracle_l:
                failures.append({"family": name, "n": n, "a": a,
                                 "family_l": fam.l, "oracle_l": oracle_l})
    return _component("foliation family twist consistency", checked, failures)


def run_verify(max_rank: int = 6, jobs: int | None = None) -> tuple[int, dict]:
    """Run the batch verification suite; returns (exit_code, report)."""
    if max_rank < 2:
        raise ValueError("--max-rank must be at least 2")
    if jobs is None:
        jobs = min(8, os.cpu_count() or 1)
    elif jobs < 1:
        raise ValueError("--jobs must be at least 1")
    components = [
        _verify_partitions(max_rank),
        *_verify_spaces(max_rank, jobs),
        _verify_tables(max_rank),
        _verify_nonvanishing(max_rank),
        _verify_families(max_rank),
    ]
    ok = all(c["ok"] for c in components)
    report = {
        "config": {"max_rank": max_rank, "jobs": jobs},
        "ok": ok,
        "components": components,
    }
    return (EXIT_OK if ok else EXIT_MISMATCH), report


# -- argument parsing ----------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, metavar="PATH")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cominuscule",
        description="Twisted differential forms and minimal-degree foliation "
                    "invariants on cominuscule Grassmannians.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rootsys", help="root-system debug data")
    ps = p.add_subparsers(dest="subcommand", required=True)
    d = ps.add_parser("dump", help="print Cartan data as JSON")
    d.add_argument("--type", required=True, metavar="T",
                   help="root system label, e.g. E6 or A4")
    _add_common(d)

    p = sub.add_parser("catalog", help="catalog of cominuscule spaces")
    ps = p.add_subparsers(dest="subcommand", required=True)
    lst = ps.add_parser("list", help="list spaces up to an ambient rank")
    lst.add_argument("--max-rank", type=int, default=6)
    _add_common(lst)
    shw = ps.add_parser("show", help="show one space")
    shw.add_argument("--space", required=True)
    _add_common(shw)

    p = sub.add_parser("partitions", help="minimal-twist combinatorics")
    ps = p.add_subparsers(dest="subcommand", required=True)
    ver = ps.add_parser("verify", help="closed form vs oracle conformance")
    ver.add_argument("--family", choices=("A", "C", "D"), required=True)
    ver.add_argument("--max-rank", type=int, default=6)
    _add_common(ver)

    p = sub.add_parser("omega", help="exterior-power decompositions")
    ps = p.add_subparsers(dest="subcommand", required=True)
    dec = ps.add_parser("decompose", help="decompose one exterior power")
    dec.add_argument("--space", required=True)
    dec.add_argument("--p", type=int, required=True)
    dec.add_argument("--method", default="auto", choices=("auto", "WeightDP"))
    _add_common(dec)

    p = sub.add_parser("min-twist", help="minimal twist with witnesses")
    p.add_argument("--space", required=True)
    p.add_argument("--p", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("table-audit", help="diff the decomposition against a "
                                            "transcribed exceptional table")
    p.add_argument("--which", choices=("E6", "E7"), required=True)
    _add_common(p)

    p = sub.add_parser("nonvanishing", help="low-twist nonvanishing scan")
    p.add_argument("--max-rank", type=int, default=6)
    _add_common(p)

    p = sub.add_parser("foliation", help="minimal-degree foliation families")
    ps = p.add_subparsers(dest="subcommand", required=True)
    r = ps.add_parser("rect", help="rectangle families on G(k,n)")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--p", type=int, required=True)
    _add_common(r)
    s = ps.add_parser("sympl", help="symplectic projection family")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--a", type=int, required=True)
    _add_common(s)
    o = ps.add_parser("ortho", help="orthogonal projection family")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--a", type=int, required=True)
    _add_common(o)
    c = ps.add_parser("cayley", help="octonionic-line family")
    _add_common(c)
    sc = ps.add_parser("scan", help="atlas of minimal-degree families")
    sc.add_argument("--max-rank", type=int, default=8)
    _add_common(sc)

    p = sub.add_parser("verify", help="batch verification suite")
    p.add_argument("--max-rank", type=int, default=6)
    p.add_argument("--jobs", type=int, default=None)
    _add_common(p)
    return top


# -- command dispatch ----------------------------------------------------------------


def _cmd_rootsys(args) -> int:
    dump = root_system(args.type).dump()
    rows = [{"root": r} for r in dump["positive_roots"]]
    _emit(dump, args.format, args.out, csv_rows=rows, csv_fields=["root"])
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.subcommand == "list":
        rows = [_spec_dict(s) for s in catalog.iter_catalog_specs(args.max_rank)]
        _emit(rows, args.format, args.out, csv_rows=rows,
              csv_fields=["space", "family", "ambient", "marked_node", "dim", "c1"])
        return EXIT_OK
    spec = catalog.parse_space(args.space)
    payload = _spec_dict(spec)
    check = catalog.check_table1(spec)
    payload["table1_check"] = {
        "matches": check.matches,
        "computed": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in check.computed.items()},
        "expected": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in check.expected.items()},
        "notes": list(check.notes),
    }
    _emit(payload, args.format, args.out, csv_rows=[payload],
          csv_fields=["space", "family", "ambient", "marked_node", "dim", "c1"])
    return EXIT_OK if check.matches else EXIT_MISMATCH


def _cmd_partitions(args) -> int:
    rows = [{"family": args.family, "k": k, "n": n, "p": p,
             "formula_l": f, "oracle_l": o.l,
             "witnesses": [list(m) for m in o.partitions]}
            for k, n, p, f, o in partitions.closed_form_cases(args.family, args.max_rank)]
    ok = all(r["formula_l"] == r["oracle_l"] for r in rows)
    _emit(rows, args.format, args.out, csv_rows=rows,
          csv_fields=["family", "k", "n", "p", "formula_l", "oracle_l", "witnesses"])
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_omega(args) -> int:
    spec = catalog.parse_space(args.space)
    report = omega_decompose(spec, args.p, method=args.method)
    payload = _decomposition_dict(report)
    rows = payload["summands"]
    _emit(payload, args.format, args.out, csv_rows=rows,
          csv_fields=["weight", "levi_dim", "twist"])
    return EXIT_OK


def _cmd_min_twist(args) -> int:
    spec = catalog.parse_space(args.space)
    report = twists.min_twist(spec, args.p)
    payload = _min_twist_dict(report)
    _emit(payload, args.format, args.out, csv_rows=[payload],
          csv_fields=["space", "p", "l", "d", "h0_dim"])
    return EXIT_OK


def _cmd_table_audit(args) -> int:
    audit = twists.table_audit(args.which)
    payload = {
        "which": audit.which,
        "ok": audit.ok,
        "rows": [
            {
                "p": r.p,
                "computed_weights": [list(w) for w in r.computed_weights],
                "table_weights": [list(w) for w in r.table_weights],
                "weights_match": r.weights_match,
                "computed_l": r.computed_l,
                "table_l": r.table_l,
                "l_match": r.l_match,
            }
            for r in audit.rows
        ],
    }
    _emit(payload, args.format, args.out, csv_rows=payload["rows"],
          csv_fields=["p", "weights_match", "l_match", "computed_l", "table_l",
                      "computed_weights", "table_weights"])
    return EXIT_OK if audit.ok else EXIT_MISMATCH


def _cmd_nonvanishing(args) -> int:
    scan = twists.nonvanishing_scan(args.max_rank)
    rows = [{"space": e.space, "p": e.p, "l": e.l, "d": e.degree,
             "status": e.status, "note": e.note} for e in scan.entries]
    payload = {
        "max_rank": scan.max_rank,
        "violations": len(scan.violations),
        "exceptions": [{"space": e.space, "p": e.p, "l": e.l, "note": e.note}
                       for e in scan.exceptions],
        "entries": rows,
    }
    _emit(payload, args.format, args.out, csv_rows=rows,
          csv_fields=["space", "p", "l", "d", "status", "note"])
    return EXIT_OK if not scan.violations else EXIT_MISMATCH


def _cmd_foliation(args) -> int:
    if args.subcommand == "rect":
        reports = foliations.rect_family(args.k, args.n, args.p)
    elif args.subcommand == "sympl":
        reports = [foliations.symplectic_family(args.n, args.a)]
    elif args.subcommand == "ortho":
        reports = [foliations.orthogonal_family(args.n, args.a)]
    elif args.subcommand == "cayley":
        reports = [foliations.cayley_family()]
    else:
        reports = foliations.foliation_atlas(args.max_rank)
    rows = [_foliation_dict(r) for r in reports]
    _emit(rows, args.format, args.out, csv_rows=rows, csv_fields=_FOLIATION_FIELDS)
    return EXIT_OK


def _cmd_verify(args) -> int:
    code, report = run_verify(max_rank=args.max_rank, jobs=args.jobs)
    rows = report["components"]
    _emit(report, args.format, args.out, csv_rows=rows,
          csv_fields=["name", "ok", "checked"])
    return code


_DISPATCH = {
    "rootsys": _cmd_rootsys,
    "catalog": _cmd_catalog,
    "partitions": _cmd_partitions,
    "omega": _cmd_omega,
    "min-twist": _cmd_min_twist,
    "table-audit": _cmd_table_audit,
    "nonvanishing": _cmd_nonvanishing,
    "foliation": _cmd_foliation,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
