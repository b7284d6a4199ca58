"""Command-line interface.

Exit codes are a contract for CI use: 0 means every requested check passed,
1 means a mathematical mismatch was found (a table-audit diff, a scan
violation, or any failure ``verify`` lists, a rank-identity failure on any
space included), 2 means a usage error (including an --out path that cannot
be written), 3 means an internal failure (a consistency check inside the
library raised, or an internal limit was hit), reported as one
``internal error: <Type>: <message>`` line on stderr.  All configuration is
by flags, and output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from . import catalog, foliations, partitions, twists
from .plethysm import RankIdentityError, omega_decompose
from .rootsys import root_system

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# -- serialization -----------------------------------------------------------------


def _emit(payload, fmt: str, out: str | None, csv_rows, csv_fields) -> None:
    """Write JSON (default) or CSV to --out (default stdout), UTF-8.  A --out
    path that cannot be written is a usage error."""
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=csv_fields, lineterminator="\n")
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in csv_fields})
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _csv_cell(value):
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return value


def _spec_dict(spec: catalog.GrassmannianSpec) -> dict:
    return {
        "space": spec.name,
        "family": spec.family,
        "params": spec.params,
        "ambient": str(spec.ambient.lie_type),
        "marked_node": spec.marked_node,
        "dim": spec.dim,
        "c1": spec.index_c1,
        "cotangent_weight": spec.cotangent_weight,
    }


_SPEC_FIELDS = ["space", "family", "ambient", "marked_node", "dim", "c1"]
_FOLIATION_FIELDS = ["space", "p", "l", "degree", "kind", "params",
                     "parameter_space", "tf_rank", "tf_c1", "minimal"]


# -- verify components ---------------------------------------------------------------

_RANK_IDENTITY_MAX_DIM = 36


def _component(name, results) -> dict:
    """One verify component from one result per case that ran: None when the
    case passed, else its failure record; ``checked`` counts the results.  A
    case needing a grade whose auto route fails the rank identity (an engine
    comparison, a table audit, the scan, an atlas row) does not run, and the
    rank identity lists the grade; above its cap the family check lists the row."""
    failures = [r for r in results if r is not None]
    return {
        "name": name,
        "ok": not failures,
        "checked": len(results),
        "failures": failures[:50],
    }


def _verify_partitions(max_rank: int) -> dict:
    return _component("partition formula vs oracle", [
        None if f == o.l else {"family": family, **({"k": k} if family == "A" else {}),
                               "n": n, "p": p, "formula_l": f, "oracle_l": o.l}
        for family in ("A", "C", "D")
        for k, n, p, f, o in partitions.closed_form_cases(family, max_rank)])


def _verify_spaces(max_rank: int, jobs: int) -> list[dict]:
    """The rank identity of the auto route on every catalog space up to
    _RANK_IDENTITY_MAX_DIM, and up to dim 27 the auto route against the forced
    engine.  One task per space asks each grade once per route, so no two
    workers share an engine pass; by default one worker runs them in order."""
    specs = [s for s in catalog.iter_catalog_specs(max_rank)
             if s.dim <= _RANK_IDENTITY_MAX_DIM]

    def check(spec):
        paths, ranks = [], []
        for p in range(0, spec.dim + 1):
            try:
                fast = omega_decompose(spec, p)
            except RankIdentityError as exc:
                ranks.append({"space": spec.name, "p": p,
                              "expected": exc.expected, "got": exc.got})
                continue
            ranks.append(None)
            if spec.dim > 27:
                continue
            try:
                dp = omega_decompose(spec, p, method="WeightDP")
            except RankIdentityError as exc:
                paths.append({"space": spec.name, "p": p, "method": "WeightDP",
                              "expected": exc.expected, "got": exc.got})
                continue
            paths.append(None if fast.weights() == dp.weights() else {
                "space": spec.name, "p": p,
                "fast": [list(w) for w in fast.weights()],
                "dp": [list(w) for w in dp.weights()]})
        return paths, ranks

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(check, specs))
    return [
        _component("fast path vs weight engine",
                   [r for paths, _ in results for r in paths]),
        _component("rank identity", [r for _, ranks in results for r in ranks]),
    ]


def _verify_tables(max_rank: int) -> dict:
    results = []
    params = catalog.catalog_params(max_rank)
    for which, family in (("E6", "cayley"), ("E7", "freudenthal")):
        if not params[family]:
            continue
        try:
            audit = twists.table_audit(which)
        except RankIdentityError:
            continue
        results += [None if row.ok else {
            "table": which, "p": row.p,
            "computed": [list(w) for w in row.computed_weights],
            "table_value": [list(w) for w in row.table_weights],
            "computed_l": row.computed_l, "table_l": row.table_l,
        } for row in audit.rows]
    return _component("table audit", results)


def _verify_nonvanishing(max_rank: int) -> dict:
    try:
        entries = twists.nonvanishing_scan(max_rank).entries
    except RankIdentityError:
        entries = ()
    return _component("low-twist nonvanishing scan", [
        {"space": e.space, "p": e.p, "l": e.l, "note": e.note}
        if e.status == "violation" else None for e in entries])


def _verify_families(max_rank: int) -> dict:
    """Every row of the foliation atlas is minimal: its normal twist l is the
    l(p) read off its space's auto route."""
    results = []
    for fam in foliations.foliation_atlas(max_rank):
        spec = catalog.parse_space(fam.space)
        row = {"space": fam.space, "p": fam.p, "kind": fam.kind}
        try:
            route_l = twists.route_l(spec, fam.p)
        except RankIdentityError as exc:
            if spec.dim > _RANK_IDENTITY_MAX_DIM:
                results.append({**row, "expected": exc.expected, "got": exc.got})
            continue
        results.append(None if fam.l == route_l else {
            **row, "family_l": fam.l, "route_l": route_l})
    return _component("foliation family twist consistency", results)


def run_verify(max_rank: int = 6, jobs: int = 1) -> tuple[int, dict]:
    """Run the batch verification suite; returns (exit_code, report).  Only
    the benchmark's pool test passes ``jobs`` (until ROADMAP item 1(c))."""
    if max_rank < 2:
        raise ValueError("--max-rank must be at least 2")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    components = [
        _verify_partitions(max_rank),
        *_verify_spaces(max_rank, jobs),
        _verify_tables(max_rank),
        _verify_nonvanishing(max_rank),
        _verify_families(max_rank),
    ]
    ok = all(c["ok"] for c in components)
    report = {
        "config": {"max_rank": max_rank},
        "ok": ok,
        "components": components,
    }
    return (EXIT_OK if ok else EXIT_MISMATCH), report


# -- commands ------------------------------------------------------------------------
#
# Each leaf command's handler returns (exit code, payload, CSV rows, CSV fields);
# ``main`` writes the payload once, in the format asked for.


def _rootsys_dump(args):
    dump = root_system(args.type).dump()
    return EXIT_OK, dump, [{"root": r} for r in dump["positive_roots"]], ["root"]


def _catalog_list(args):
    rows = [_spec_dict(s) for s in catalog.iter_catalog_specs(args.max_rank)]
    return EXIT_OK, rows, rows, _SPEC_FIELDS


def _catalog_show(args):
    spec = catalog.parse_space(args.space)
    check = catalog.check_table1(spec)
    payload = {**_spec_dict(spec), "table1_check": check._asdict()}
    return (EXIT_OK if check.matches else EXIT_MISMATCH), payload, [payload], _SPEC_FIELDS


def _partitions_verify(args):
    rows = [{"family": args.family, "k": k, "n": n, "p": p,
             "formula_l": f, "oracle_l": o.l, "witnesses": o.partitions}
            for k, n, p, f, o in partitions.closed_form_cases(args.family, args.max_rank)]
    ok = all(r["formula_l"] == r["oracle_l"] for r in rows)
    return (EXIT_OK if ok else EXIT_MISMATCH), rows, rows, [
        "family", "k", "n", "p", "formula_l", "oracle_l", "witnesses"]


def _omega_decompose(args):
    report = omega_decompose(catalog.parse_space(args.space), args.p, method=args.method)
    expected, got = report.rank_identity()
    summands = [{"weight": s.highest_weight, "levi_dim": s.levi_dim,
                 "twist": s.twist_check} for s in report.summands]
    payload = {"space": report.spec.name, "p": report.p, "method": report.method,
               "summands": summands, "rank_check": {"expected": expected, "got": got}}
    return EXIT_OK, payload, summands, ["weight", "levi_dim", "twist"]


def _min_twist(args):
    report = twists.min_twist(catalog.parse_space(args.space), args.p)
    payload = {"space": report.space, "p": report.p, "l": report.l,
               "d": report.degree, "h0_dim": report.h0_dim, "method": report.method,
               "witnesses": [s.highest_weight for s in report.witnesses]}
    return EXIT_OK, payload, [payload], ["space", "p", "l", "d", "h0_dim"]


def _table_audit(args):
    audit = twists.table_audit(args.which)
    rows = [r._asdict() for r in audit.rows]
    payload = {"which": audit.which, "ok": audit.ok, "rows": rows}
    return (EXIT_OK if audit.ok else EXIT_MISMATCH), payload, rows, [
        "p", "weights_match", "l_match", "computed_l", "table_l",
        "computed_weights", "table_weights"]


def _nonvanishing(args):
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
    return (EXIT_MISMATCH if scan.violations else EXIT_OK), payload, rows, [
        "space", "p", "l", "d", "status", "note"]


def _foliation(families):
    """The handler of a foliation command: ``families(args)`` gives its reports."""
    def run(args):
        rows = [r._asdict() for r in families(args)]
        return EXIT_OK, rows, rows, _FOLIATION_FIELDS
    return run


def _verify(args):
    code, report = run_verify(max_rank=args.max_rank)
    return code, report, report["components"], ["name", "ok", "checked"]


# -- argument parsing ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cominuscule",
        description="Twisted differential forms and minimal-degree foliation "
                    "invariants on cominuscule Grassmannians.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    leaves = []

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True)

    def leaf(parent, name, help, run):
        parser = parent.add_parser(name, help=help)
        parser.set_defaults(run=run)
        leaves.append(parser)
        return parser

    p = leaf(group("rootsys", "root-system debug data"), "dump",
             "print Cartan data as JSON", _rootsys_dump)
    p.add_argument("--type", required=True, metavar="T",
                   help="root system label, e.g. E6 or A4")

    cat = group("catalog", "catalog of cominuscule spaces")
    p = leaf(cat, "list", "list spaces up to an ambient rank", _catalog_list)
    p.add_argument("--max-rank", type=int, default=6)
    p = leaf(cat, "show", "show one space", _catalog_show)
    p.add_argument("--space", required=True)

    p = leaf(group("partitions", "minimal-twist combinatorics"), "verify",
             "closed form vs oracle conformance", _partitions_verify)
    p.add_argument("--family", choices=("A", "C", "D"), required=True)
    p.add_argument("--max-rank", type=int, default=6)

    p = leaf(group("omega", "exterior-power decompositions"), "decompose",
             "decompose one exterior power", _omega_decompose)
    p.add_argument("--space", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", default="auto", choices=("auto", "WeightDP"))

    p = leaf(sub, "min-twist", "minimal twist with witnesses", _min_twist)
    p.add_argument("--space", required=True)
    p.add_argument("--p", type=int, required=True)

    p = leaf(sub, "table-audit", "diff the decomposition against a "
                                 "transcribed exceptional table", _table_audit)
    p.add_argument("--which", choices=("E6", "E7"), required=True)

    p = leaf(sub, "nonvanishing", "low-twist nonvanishing scan", _nonvanishing)
    p.add_argument("--max-rank", type=int, default=6)

    fol = group("foliation", "minimal-degree foliation families")
    p = leaf(fol, "rect", "rectangle families on G(k,n)", _foliation(
        lambda a: foliations.rect_family(a.k, a.n, a.p)))
    for option in ("--k", "--n", "--p"):
        p.add_argument(option, type=int, required=True)
    s = leaf(fol, "sympl", "symplectic projection family", _foliation(
        lambda a: [foliations.symplectic_family(a.n, a.a)]))
    o = leaf(fol, "ortho", "orthogonal projection family", _foliation(
        lambda a: [foliations.orthogonal_family(a.n, a.a)]))
    for p in (s, o):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
    leaf(fol, "cayley", "octonionic-line family", _foliation(
        lambda a: [foliations.cayley_family()]))
    p = leaf(fol, "scan", "atlas of minimal-degree families", _foliation(
        lambda a: foliations.foliation_atlas(a.max_rank)))
    p.add_argument("--max-rank", type=int, default=8)

    p = leaf(sub, "verify", "batch verification suite", _verify)
    p.add_argument("--max-rank", type=int, default=6)

    # after each command's own options, as --help lists them
    for p in leaves:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, metavar="PATH")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload, csv_rows, csv_fields = args.run(args)
        _emit(payload, args.format, args.out, csv_rows, csv_fields)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
