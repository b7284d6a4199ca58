import argparse
import hashlib
import itertools
import json
from math import comb

import pytest

from cominuscule import catalog, cli, foliations, partitions, plethysm, rootsys, twists
from cominuscule.catalog import quadric
from cominuscule.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rootsys_dump(capsys):
    code, out, err = run(capsys, "rootsys", "dump", "--type", "E6")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["rank"] == 6 and data["positive_root_count"] == 36
    # the family letter is read in either case, as the space grammar's heads are
    assert run(capsys, "rootsys", "dump", "--type", "e6") == (code, out, err)
    assert (run(capsys, "rootsys", "dump", "--type", "a4")
            == run(capsys, "rootsys", "dump", "--type", "A4"))


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--max-rank", "4")
    assert code == 0
    rows = json.loads(out)
    assert {"space", "family", "ambient", "marked_node", "dim", "c1"} <= set(rows[0])
    code, out, _ = run(capsys, "catalog", "show", "--space", "IG:5")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 15 and data["table1_check"]["matches"]
    assert list(data["table1_check"]) == ["matches", "computed", "expected", "notes"]


def test_catalog_show_bad_space_is_usage_error(capsys):
    code, _, err = run(capsys, "catalog", "show", "--space", "G:0:5")
    assert code == 2
    assert "G:0:5" in err or "k" in err


def test_a_space_above_the_grammar_limit_is_a_usage_error(capsys):
    roots = rootsys._root_system.cache_info()
    code, out, err = run(capsys, "omega", "decompose", "--space", "G:2:1000",
                         "--p", "1")
    assert code == 2 and out == ""
    assert err == ("error: bad space 'G:2:1000': ambient rank 999 is above "
                   "the limit MAX_AMBIENT_RANK = 150\n")
    assert rootsys._root_system.cache_info() == roots


@pytest.mark.parametrize("space,message", [
    ("G:2:5:", "expected the form G:k:n"),
    ("G:5", "expected the form G:k:n"),
    ("E6:1", "expected the form E6"),
    ("Q", "expected the form Q:m"),
    ("IG:1_0", "parameter '1_0' of IG:n is not an integer in ASCII digits"),
    ("Q:+3", "parameter '+3' of Q:m is not an integer in ASCII digits"),
    ("G: 2:5", "parameter ' 2' of G:k:n is not an integer in ASCII digits"),
    ("G:\u0663:5", "parameter '\u0663' of G:k:n is not an integer in ASCII digits"),
    ("G:2:x", "parameter 'x' of G:k:n is not an integer in ASCII digits"),
    ("G:--1:5", "parameter '--1' of G:k:n is not an integer in ASCII digits"),
    ("og:3:4", "expected the form OG:n"),
    ("X:3", "token 'X' does not match G:k:n | Q:m | IG:n | OG:n | E6 | E7"),
    ("G:-1:5", "G(-1,5): need 1 <= k <= n-1, n >= 2"),
])
def test_a_space_off_the_grammar_is_one_usage_line(capsys, space, message):
    # a known head with the wrong number of parameters names its form; a
    # parameter is ASCII digits with an optional leading minus, never renamed
    code, out, err = run(capsys, "catalog", "show", "--space", space)
    assert (code, out) == (2, "")
    assert err == f"error: bad space {space!r}: {message}\n"


def _bad_label(label):
    return (f"error: bad root system label {label!r}: expected a family "
            "letter and a rank, such as A4 or E6\n")


@pytest.mark.parametrize("label,message", [
    ("A200", "error: ambient rank 200 is above the limit "
             "MAX_AMBIENT_RANK = 150\n"),
    *((label, _bad_label(label)) for label in ("", "A", "E", "A3x", "A\u0663")),
], ids=["A200", "empty", "A", "E", "A3x", "A-arabic-indic-3"])
def test_a_root_system_above_the_limit_is_a_usage_error(capsys, label, message):
    # a label past the rank cap, or with no family letter or no integer
    # rank, is one usage line, never an internal error
    code, out, err = run(capsys, "rootsys", "dump", "--type", label)
    assert code == 2 and out == ""
    assert err == message


def test_omega_decompose_schema(capsys):
    code, out, _ = run(capsys, "omega", "decompose", "--space", "E6", "--p", "8")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["space", "p", "method", "summands", "rank_check"]
    assert data["method"] == "Kostant"
    assert data["rank_check"]["expected"] == data["rank_check"]["got"] == 12870
    for s in data["summands"]:
        assert list(s) == ["weight", "levi_dim", "twist"]
        assert s["twist"] == s["weight"][0]


def test_omega_decompose_csv(capsys):
    code, out, _ = run(capsys, "omega", "decompose", "--space", "G:2:5",
                       "--p", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,levi_dim,twist"
    assert len(lines) == 3


def test_min_twist_csv_row(capsys):
    code, out, _ = run(capsys, "min-twist", "--space", "G:3:9", "--p", "7",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "space,p,l,d,h0_dim"
    space, p, l, d, h0 = lines[1].split(",")
    assert (space, p, l, d) == ("G:3:9", "7", "6", "-2")


def test_partitions_verify(capsys):
    code, out, _ = run(capsys, "partitions", "verify", "--family", "C",
                       "--max-rank", "5")
    assert code == 0
    rows = json.loads(out)
    assert all(r["formula_l"] == r["oracle_l"] for r in rows)
    assert all(list(r) == ["family", "k", "n", "p", "formula_l", "oracle_l",
                           "witnesses"] for r in rows)


@pytest.mark.parametrize("family", ["A", "C", "D"])
@pytest.mark.parametrize("max_rank", ["1", "-5"])
def test_partitions_verify_refuses_a_rank_below_two(capsys, family, max_rank):
    # -5 used to print [] and exit 0, and 1 checked only G:1:2
    code, out, err = run(capsys, "partitions", "verify", "--family", family,
                         "--max-rank", max_rank)
    assert (code, out, err) == (2, "", "error: need max_rank >= 2\n")


@pytest.mark.parametrize("argv", [
    ["catalog", "list"],
    ["partitions", "verify", "--family", "A"],
    ["nonvanishing"],
    ["foliation", "scan"],
    ["verify"],
])
def test_sweeps_refuse_a_rank_above_the_cap(capsys, argv):
    # each sweep used to build every catalog space below the cap before the
    # first one above it failed, which ran for minutes
    roots = rootsys._root_system.cache_info()
    code, out, err = run(capsys, *argv, "--max-rank", "151")
    assert (code, out, err) == (2, "", "error: ambient rank 151 is above the limit "
                                       "MAX_AMBIENT_RANK = 150\n")
    assert rootsys._root_system.cache_info() == roots


def test_table_audit_exit_codes(capsys):
    code, out, _ = run(capsys, "table-audit", "--which", "E7")
    assert code == 0
    assert json.loads(out)["ok"]
    # the transcription of the 16-dimensional table carries one typo, which
    # the audit must surface as a mismatch exit
    code, out, _ = run(capsys, "table-audit", "--which", "E6")
    assert code == 1
    data = json.loads(out)
    assert not data["ok"]
    bad = [r for r in data["rows"] if not r["weights_match"]]
    assert [r["p"] for r in bad] == [8]


def test_record_fields_follow_the_printed_keys(capsys):
    # table-audit rows and foliation rows print each record's fields as
    # JSON keys, in the record's order
    code, out, _ = run(capsys, "table-audit", "--which", "E7")
    assert code == 0
    assert list(json.loads(out)["rows"][0]) == list(twists.TableAuditRow._fields) == [
        "p", "computed_weights", "table_weights", "weights_match", "computed_l",
        "table_l", "l_match"]
    code, out, _ = run(capsys, "foliation", "cayley")
    assert code == 0
    assert list(json.loads(out)[0]) == list(
        foliations.FoliationFamilyReport._fields) == [
        "space", "p", "l", "degree", "kind", "params", "parameter_space",
        "tf_rank", "tf_c1", "minimal", "notes"]


def test_nonvanishing_cli(capsys):
    code, out, _ = run(capsys, "nonvanishing", "--max-rank", "4")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == 0
    assert {e["space"] for e in data["exceptions"]} == {"Q:3", "IG:2", "IG:3", "IG:4"}


def test_foliation_commands(capsys):
    code, out, _ = run(capsys, "foliation", "rect", "--k", "3", "--n", "6", "--p", "4")
    assert code == 0
    (row,) = json.loads(out)
    assert row["minimal"] and row["degree"] == -1
    code, out, _ = run(capsys, "foliation", "sympl", "--n", "5", "--a", "3")
    assert code == 0
    assert json.loads(out)[0]["degree"] == -3
    code, out, _ = run(capsys, "foliation", "cayley")
    assert code == 0
    assert json.loads(out)[0]["p"] == 8
    code, out, _ = run(capsys, "foliation", "scan", "--max-rank", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("space,p,l,degree,kind")
    assert len(lines) > 5


def test_foliation_bad_args_usage_error(capsys):
    code, _, err = run(capsys, "foliation", "sympl", "--n", "4", "--a", "9")
    assert code == 2
    assert "a=9" in err


def test_verify_small_run(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and len(data["components"]) == 6
    # a pool of fewer than one worker is refused; -3 used to run one thread
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="^jobs must be at least 1$"):
            cli.run_verify(2, jobs=jobs)
    # the command takes no worker count
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-rank", "2", "--jobs", "1"])
    assert exc.value.code == 2


def test_verify_output_does_not_depend_on_jobs(capsys):
    # the worker count cannot change a result, and the report does not echo
    # it, so a fixed input prints the same JSON on every machine
    reports = [cli.run_verify(3, jobs=jobs) for jobs in (1, 3)]
    assert reports[0] == reports[1] and reports[0][0] == 0
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 0 and json.loads(out)["config"] == {"max_rank": 3}


def test_verify_runs_on_one_worker_whatever_the_cpu_count(capsys, monkeypatch):
    # the CPU count does not size verify's pool, in the library or the CLI
    sizes = []

    class Recording(cli.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    cli.run_verify(3)
    assert sizes == [1]
    sizes.clear()
    assert run(capsys, "verify", "--max-rank", "3")[0] == 0
    assert sizes == [1]


def test_a_library_self_check_is_an_internal_error(capsys, monkeypatch):
    # every self-check raises DecompositionError, reported with exit 3
    monkeypatch.setattr(foliations, "min_twist_lagr", lambda p: 0)
    code, out, err = run(capsys, "foliation", "sympl", "--n", "4", "--a", "2")
    assert code == 3 and out == ""
    assert err == ("internal error: DecompositionError: symplectic family "
                   "twist l=3 at a=2, p=3 must be minimal, the closed form "
                   "gives 0\n")


def test_verify_lists_a_rank_identity_failure(capsys, monkeypatch, cold_answers):
    # drop the one summand of grades 2 and 3 of Q:5 from the route auto
    # takes there: verify must list each (space, p) with both sums and exit
    # 1, not stop with an internal error; the forced engine still answers,
    # so the path comparison leaves the two grades to the rank identity
    real = plethysm._kostant_summands

    def lossy(spec, p):
        summands = real(spec, p)
        return summands[1:] if (spec.name, p) in (("Q:5", 2), ("Q:5", 3)) \
            else summands

    monkeypatch.setattr(plethysm, "_kostant_summands", lossy)
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 1
    components = {c["name"]: c for c in json.loads(out)["components"]}
    rank = components.pop("rank identity")
    dropped = real(quadric(5), 2)[0].levi_dim
    assert rank["failures"] == [{"space": "Q:5", "p": 2, "expected": comb(5, 2),
                                 "got": comb(5, 2) - dropped},
                                {"space": "Q:5", "p": 3, "expected": comb(5, 3),
                                 "got": comb(5, 3) - dropped}]
    assert all(c["ok"] for c in components.values())


def test_verify_lists_an_engine_rank_identity_failure(capsys, monkeypatch,
                                                     cold_answers):
    # drop one summand of grade 2 of Q:5 after the engine's Newton grade has
    # checked it: the path comparison must list the (space, p) with both
    # sums and exit 1; grade 3 of Q:5 is the engine's dual of grade 2, so it
    # inherits the loss
    real = plethysm._newton_grade

    def lossy(spec, levels, p, steps):
        level, steps = real(spec, levels, p, steps)
        if spec.name == "Q:5" and p == 2:
            level = level[1:]
        return level, steps

    monkeypatch.setattr(plethysm, "_newton_grade", lossy)
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 1
    components = {c["name"]: c for c in json.loads(out)["components"]}
    paths = components.pop("fast path vs weight engine")
    dropped = plethysm._kostant_summands(quadric(5), 2)[0].levi_dim
    assert paths["failures"] == [
        {"space": "Q:5", "p": p, "method": "WeightDP", "expected": comb(5, p),
         "got": comb(5, p) - dropped} for p in (2, 3)]
    assert all(c["ok"] for c in components.values())


def test_verify_leaves_a_family_grade_that_fails_the_rank_identity(
        capsys, monkeypatch, cold_answers):
    # the hook route of IG:3 loses a summand of grade 3, the grade of its
    # a = 2 symplectic row: the rank identity lists the grade, and the
    # family check leaves the row uncounted rather than stop verify
    real = plethysm.hooks_decompose

    def lossy(spec, p):
        pairs = real(spec, p)
        return pairs[1:] if (spec.name, p) == ("IG:3", 3) else pairs

    monkeypatch.setattr(plethysm, "hooks_decompose", lossy)
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 1
    components = {c["name"]: c for c in json.loads(out)["components"]}
    rank = components.pop("rank identity")
    assert [(f["space"], f["p"]) for f in rank["failures"]] == [("IG:3", 3)]
    assert components["foliation family twist consistency"]["checked"] == 13
    assert all(c["ok"] for c in components.values())


def test_verify_lists_a_family_grade_above_the_rank_identity_cap(
        monkeypatch, cold_answers):
    # the hook route of IG:9 (dim 45, above the rank identity's dim 36)
    # loses a summand of grade 1, the grade of its a = 1 symplectic row: no
    # rank-identity case covers the grade, so the family check lists the row
    # with both sums
    real = plethysm.hooks_decompose

    def lossy(spec, p):
        pairs = real(spec, p)
        return pairs[1:] if (spec.name, p) == ("IG:9", 1) else pairs

    monkeypatch.setattr(plethysm, "hooks_decompose", lossy)
    dropped = real(catalog.lagrangian(9), 1)[0][1].levi_dim
    code, report = cli.run_verify(9)
    assert code == 1
    components = {c["name"]: c for c in report["components"]}
    family = components["foliation family twist consistency"]
    assert family["checked"] == 298
    assert family["failures"] == [
        {"space": "IG:9", "p": 1, "kind": "symplectic_projection",
         "expected": 45, "got": 45 - dropped}]
    assert components["rank identity"] == {
        "name": "rank identity", "ok": True, "checked": 762, "failures": []}


def test_verify_lists_an_exceptional_rank_identity_failure(capsys, monkeypatch,
                                                           cold_answers):
    # Kostant's route drops the first summand of E6 p = 4 and E7 p = 5: a
    # listed mismatch, as on Q:5; the engine comparison of each grade, its
    # table-audit row and its scan entry, which reads E6 and E7 off the auto
    # route, do not run and are not counted, and every other row and entry
    # still runs, so the E6 p = 8 transcription finding is still listed
    real = plethysm._kostant_summands

    def lossy(spec, p):
        summands = real(spec, p)
        return summands[1:] if (spec.name, p) in (("E6", 4), ("E7", 5)) \
            else summands

    monkeypatch.setattr(plethysm, "_kostant_summands", lossy)
    code, out, err = run(capsys, "verify", "--max-rank", "7")
    assert code == 1 and err == ""
    components = {c["name"]: c for c in json.loads(out)["components"]}
    assert components.pop("rank identity")["failures"] == [
        {"space": "E6", "p": 4, "expected": 1820, "got": 770},
        {"space": "E7", "p": 5, "expected": 80730, "got": 34398}]
    audit = components.pop("table audit")
    assert not audit["ok"] and audit["checked"] == 39
    assert [(f["table"], f["p"]) for f in audit["failures"]] == [("E6", 8)]
    assert components["low-twist nonvanishing scan"]["checked"] == 387
    assert all(c["ok"] for c in components.values())
    assert components["fast path vs weight engine"]["checked"] == 398
    # the standalone commands have no rank-identity component to list it in
    for argv in (["table-audit", "--which", "E6"],
                 ["nonvanishing", "--max-rank", "7"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err == ("internal error: RankIdentityError: E6, p=4, Kostant: "
                       "rank identity failed (770 != 1820)\n"), argv


def test_verify_counts_the_grades_its_calls_answered(monkeypatch):
    # each space component counts the grades on which its own calls
    # returned, one call per grade and route, not a count made beside them;
    # at rank 6, with E6, the table audit and the scan count the rows and
    # entries on which their own calls returned
    answered = []

    def spy(module, name, record):
        real = getattr(module, name)

        def call(*args, **kwargs):
            result = real(*args, **kwargs)
            answered.append(record(*args, **kwargs))
            return result
        monkeypatch.setattr(module, name, call)

    spy(cli, "omega_decompose",
        lambda spec, p, method="auto": (method, spec.name, p))
    spy(twists, "table_audit_row", lambda which, p: ("table", which, p))
    spy(twists, "scan_entry", lambda spec, p: ("scan", spec.name, p))
    code, report = cli.run_verify(6)
    components = {c["name"]: c["checked"] for c in report["components"]}
    assert code == 1 and len(set(answered)) == len(answered)
    kinds = [kind for kind, _, _ in answered]
    assert components["rank identity"] == kinds.count("auto")
    assert components["fast path vs weight engine"] == kinds.count("WeightDP")
    assert components["table audit"] == kinds.count("table") == 15
    assert components["low-twist nonvanishing scan"] == kinds.count("scan")


def test_run_verify_refuses_a_rank_below_two():
    with pytest.raises(ValueError, match="^--max-rank must be at least 2$"):
        cli.run_verify(1)


def test_verify_reaches_both_dimension_caps(monkeypatch):
    # rank 9 is the first with a catalog space above each cap: the forced
    # engine runs up to dim 27, the rank identity up to dim 36, and IG:9
    # (dim 45) is the one space neither checks
    asked = set()
    real = cli.omega_decompose

    def spy(spec, p, method="auto"):
        asked.add((spec.name, spec.dim, method))
        return real(spec, p, method)

    monkeypatch.setattr(cli, "omega_decompose", spy)
    code, report = cli.run_verify(9)
    components = {c["name"]: c for c in report["components"]}
    assert code == 1 and [f["p"] for f in components["table audit"]["failures"]] == [8]
    assert components["fast path vs weight engine"]["checked"] == 630
    assert components["rank identity"]["checked"] == 762
    assert max(dim for _, dim, method in asked if method == "WeightDP") == 27
    assert max(dim for _, dim, _ in asked) == 36
    assert "IG:9" not in {name for name, _, _ in asked}


def _failed_components(capsys, max_rank):
    """Run verify, check it reports a mismatch, and return the failures of
    each component that is not ok."""
    code, out, _ = run(capsys, "verify", "--max-rank", str(max_rank))
    data = json.loads(out)
    assert code == 1 and data["ok"] is False
    return {c["name"]: c["failures"] for c in data["components"] if not c["ok"]}


def test_verify_lists_a_path_mismatch(capsys, monkeypatch):
    # the auto route of G:2:4 hands its two grade-2 summands over in the
    # wrong order: the rank identity holds, the weights differ
    real = cli.omega_decompose

    def swapped(spec, p, method="auto"):
        report = real(spec, p, method)
        if (spec.name, p, method) == ("G:2:4", 2, "auto"):
            return report._replace(summands=report.summands[::-1])
        return report

    monkeypatch.setattr(cli, "omega_decompose", swapped)
    weights = [list(w) for w in real(catalog.grassmannian(2, 4), 2).weights()]
    assert len(weights) == 2
    assert _failed_components(capsys, 3) == {"fast path vs weight engine": [
        {"space": "G:2:4", "p": 2, "fast": weights[::-1], "dp": weights}]}


def test_verify_lists_a_partition_failure(capsys, monkeypatch):
    real = partitions.min_twist_lagr
    monkeypatch.setattr(partitions, "min_twist_lagr", lambda p: real(p) + (p == 2))
    oracle = partitions.min_twist_lagr_oracle(2, 2).l
    assert _failed_components(capsys, 3) == {"partition formula vs oracle": [
        {"family": "C", "n": n, "p": 2, "formula_l": oracle + 1, "oracle_l": oracle}
        for n in (2, 3)]}


def _off_by_one(reports):
    if isinstance(reports, list):
        return [_off_by_one(r) for r in reports]
    return reports._replace(l=reports.l + 1)


def _entries(space, p, kinds, family_l, route_l):
    return [{"space": space, "p": p, "kind": kind, "family_l": family_l,
             "route_l": route_l} for kind in kinds]


@pytest.mark.parametrize("name, args, max_rank, entries", [
    ("symplectic_family", (3, 2), 3,
     _entries("IG:3", 3, ("symplectic_projection",), 4, 3)),
    ("orthogonal_family", (3, 1), 3,
     _entries("OG:3", 1, ("orthogonal_projection",), 3, 2)),
    ("cayley_family", (), 6, _entries("E6", 8, ("cayley_lines",), 9, 8)),
    ("rect_family", (2, 4, 2), 3,
     _entries("G:2:4", 2, ("rect_flag", "araujo_druel"), 4, 3)),
])
def test_verify_lists_a_family_failure(capsys, monkeypatch, name, args,
                                       max_rank, entries):
    # one family builder reports a twist one too high: each of its atlas
    # rows is listed against the l(p) of the auto route
    real = getattr(foliations, name)
    monkeypatch.setattr(foliations, name, lambda *a: _off_by_one(real(*a))
                        if a == args else real(*a))
    failed = _failed_components(capsys, max_rank)
    if max_rank >= 6:
        # the transcription typo in row p = 8 of the E6 table
        assert [f["p"] for f in failed.pop("table audit")] == [8]
    assert failed == {"foliation family twist consistency": entries}


def test_verify_at_rank_seven_checks_the_pinned_counts():
    # the counts of the CI command verify --max-rank 7; its one failure is
    # the transcription typo in row p = 8 of the E6 table
    code, report = cli.run_verify(7)
    assert code == 1
    assert [(c["name"], c["checked"]) for c in report["components"]] == [
        ("partition formula vs oracle", 258), ("fast path vs weight engine", 400),
        ("rank identity", 429), ("table audit", 41),
        ("low-twist nonvanishing scan", 389),
        ("foliation family twist consistency", 146)]
    failed = {c["name"]: c["failures"] for c in report["components"] if not c["ok"]}
    assert list(failed) == ["table audit"]
    assert [(f["table"], f["p"]) for f in failed["table audit"]] == [("E6", 8)]


def test_verify_output_is_pinned(capsys):
    # the stdout of the CI command verify --max-rank 7, byte for byte; a
    # change that means to alter it updates the digest and says so
    for max_rank, digest in (
            ("6", "ea59e57fb72a521c39c52d90fb881e115d08b70d09f19386a758f9ff89599a93"),
            ("7", "c856a1fca3fb741b1b6bba4e14600a55523df14fbff63eacc8b31003285c549c")):
        code, out, err = run(capsys, "verify", "--max-rank", max_rank)
        assert (code, err) == (1, ""), max_rank
        assert hashlib.sha256(out.encode()).hexdigest() == digest, max_rank


@pytest.mark.parametrize("argv, code, digest", [
    (["verify", "--max-rank", "8"], 1,
     "0d9fdf423d694f52c1790addca386e00f403a348be460e037ba79dbfd5e05a52"),
    (["verify", "--max-rank", "9"], 1,
     "728f49644d6faf0502045b73b5702471b0fd88caf21d506800fa66ddf502e796"),
    (["verify", "--max-rank", "7", "--format", "csv"], 1,
     "13ed6bc3acafa67ae6d757c02e12dbe4adabc7c162a430a9ea3cd14f96c671c3"),
    (["foliation", "scan", "--max-rank", "8"], 0,
     "2e802e6b0a3419026cd9018efb41363ea1416fb1dfce9eccc1cdc07494fdf624"),
], ids=["verify-8", "verify-9", "verify-7-csv", "foliation-scan-8"])
def test_sweep_output_is_pinned(capsys, argv, code, digest):
    # the stdout and exit code of the other sweeps CI runs, byte for byte
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_options_are_pinned():
    # every option of every command; a new one needs an edit here
    def options(parser, path=()):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            # every leaf command has its handler
            assert callable(parser.get_default("run")), path
            return {" ".join(path): sorted(o for a in parser._actions
                                           for o in a.option_strings
                                           if o not in ("-h", "--help"))}
        return {k: v for name, sub in subs[0].choices.items()
                for k, v in options(sub, path + (name,)).items()}

    io = ["--format", "--out"]
    assert options(cli._build_parser()) == {
        "rootsys dump": sorted(io + ["--type"]),
        "catalog list": sorted(io + ["--max-rank"]),
        "catalog show": sorted(io + ["--space"]),
        "partitions verify": sorted(io + ["--family", "--max-rank"]),
        "omega decompose": sorted(io + ["--method", "--p", "--space"]),
        "min-twist": sorted(io + ["--p", "--space"]),
        "table-audit": sorted(io + ["--which"]),
        "nonvanishing": sorted(io + ["--max-rank"]),
        "foliation rect": sorted(io + ["--k", "--n", "--p"]),
        "foliation sympl": sorted(io + ["--a", "--n"]),
        "foliation ortho": sorted(io + ["--a", "--n"]),
        "foliation cayley": io,
        "foliation scan": sorted(io + ["--max-rank"]),
        "verify": sorted(io + ["--max-rank"]),
    }
    # the sweep bounds that were removed are usage errors
    for argv in (["verify", "--families", "A"], ["verify", "--max-p", "3"],
                 ["partitions", "verify", "--family", "A", "--max-p", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_engine_state_limit_is_an_internal_error(capsys, monkeypatch,
                                                 cold_answers):
    monkeypatch.setattr(plethysm, "ENGINE_STEP_LIMIT", 1000)
    code, out, err = run(capsys, "omega", "decompose", "--space", "E6",
                         "--p", "1", "--method", "WeightDP")
    assert code == 3 and out == ""
    assert err == ("internal error: DecompositionError: E6: weight engine to "
                   "grade 8 passed ENGINE_STEP_LIMIT = 1000 units (one per dot "
                   "action and per reflection step)\n")


def test_verify_pool_builds_each_dp_table_once(cold_answers):
    # one pool task per space: on two workers no two threads run the engine
    # pass of one space, and no answer is computed twice
    cli.run_verify(7, jobs=2)
    engine_spaces = [s for s in catalog.iter_catalog_specs(7) if s.dim <= 27]
    passes = plethysm._engine_levels.cache_info()
    assert passes.misses == passes.currsize == len(engine_spaces) == 39
    answers = plethysm._route_summands.cache_info()
    assert answers.misses == answers.currsize == 429


def test_output_determinism(capsys):
    args = ["omega", "decompose", "--space", "IG:4", "--p", "5"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ["foliation", "scan", "--max-rank", "4", "--format", "csv"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    # caching changes no output: a run from empty caches and a second run
    # served from what the first one cached print the same JSON
    rootsys._root_system.cache_clear()
    catalog._build.cache_clear()
    plethysm._route_summands.cache_clear()
    plethysm._kostant_levels.cache_clear()
    plethysm._engine_levels.cache_clear()
    args = ["verify", "--max-rank", "4"]
    code, cold, _ = run(capsys, *args)
    hits = plethysm._route_summands.cache_info().hits
    assert run(capsys, *args) == (code, cold, "")
    assert plethysm._route_summands.cache_info().hits > hits


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "min-twist", "--space", "Q:5", "--p", "2",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["l"] == 3


@pytest.mark.parametrize("target", ["missing/report.json", ""])
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, target):
    # a missing directory, and a directory: one error line, nothing written
    path = tmp_path / target
    code, out, err = run(capsys, "min-twist", "--space", "Q:5", "--p", "2",
                         "--out", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write --out {path}: ")
    assert list(tmp_path.iterdir()) == []


def test_a_failed_command_writes_no_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "min-twist", "--space", "G:0:5", "--p", "2",
                       "--out", str(target))
    assert code == 2 and out == ""
    assert not target.exists()


_FOLIATION_HEADER = "space,p,l,degree,kind,params,parameter_space,tf_rank,tf_c1,minimal"
_SPEC_HEADER = "space,family,ambient,marked_node,dim,c1"
# one small run of every leaf command: its exit code and CSV header
CSV_RUNS = [
    (["rootsys", "dump", "--type", "A2"], 0, "root"),
    (["catalog", "list", "--max-rank", "3"], 0, _SPEC_HEADER),
    (["catalog", "show", "--space", "Q:5"], 0, _SPEC_HEADER),
    (["partitions", "verify", "--family", "C", "--max-rank", "3"], 0,
     "family,k,n,p,formula_l,oracle_l,witnesses"),
    (["omega", "decompose", "--space", "G:2:4", "--p", "2"], 0,
     "weight,levi_dim,twist"),
    (["min-twist", "--space", "G:2:4", "--p", "2"], 0, "space,p,l,d,h0_dim"),
    (["table-audit", "--which", "E6"], 1, "p,weights_match,l_match,computed_l,"
                                          "table_l,computed_weights,table_weights"),
    (["nonvanishing", "--max-rank", "3"], 0, "space,p,l,d,status,note"),
    (["foliation", "rect", "--k", "2", "--n", "4", "--p", "1"], 0, _FOLIATION_HEADER),
    (["foliation", "sympl", "--n", "3", "--a", "1"], 0, _FOLIATION_HEADER),
    (["foliation", "ortho", "--n", "4", "--a", "1"], 0, _FOLIATION_HEADER),
    (["foliation", "cayley"], 0, _FOLIATION_HEADER),
    (["foliation", "scan", "--max-rank", "3"], 0, _FOLIATION_HEADER),
    (["verify", "--max-rank", "2"], 0, "name,ok,checked"),
]


def _command(argv):
    return " ".join(itertools.takewhile(lambda a: not a.startswith("-"), argv))


def _leaf_commands(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(path)]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in _leaf_commands(sub, path + (name,))]


def test_csv_runs_name_every_leaf_command():
    leaves = _leaf_commands(cli._build_parser())
    assert len(leaves) == 14
    assert [_command(argv) for argv, _, _ in CSV_RUNS] == leaves


@pytest.mark.parametrize("argv, code, header", CSV_RUNS,
                         ids=[_command(argv) for argv, _, _ in CSV_RUNS])
def test_every_leaf_command_writes_its_csv_header(capsys, argv, code, header):
    got, out, err = run(capsys, *argv, "--format", "csv")
    assert (got, err) == (code, "")
    lines = out.splitlines()
    assert lines[0] == header and len(lines) > 1


def _tamper_e6_grade_4(monkeypatch, change):
    """Hand the summands of grade 4 of E6, two of them, to ``change`` after
    the engine's Newton grade has checked them, and pass on its result."""
    real = plethysm._newton_grade

    def tampered(spec, levels, p, steps):
        level, steps = real(spec, levels, p, steps)
        if spec.name == "E6" and p == 4:
            level = change(level)
        return level, steps

    monkeypatch.setattr(plethysm, "_newton_grade", tampered)


def _drop_a_row(level):
    return level[:-1]


def _shift_a_count(level):
    # the last summand's multiplicity moves to the first
    return level[:1] * 2


@pytest.mark.parametrize("change", [_drop_a_row, _shift_a_count])
def test_engine_pass_catches_a_defect_inside_a_run(capsys, monkeypatch,
                                                  cold_answers, change):
    # grade 5 of E6 is read off the grades below it; a grade 4 that lost or
    # moved a summand must fail its Newton sums, in the library and in the
    # CLI, whichever grade is asked
    _tamper_e6_grade_4(monkeypatch, change)
    with pytest.raises(plethysm.DecompositionError,
                       match="E6, p=5: Newton sum .* is not divisible by 5"):
        plethysm.omega_decompose(catalog.cayley(), 4, method="WeightDP")
    code, out, err = run(capsys, "omega", "decompose", "--space", "E6",
                         "--p", "3", "--method", "WeightDP")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: DecompositionError: E6, p=5: ")


def test_a_closed_form_disagreement_is_an_internal_error(capsys, monkeypatch):
    real = twists.closed_form_l
    monkeypatch.setattr(twists, "closed_form_l", lambda spec, p: real(spec, p) + 1)
    code, out, err = run(capsys, "min-twist", "--space", "G:2:5", "--p", "3")
    assert code == 3 and out == ""
    assert err == ("internal error: DecompositionError: G:2:5, p=3: closed "
                   "form gives l=5, CauchyA gives l=4\n")


def test_internal_failure_has_its_own_exit_code(capsys, monkeypatch,
                                               cold_answers):
    # a forced engine pass on Q:120 passes the engine's step limit: an
    # internal limit, not a mathematical mismatch and not a usage error
    # (under a lower limit the least work of the pass, 120 * 60 * 61 / 2 dot
    # actions, passes it before the pass starts)
    monkeypatch.setattr(plethysm, "ENGINE_STEP_LIMIT", 2 ** 16)
    code, out, err = run(capsys, "omega", "decompose", "--space", "Q:120",
                         "--p", "2", "--method", "WeightDP")
    assert code == 3
    assert out == ""
    assert err == ("internal error: DecompositionError: Q:120: weight engine to "
                   "grade 60 needs at least 219600 dot actions, past "
                   "ENGINE_STEP_LIMIT = 65536 units (one per dot action and per "
                   "reflection step)\n")


def test_auto_answers_a_quadric_beyond_the_engine_key(capsys):
    # the route auto takes on quadrics is not the engine: Q:120 p = 2 is the
    # one summand Wedge^2 of the standard so(120) module, twisted
    code, out, err = run(capsys, "omega", "decompose", "--space", "Q:120",
                         "--p", "2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["method"] == "Kostant"
    assert len(data["summands"]) == 1
    assert data["summands"][0]["levi_dim"] == comb(120, 2)
    assert data["summands"][0]["twist"] == -3


def test_omega_method_takes_only_auto_or_engine():
    # a fast path is chosen by the family, never by name
    with pytest.raises(SystemExit) as exc:
        main(["omega", "decompose", "--space", "Q:5", "--p", "2",
              "--method", "CauchyA"])
    assert exc.value.code == 2
