import json
from math import comb

import numpy as np
import pytest

from cominuscule import catalog, cli, plethysm, rootsys
from cominuscule.catalog import quadric
from cominuscule.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rootsys_dump(capsys):
    code, out, _ = run(capsys, "rootsys", "dump", "--type", "E6")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 6 and data["positive_root_count"] == 36


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--max-rank", "4")
    assert code == 0
    rows = json.loads(out)
    assert {"space", "family", "ambient", "marked_node", "dim", "c1"} <= set(rows[0])
    code, out, _ = run(capsys, "catalog", "show", "--space", "IG:5")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 15 and data["table1_check"]["matches"]


def test_catalog_show_bad_space_is_usage_error(capsys):
    code, _, err = run(capsys, "catalog", "show", "--space", "G:0:5")
    assert code == 2
    assert "G:0:5" in err or "k" in err


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
    # grade bounds: 0 means no grade at all, a negative one is a usage error
    code, out, _ = run(capsys, "partitions", "verify", "--family", "A",
                       "--max-p", "0")
    assert code == 0 and json.loads(out) == []
    code, out, err = run(capsys, "partitions", "verify", "--family", "A",
                         "--max-p", "-1")
    assert code == 2 and out == "" and err.startswith("error: ")


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


def test_verify_small_run(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--max-rank", "3", "--max-p", "4")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and len(data["components"]) == 6
    # --max-p 0 checks grade 0 only; it used to check every grade
    grades = set()
    real = cli.omega_decompose

    def spy(spec, p, method="auto"):
        grades.add(p)
        return real(spec, p, method)

    monkeypatch.setattr(cli, "omega_decompose", spy)
    code, out, _ = run(capsys, "verify", "--max-rank", "3", "--max-p", "0")
    assert code == 0
    data = json.loads(out)
    assert data["config"]["max_p"] == 0 and grades == {0}
    assert data["components"][0]["checked"] == 0
    assert all(c["checked"] for c in data["components"][1:3])
    code, out, err = run(capsys, "verify", "--max-rank", "3", "--max-p", "-1")
    assert code == 2 and out == "" and err.startswith("error: ")
    # --jobs below 1 is a usage error; -3 used to run one thread and exit 0
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--max-rank", "2", "--jobs", jobs)
        assert code == 2 and out == "", jobs
        assert err == "error: --jobs must be at least 1\n", jobs


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
    # drop one summand of grade 2 of Q:5 from the engine's Klimyk pass: the
    # path comparison must list the (space, p) with both sums and exit 1;
    # grade 3 of Q:5 is the engine's dual of grade 2, so it inherits the loss
    real = plethysm._klimyk

    def lossy(spec, keys, counts, lo, hi):
        levels = real(spec, keys, counts, lo, hi)
        if spec.name == "Q:5" and lo[-1] <= 2 <= hi[-1]:
            del levels[2 - lo[-1]][0]
        return levels

    monkeypatch.setattr(plethysm, "_klimyk", lossy)
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 1
    components = {c["name"]: c for c in json.loads(out)["components"]}
    paths = components.pop("fast path vs weight engine")
    dropped = plethysm._kostant_levels(quadric(5))[2][0].levi_dim
    assert paths["failures"] == [
        {"space": "Q:5", "p": p, "method": "WeightDP", "expected": comb(5, p),
         "got": comb(5, p) - dropped} for p in (2, 3)]
    assert all(c["ok"] for c in components.values())


def test_verify_pool_builds_each_dp_table_once(cold_answers):
    # one pool task per space: no two threads run the engine pass of one
    # space, and no answer is computed twice
    cli.run_verify(7)
    engine_spaces = [s for s in catalog.iter_catalog_specs(7) if s.dim <= 27]
    passes = plethysm._engine_levels.cache_info()
    assert passes.misses == passes.currsize == len(engine_spaces) == 39
    answers = plethysm._route_summands.cache_info()
    assert answers.misses == answers.currsize


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
    rootsys.root_system.cache_clear()
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


def _tamper_e6_grade_3(monkeypatch, change):
    """Make the DP of E6 hand ``change`` the keys and counts of grade 3, the
    middle of the Klimyk run 0..4, as arrays it may edit in place."""
    real = plethysm._exterior_tables

    def tampered(spec, max_grade):
        lo, hi, states = real(spec, max_grade)
        if spec.name == "E6" and max_grade >= 3:
            keys, counts = states[3][0].copy(), states[3][1].copy()
            states[3] = change(plethysm._decode(keys, lo, hi), keys, counts)
        return lo, hi, states

    monkeypatch.setattr(plethysm, "_exterior_tables", tampered)


def _drop_a_row(rows, keys, counts):
    # the last row that a Levi reflection moves (E6 is marked at node 1);
    # its count goes to the first row, so the DP's mass check still passes
    moved = np.flatnonzero(rows[:, 1:].any(axis=1))[-1]
    counts[0] += counts[moved]
    return np.delete(keys, moved), np.delete(counts, moved)


def _shift_a_count(rows, keys, counts):
    moved = np.flatnonzero(rows[:, 1:].any(axis=1))[-1]
    counts[moved] -= 1
    counts[0] += 1
    return keys, counts


@pytest.mark.parametrize("change", [_drop_a_row, _shift_a_count])
def test_engine_pass_catches_a_defect_inside_a_run(capsys, monkeypatch,
                                                  cold_answers, change):
    # grades 0..4 of E6 share one invariance check; a grade 3 that lost
    # its W_L symmetry must fail it, in the library and in the CLI
    _tamper_e6_grade_3(monkeypatch, change)
    with pytest.raises(plethysm.DecompositionError, match="E6: .*not invariant"):
        plethysm.omega_decompose(catalog.cayley(), 3, method="WeightDP")
    code, out, err = run(capsys, "omega", "decompose", "--space", "E6",
                         "--p", "3", "--method", "WeightDP")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: DecompositionError: E6: ")


def test_internal_failure_has_its_own_exit_code(capsys):
    # the weights of Q:120 do not fit the engine's 64-bit key: an internal
    # limit, not a mathematical mismatch and not a usage error
    code, out, err = run(capsys, "omega", "decompose", "--space", "Q:120",
                         "--p", "2", "--method", "WeightDP")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: DecompositionError: Q:120: ")


def test_auto_answers_a_quadric_beyond_the_engine_key(capsys):
    # the route auto takes on quadrics has no weight box: Q:120 p = 2 is the
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
