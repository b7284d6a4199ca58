"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


# -- percentiles ----------------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct, n = run.tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = run.tail(range(11))
    assert (value, n) == (0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_falls_back_to_the_maximum_below_eleven_samples():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([7.0]) == (7.0, 100.0, 1)


def test_summary_reports_medians_and_sample_counts():
    passes = [{"setup_s": s, "wall_s": 2.0, "latencies": [0.001] * 20, "rss_mb": 50.0}
              for s in (0.1, 0.3, 0.2)]
    out = run.summarize(passes, "query-mix")
    assert out["setup_s"]["value"] == 0.2
    assert out["setup_s"]["passes"] == 3
    assert out["queries_per_s"]["value"] == 10.0
    assert out["query_tail_ms"]["queries_per_pass"] == 20
    assert out["query_tail_ms"]["percentile"] == 50.0
    assert set(out) == set(run.E2E_UNITS)


def test_query_metrics_restate_the_pass_outside_query_mix():
    passes = [{"setup_s": 0.1, "wall_s": w, "latencies": [0.001, 1.0], "rss_mb": 50.0}
              for w in (2.0, 4.0, 3.0)]
    out = run.summarize(passes, "engine-cold")
    assert out["query_p50_ms"]["value"] == out["query_tail_ms"]["value"] == 3000.0
    assert out["queries_per_s"]["value"] == pytest.approx(1 / 3)
    assert all(out[name]["restates"] == "wall_s" for name in run.QUERY_METRICS)


def test_a_run_starts_no_pass_that_would_end_after_its_seconds():
    assert run.next_pass_fits(50.0, 4.0, 60.0, trace=False)
    assert not run.next_pass_fits(57.0, 4.0, 60.0, trace=False)
    assert not run.next_pass_fits(50.0, 6.0, 60.0, trace=True)  # a pair is two passes


def test_benchmark_json_names_the_metrics_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


# -- spans ------------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (1, 0, "a", 0.0, 10.0, None),
        (2, 1, "b", 1.0, 4.0, None),   # two children overlap (pool threads)
        (3, 1, "b", 3.0, 6.0, None),
        (4, 1, "c", 8.0, 12.0, None),  # clipped at the parent's end
        (5, 2, "d", 1.5, 2.5, None),   # grandchild: only its parent loses it
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10 - (5 + 2))
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[5] == pytest.approx(1)


def test_layer_metrics_count_duality_and_repeats():
    omega = "plethysm.omega"
    spans = [
        (1, 0, omega, 0.0, 1.0, ["E7", 20, "WeightDP", "WeightDP"]),
        (2, 1, "plethysm.decompose", 0.1, 0.9, ["E7", 7, 4]),
        (3, 0, omega, 1.0, 1.1, ["E7", 7, "WeightDP", "WeightDP"]),
        (4, 0, omega, 1.1, 1.2, ["E7", 20, "WeightDP", "WeightDP"]),
        (5, 0, omega, 1.2, 1.3, ["G:2:4", 1, "auto", "CauchyA"]),
    ]
    m = tracing.layer_metrics(spans)
    assert m["plethysm.duality_grades"] == 1  # grade 20, never decomposed
    assert m["plethysm.omega_calls"] == 4
    assert m["plethysm.omega_repeat_ratio"] == 0.25
    assert m["plethysm.summands"] == 4
    assert m["plethysm.decompose_s"] == pytest.approx(0.8)
    assert m["plethysm.omega_s"] == pytest.approx(0.2 + 0.1 + 0.1 + 0.1)
    assert set(m) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)


def test_install_wraps_every_binding_and_follows_pool_threads():
    script = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / "src")!r}]
        import cominuscule, cominuscule.cli
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        for mod in (cominuscule, cominuscule.twists, cominuscule.cli):
            assert hasattr(mod.omega_decompose, "__wrapped__"), mod
        cominuscule.cli.run_verify(3, jobs=2)
        verify = [s[0] for s in tracer.spans if s[2] == "cli.verify"]
        pool = [s for s in tracer.spans if s[2] == "plethysm.omega"
                and s[5][2] == "WeightDP"]
        print(json.dumps({{"verify": verify, "parents": sorted({{s[1] for s in pool}})}}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["parents"] == out["verify"]


# -- inputs ----------------------------------------------------------------------------


def test_query_mix_inputs_follow_the_seed():
    a, b, c = wl.query_mix_inputs(1), wl.query_mix_inputs(1), wl.query_mix_inputs(2)
    assert a == b
    assert a != c
    assert sorted(a) == sorted(c)


def test_query_mix_asks_every_pair_four_times():
    queries = wl.query_mix_inputs(7)
    pairs = [q[1:3] for q in queries if q[0] in ("mt", "omega")]
    every = {(s, p) for s, d in wl.catalog_spaces(wl.QUERY_RANK) for p in range(1, d + 1)}
    assert len(wl.catalog_spaces(wl.QUERY_RANK)) == 48
    assert len(every) == 542
    assert sorted(pairs) == sorted(pair for pair in every for _ in range(4))
    assert len(wl.oracle_inputs(wl.QUERY_RANK)) == 382
    assert sum(q[0].startswith("bad-") for q in queries) == 2 * 48 + 2 * len(wl.BAD_SPACES)


def test_duality_gate_keeps_only_directly_decomposed_pairs():
    assert [p for p in range(28) if wl.dual_pair_is_independent(27, p)] == [13, 14]
    assert all(wl.dual_pair_is_independent(20, p) for p in range(21))


def test_engine_cold_seed_only_permutes_the_order():
    dims = {"E7": 27, "E6": 16, "Q:20": 20, "G:4:9": 20, "OG:7": 21, "IG:6": 21}
    a, b = wl.engine_cold_inputs(1, dims), wl.engine_cold_inputs(2, dims)
    assert a != b
    assert sorted(a) == sorted(b)
    assert {wl.op_key(op) for op in a} == set(json.loads(wl.ANSWERS_FILE.read_text()))


# -- answer gates ------------------------------------------------------------------------


def test_a_raised_error_counts_as_a_failure_and_the_run_goes_on():
    def call(op):
        if op[1] == 1:
            raise AssertionError("internal check")
        if op[1] in (2, 3):
            raise ValueError("bad input")
        return op[1]

    ops = [("mt", 0), ("mt", 1), ("mt", 2), ("bad-mt", 3), ("mt", 4)]
    latencies, answers, failures = wl.run_ops(ops, call)
    assert len(latencies) == 5
    assert answers == [0, wl.Failure, ValueError, ValueError, 4]
    assert sorted(failures) == [1, 2]
    assert failures[1].startswith("AssertionError")


def test_query_gate_catches_wrong_answers():
    good = {"l": 8, "degree": -1, "below": 0, "above": 19305, "dim": 16}
    assert wl.gate_query(("mt", "E6", 8, 0), good, _tables()) is None
    assert wl.gate_query(("mt", "E6", 8, 0), dict(good, l=9), _tables())
    assert wl.gate_query(("mt", "E6", 8, 0), dict(good, below=5), _tables())
    assert wl.gate_query(("bad-mt", "E8", 1, 0), {"l": 1}, _tables())
    assert wl.gate_query(("bad-mt", "E8", 1, 0), ValueError, _tables()) is None
    oracle = {"l": 4, "partitions": [[2, 2, 1, 1]]}
    assert wl.gate_query(("oracle", "C", 4, 3, 0), oracle, _tables())
    assert wl.gate_query(("oracle", "C", 4, 3, 0),
                         {"l": 3, "partitions": [[3, 2, 1]]}, _tables()) is None


def test_verify_gate_catches_wrong_answers():
    report = {"components": [
        {"name": name, "ok": name != "table audit", "checked": n,
         "failures": [{"table": "E6", "p": 8}] if name == "table audit" else []}
        for name, n in wl.VERIFY_MIN_CHECKED.items()]}
    assert wl.gate_verify(1, report) is None
    assert wl.gate_verify(0, report)
    report["components"][2]["checked"] -= 1  # a run that checks less
    assert "fewer" in wl.gate_verify(1, report)


def test_engine_gate_catches_a_corrupted_answer():
    op = ("omega", "E6", 1)
    answer = {"method": "WeightDP", "summands": [[[-2, 0, 1, 0, 0, 0], 16, -2]]}
    stored = {wl.op_key(op): wl.digest(answer)}
    assert wl.gate_engine_cold([op], [answer], {}, {}, stored) == {}
    answer["summands"][0][1] = 17
    assert wl.gate_engine_cold([op], [answer], {}, {}, stored)


# -- the command ---------------------------------------------------------------------------


def _tables():
    sys.path.insert(0, str(ROOT / "src"))
    from cominuscule import tables
    return tables


def _copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_answer_makes_the_run_exit_nonzero(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    with open(tmp_path / "src/cominuscule/partitions.py", "a") as fh:
        fh.write(textwrap.dedent("""
            _true_oracle = min_twist_spinor_oracle

            def min_twist_spinor_oracle(n, p):
                w = _true_oracle(n, p)
                return MinTwistWitness(w.l + 1, w.partitions, w.criterion, w.box)
        """))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert 0 < last["failed"] < last["attempted"]
    assert set(last["metrics"]) == set(run.E2E_UNITS)


def test_without_library_source_the_run_fails_and_prints_no_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
