"""Benchmark of the cominuscule library: one workload per run.

    python3 bench/run.py --workload engine-cold|verify-7|query-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload in a fresh
interpreter (``bench/worker.py``) that imports the library from ``src/``;
passes repeat while the next one should end within ``--seconds`` (there is
always at least one), each ordering its inputs by the next seed of a stream
started from ``--seed``.  Every answer is checked.
With ``--trace 0`` the run reports the end-to-end metrics, each the median
over its passes; with ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of output is one JSON object; a full record with
provenance goes to ``bench/out/``.  The exit code is 0 only when every
answer was right.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# A run must end within 180 s; no pass may start a timeout beyond this.
RUN_LIMIT_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum when there are fewer
    than eleven samples."""
    xs = sorted(samples)
    n = len(xs)
    i = max(n - 11, 0) if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


QUERY_METRICS = ("query_p50_ms", "query_tail_ms", "queries_per_s")


def pass_metrics(p: dict, workload: str) -> dict:
    """End-to-end figures of one pass.  The query metrics are defined on
    query-mix, where a query is one question.  BENCHMARK.json cannot scope a
    metric to one workload, so on the other workloads they restate the pass:
    1000 * wall_s for both latencies and 1 / wall_s for the rate."""
    out = {"setup_s": p["setup_s"], "wall_s": p["wall_s"], "peak_rss_mb": p["rss_mb"]}
    if workload == "query-mix":
        lat = p["latencies"]
        value, pct, n = tail(lat)
        out |= {"query_p50_ms": statistics.median(lat) * 1000,
                "query_tail_ms": value * 1000,
                "queries_per_s": len(lat) / p["wall_s"],
                "tail_percentile": pct, "queries": n}
    else:
        out |= {"query_p50_ms": p["wall_s"] * 1000,
                "query_tail_ms": p["wall_s"] * 1000,
                "queries_per_s": 1 / p["wall_s"]}
    return out


def summarize(passes: list[dict], workload: str) -> dict:
    """Median over passes of each end-to-end figure, with sample counts."""
    per_pass = [pass_metrics(p, workload) for p in passes]
    out = {}
    for name, unit in E2E_UNITS.items():
        out[name] = {"value": statistics.median(m[name] for m in per_pass),
                     "unit": unit, "passes": len(per_pass)}
    for name in QUERY_METRICS:
        if workload == "query-mix":
            out[name]["queries_per_pass"] = per_pass[0]["queries"]
        else:
            out[name]["restates"] = "wall_s"
    if workload == "query-mix":
        out["query_tail_ms"]["percentile"] = per_pass[0]["tail_percentile"]
    return out


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, seed: int) -> dict:
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                    for f in sorted((root / "src").rglob("*.py")))
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "seed": seed,
        "src_lines": src_lines,
    }


def next_pass_fits(elapsed: float, longest: float, seconds: float,
                   trace: bool) -> bool:
    """Whether the next pass, or the next untraced-traced pair of a traced
    run, should end within ``seconds``, judged by the longest pass so far.
    Stopping on this rule keeps a run to ``seconds`` however slow the host."""
    return elapsed + longest * (2 if trace else 1) <= seconds


def run_one_pass(workload: str, seed: int, traced: bool, scratch: Path,
                 timeout: float) -> dict:
    """Run one pass in a child interpreter.  A pass that crashes or times
    out comes back as one failed operation with no samples."""
    cfg = {"root": str(ROOT), "workload": workload, "seed": seed,
           "trace": traced, "scratch": str(scratch)}
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        reason = f"pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        return {"crashed": True, "timed_out": True, "attempted": 1, "failed": 1,
                "failures": [f"pass did not finish within {timeout:.0f} s"],
                "traced": traced}
    except json.JSONDecodeError as exc:
        reason = f"pass printed no result: {exc}"
    return {"crashed": True, "attempted": 1, "failed": 1, "failures": [reason],
            "traced": traced}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    started = perf_counter()
    # Each pass orders its inputs by its own seed, drawn from --seed, so the
    # median over passes averages out how the order moves the timings.
    pass_seeds = random.Random(seed)
    passes: list[dict] = []
    layers: list[dict] = []
    longest = 0.0
    spans_kept = None
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_started = perf_counter()
            pass_seed = pass_seeds.randrange(2**31)
            p = run_one_pass(workload, pass_seed, traced, scratch,
                             max(5.0, RUN_LIMIT_S - (pass_started - started)))
            longest = max(longest, perf_counter() - pass_started)
            p["seed"] = pass_seed
            passes.append(p)
            if "spans" in p:
                spans = tracing.load_spans(p["spans"])
                layers.append(tracing.layer_metrics(spans))
                spans_kept = OUT / f"BENCH_{workload}_seed{seed}_spans.jsonl"
                shutil.move(p.pop("spans"), spans_kept)
            if p.get("timed_out"):
                break
            # A traced run goes on in pairs (untraced, traced), so it has
            # both kinds.
            if trace and not traced:
                continue
            if not next_pass_fits(perf_counter() - started, longest, seconds, trace):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    good = [p for p in passes if not p.get("crashed")]
    plain = [p for p in good if not p["traced"]]
    traced_passes = [p for p in good if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(ROOT, seed),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": [f for p in passes for f in p["failures"]][:50],
        "passes": [pass_metrics(p, workload)
                   | {"seed": p["seed"], "traced": p["traced"], "cpu": p["cpu"]}
                   for p in good],
        "end_to_end": summarize(plain, workload) if plain else {},
    }
    if trace:
        per_layer = {}
        if layers:
            for name in layers[0]:
                per_layer[name] = {"value": statistics.median(m[name] for m in layers),
                                   "unit": tracing.LAYER_METRICS[name],
                                   "passes": len(layers)}
        if plain and traced_passes:
            overhead = (statistics.median(p["wall_s"] for p in traced_passes)
                        - statistics.median(p["wall_s"] for p in plain))
            per_layer["trace.overhead_s"] = {"value": overhead, "unit": "s",
                                             "passes": len(traced_passes) + len(plain)}
        record["per_layer"] = per_layer
        record["spans_file"] = str(spans_kept.relative_to(ROOT)) if spans_kept else None
    record["correct"] = failed == 0 and bool(plain) and (not trace or bool(layers))
    return record


def report_lines(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}  seed {record['provenance']['seed']}  "
             f"trace {record['trace']}  passes {len(record['passes'])}"]
    for name, m in record["end_to_end"].items():
        extra = f"median of {m['passes']} passes"
        if "queries_per_pass" in m:
            extra += f", {m['queries_per_pass']} queries per pass"
        if "percentile" in m:
            extra += f", p{m['percentile']:.2f} of each pass"
        if "restates" in m:
            extra += f", restates {m['restates']}"
        lines.append(f"  {name:<16}{m['value']:>14.6g} {m['unit']:<6}{extra}")
    lines.append(f"  {'failed_frac':<16}{record['failed_frac']:>14.6g} {'1':<6}"
                 f"{record['failed']} of {record['attempted']} operations")
    for name, m in record.get("per_layer", {}).items():
        lines.append(f"  {name:<30}{m['value']:>14.6g} {m['unit']:<6}"
                     f"from {m['passes']} passes")
    lines.extend(f"  FAILED {f}" for f in record["failures"][:10])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cominuscule" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'cominuscule'}",
              file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(report_lines(record)))
    print(f"  record written to {path.relative_to(ROOT)}")
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
