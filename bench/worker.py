"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py '<json config>'

The config names the checkout root, the workload, the seed, whether to
trace, and a scratch directory.  The pass imports ``cominuscule`` from the
checkout's ``src/`` (never from an installed copy), builds the workload's
specs, runs its operations, checks the answers after the timed region, and
prints one JSON object as its last line of output.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl


def _engine_cold(lib, seed):
    specs = {name: lib.parse_space(name) for name in wl.ENGINE_SPACES}
    ops = wl.engine_cold_inputs(seed, {n: s.dim for n, s in specs.items()})

    def call(op):
        return wl.run_engine_op(lib, specs, op)

    def gate(answers):
        fast = {(name, p): list(lib.omega_decompose(specs[name], p).weights())
                for name in wl.FAST_PATH_SPACES for p in range(specs[name].dim + 1)}
        duals = {}
        for op, answer in zip(ops, answers):
            if op[0] != "omega" or not isinstance(answer, dict):
                continue
            spec = specs[op[1]]
            if not wl.dual_pair_is_independent(spec.dim, op[2]):
                continue
            k = spec.marked_node - 1
            predicted = []
            for weight, levi_dim, _ in answer["summands"]:
                w = list(spec.levi.dual_highest_weight(tuple(weight)))
                w[k] -= spec.index_c1
                predicted.append((tuple(w), levi_dim))
            duals[(op[1], spec.dim - op[2])] = sorted(predicted)
        stored = json.loads(wl.ANSWERS_FILE.read_text(encoding="utf-8"))
        return wl.gate_engine_cold(ops, answers, fast, duals, stored)

    return ops, call, gate


def _verify_7(lib, scratch):
    list(lib.iter_catalog_specs(7))
    out = Path(scratch) / "verify.json"
    out.unlink(missing_ok=True)  # a failed verify writes no report
    ops = [("verify",)]

    def call(op):
        return lib.cli.main([*wl.VERIFY_ARGS, "--out", str(out)])

    def gate(answers):
        if answers[0] is wl.Failure:
            return {}
        if not out.exists():
            return {0: f"verify exited {answers[0]} and wrote no report"}
        report = json.loads(out.read_text(encoding="utf-8"))
        reason = wl.gate_verify(answers[0], report)
        return {0: reason} if reason else {}

    return ops, call, gate


def _query_mix(lib, ops):
    list(lib.iter_catalog_specs(wl.QUERY_RANK))

    def call(op):
        return wl.run_query(lib, op)

    def gate(answers):
        bad = {}
        for i, (op, answer) in enumerate(zip(ops, answers)):
            if answer is wl.Failure:
                continue
            reason = wl.gate_query(op, answer, lib.tables)
            if reason:
                bad[i] = reason
        return bad

    return ops, call, gate


def pin_to_one_cpu() -> int | None:
    """Keep this process and every thread it starts on one CPU.

    On a shared VM, threads that hand the GIL to each other across CPUs wait
    on the host's scheduling of both CPUs, and verify-7's thread pool then
    spreads run to run far more than single-threaded work does.  On one CPU
    the pool keeps its default size (``os.cpu_count()`` does not look at
    affinity) and its threads take turns without that wait.  The CPU is the
    last one allowed, since device interrupts usually go to the first."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_pass(cfg: dict) -> dict:
    workload, seed = cfg["workload"], cfg["seed"]
    src = Path(cfg["root"]) / "src"
    cpu = pin_to_one_cpu()
    queries = wl.query_mix_inputs(seed) if workload == "query-mix" else None

    start = perf_counter()
    sys.path.insert(0, str(src))
    import cominuscule as lib
    import cominuscule.cli
    import cominuscule.tables  # noqa: F401  (reference l(p) for E6/E7)

    if Path(lib.__file__).resolve().parent != (src / "cominuscule").resolve():
        raise SystemExit(f"cominuscule imported from {lib.__file__}, not from {src}")
    tracer = None
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if workload == "engine-cold":
        ops, call, gate = _engine_cold(lib, seed)
    elif workload == "verify-7":
        ops, call, gate = _verify_7(lib, cfg["scratch"])
    else:
        ops, call, gate = _query_mix(lib, queries)
    setup_done = perf_counter()
    latencies, answers, failures = wl.run_ops(ops, call)
    done = perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    span_count = len(tracer.spans) if tracer else 0

    for i, reason in gate(answers).items():
        failures.setdefault(i, reason)
    result = {
        "setup_s": setup_done - start,
        "wall_s": done - setup_done,
        "latencies": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [f"{wl.op_key(ops[i])}: {failures[i]}" for i in sorted(failures)[:20]],
        "rss_mb": rss_mb,
        "cpu": cpu,
        "traced": bool(tracer),
    }
    if tracer:
        spans = Path(cfg["scratch"]) / "spans.jsonl"
        tracer.dump(spans, span_count)
        result["spans"] = str(spans)
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
