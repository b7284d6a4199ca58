"""Spans around the library's public functions, installed from outside.

``install`` wraps each function in ``FUNCTIONS`` at every module attribute
that holds it (``twists.omega_decompose`` and ``cli.omega_decompose`` are
separate bindings of ``plethysm.omega_decompose``), and each method in
``METHODS`` on its class.  ``cli.ThreadPoolExecutor`` is replaced by a pool
that runs each task in a copy of the submitter's context, so spans opened in
pool threads get the span that submitted them as parent.

The hottest helpers (``reflect``, ``dominant_representative``,
``_make_summand``) are deliberately not wrapped: they run millions of times
and a wrapper would swamp them.  Their cost lands in the self time of the
Freudenthal, decompose and fast-path spans that call them.

Spans are kept in memory as tuples and written out once, after the timed
region; ``layer_metrics`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# (module, function, span name)
FUNCTIONS = [
    *(("catalog", f, "catalog.spec") for f in (
        "parse_space", "make_spec", "grassmannian", "quadric", "lagrangian",
        "spinor", "cayley", "freudenthal")),
    *(("partitions", f, "partitions.oracle") for f in (
        "min_twist_grass_oracle", "min_twist_lagr_oracle",
        "min_twist_spinor_oracle")),
    ("partitions", "hooks_q1", "partitions.hooks"),
    ("partitions", "hooks_qm1", "partitions.hooks"),
    ("plethysm", "omega_p_weights", "plethysm.dp"),
    ("plethysm", "decompose", "plethysm.decompose"),
    ("plethysm", "cauchy_decompose", "plethysm.fastpath"),
    ("plethysm", "hooks_decompose", "plethysm.fastpath"),
    ("plethysm", "omega_decompose", "plethysm.omega"),
    ("twists", "min_twist", "twists.min_twist"),
    ("twists", "h0_dim", "twists.h0"),
    ("twists", "table_audit", "twists.audit"),
    ("twists", "nonvanishing_scan", "twists.scan"),
    *(("foliations", f, "foliations.family") for f in (
        "rect_family", "symplectic_family", "orthogonal_family",
        "cayley_family", "foliation_atlas")),
    ("cli", "main", "cli.main"),
    ("cli", "run_verify", "cli.verify"),
]

# (module, class, method, span name)
METHODS = [
    ("rootsys", "RootSystem", "__init__", "rootsys.build"),
    ("rootsys", "RootSystem", "dominant_weight_multiplicities", "rootsys.freudenthal"),
    ("rootsys", "LeviSubsystem", "dominant_weight_multiplicities", "rootsys.freudenthal"),
    ("rootsys", "RootSystem", "weyl_dim", "rootsys.weyl_dim"),
    ("rootsys", "LeviSubsystem", "weyl_dim", "rootsys.weyl_dim"),
]


def _size(args, kwargs, result):
    return 0 if result is None else len(result)


def _decompose_info(args, kwargs, result):
    return [args[1].name, args[0].grade, _size(args, kwargs, result)]


def _omega_info(args, kwargs, result):
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    return [args[0].name, args[1], method, getattr(result, "method", None)]


# What each span keeps of its call, for counts measured where the work is.
# ``result`` is None when the call raised.
INFO = {
    "rootsys.freudenthal": _size,
    "plethysm.dp": _size,
    "plethysm.decompose": _decompose_info,
    "plethysm.omega": _omega_info,
}

# Per-layer metric -> unit, in report order.
LAYER_METRICS = {
    "rootsys.build_s": "s", "rootsys.build_calls": "count",
    "rootsys.freudenthal_s": "s", "rootsys.freudenthal_calls": "count",
    "rootsys.character_weights": "count",
    "rootsys.weyl_dim_s": "s", "rootsys.weyl_dim_calls": "count",
    "catalog.spec_s": "s", "catalog.spec_calls": "count",
    "partitions.oracle_s": "s", "partitions.oracle_calls": "count",
    "partitions.hooks_s": "s",
    "plethysm.dp_s": "s", "plethysm.dp_states": "count",
    "plethysm.dp_states_max": "count",
    "plethysm.decompose_s": "s", "plethysm.decompose_calls": "count",
    "plethysm.summands": "count", "plethysm.duality_grades": "count",
    "plethysm.fastpath_s": "s", "plethysm.fastpath_calls": "count",
    "plethysm.omega_s": "s", "plethysm.omega_calls": "count",
    "plethysm.omega_repeat_ratio": "ratio",
    "twists.min_twist_s": "s", "twists.h0_s": "s", "twists.audit_s": "s",
    "twists.scan_s": "s",
    "foliations.family_s": "s", "foliations.family_calls": "count",
    "cli.main_s": "s", "cli.verify_s": "s",
    "trace.overhead_s": "s",
}


class ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context,
    so a span opened in a task has the submitting span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """In-memory span log.  A span is (id, parent id, name, start, end,
    info); parent 0 means no enclosing span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("span", default=0)

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        spans = self.spans
        current = self._current
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                current.reset(token)
                extra = info(args, kwargs, result) if info else None
                spans.append((sid, parent, name, start, end, extra))

        return traced

    def dump(self, path, count: int) -> None:
        """Write the first ``count`` spans, one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans[:count]:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, package: str = "cominuscule") -> None:
    """Wrap every binding of the traced functions in the imported package
    modules, and each traced method on its class."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == package or name.startswith(package + ".")}
    wrappers: dict[int, tuple] = {}
    for mod, fn, name in FUNCTIONS:
        original = getattr(modules[f"{package}.{mod}"], fn)
        wrappers[id(original)] = (original, tracer.wrap(name, original))
    cli = modules[f"{package}.cli"]
    wrappers[id(cli.ThreadPoolExecutor)] = (cli.ThreadPoolExecutor, ContextPool)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for mod, cls, meth, name in METHODS:
        klass = getattr(modules[f"{package}.{mod}"], cls)
        setattr(klass, meth, tracer.wrap(name, vars(klass)[meth]))


def load_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def _covered(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover.
    Children in other threads may overlap each other; their union counts."""
    children = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())
                   if min(b, end) > max(a, start)]
        out[sid] = (end - start) - _covered(clipped)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one pass's spans."""
    own = self_times(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    for sid, _, name, *_ in spans:
        busy[name] += own[sid]
        calls[name] += 1
    info = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            info[span[2]].append(span)

    dp_states = [s[5] for s in info["plethysm.dp"]]
    # A grade the engine answered but never decomposed came from duality;
    # answers are cached, so such a grade is never decomposed later either.
    decomposed = {(s[5][0], s[5][1]) for s in info["plethysm.decompose"]}
    engine_answered = set()
    seen_requests = set()
    repeats = 0
    for *_, (space, p, method, used) in sorted(info["plethysm.omega"],
                                               key=lambda s: s[3]):
        repeats += (space, p, method) in seen_requests
        seen_requests.add((space, p, method))
        if used == "WeightDP":
            engine_answered.add((space, p))
    omega_calls = calls["plethysm.omega"]
    return {
        "rootsys.build_s": busy["rootsys.build"],
        "rootsys.build_calls": calls["rootsys.build"],
        "rootsys.freudenthal_s": busy["rootsys.freudenthal"],
        "rootsys.freudenthal_calls": calls["rootsys.freudenthal"],
        "rootsys.character_weights": sum(s[5] for s in info["rootsys.freudenthal"]),
        "rootsys.weyl_dim_s": busy["rootsys.weyl_dim"],
        "rootsys.weyl_dim_calls": calls["rootsys.weyl_dim"],
        "catalog.spec_s": busy["catalog.spec"],
        "catalog.spec_calls": calls["catalog.spec"],
        "partitions.oracle_s": busy["partitions.oracle"],
        "partitions.oracle_calls": calls["partitions.oracle"],
        "partitions.hooks_s": busy["partitions.hooks"],
        "plethysm.dp_s": busy["plethysm.dp"],
        "plethysm.dp_states": sum(dp_states),
        "plethysm.dp_states_max": max(dp_states, default=0),
        "plethysm.decompose_s": busy["plethysm.decompose"],
        "plethysm.decompose_calls": calls["plethysm.decompose"],
        "plethysm.summands": sum(s[5][2] for s in info["plethysm.decompose"]),
        "plethysm.duality_grades": len(engine_answered - decomposed),
        "plethysm.fastpath_s": busy["plethysm.fastpath"],
        "plethysm.fastpath_calls": calls["plethysm.fastpath"],
        "plethysm.omega_s": busy["plethysm.omega"],
        "plethysm.omega_calls": omega_calls,
        "plethysm.omega_repeat_ratio": repeats / omega_calls if omega_calls else 0.0,
        "twists.min_twist_s": busy["twists.min_twist"],
        "twists.h0_s": busy["twists.h0"],
        "twists.audit_s": busy["twists.audit"],
        "twists.scan_s": busy["twists.scan"],
        "foliations.family_s": busy["foliations.family"],
        "foliations.family_calls": calls["foliations.family"],
        "cli.main_s": busy["cli.main"],
        "cli.verify_s": busy["cli.verify"],
    }
