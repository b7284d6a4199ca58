"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cominuscule

SRC = Path(cominuscule.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a correctness check written as
    # one silently disappears; library checks must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_bare_assertion_errors_in_library():
    # every self-check raises the one DecompositionError, which the CLI
    # reports with exit 3; a bare AssertionError would be a second type
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            target = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(target, "id", None) == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_every_self_check_names_its_values():
    # a failed self-check is read after the fact: each raise of
    # DecompositionError carries an f-string message with the values it
    # compared, so the report shows what disagreed without a rerun
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(exc, ast.Call)
                    and getattr(exc.func, "id", None) == "DecompositionError"):
                continue
            message = exc.args[0] if exc.args else None
            if not (isinstance(message, ast.JoinedStr) and any(
                    isinstance(v, ast.FormattedValue) for v in message.values)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _cache_decorator(node):
    """The name of a functools cache decorator, or None."""
    target = node.func if isinstance(node, ast.Call) else node
    name = getattr(target, "id", None) or getattr(target, "attr", None)
    return name if name in ("cache", "lru_cache") else None


def test_every_cache_in_the_library_is_bounded():
    # an unbounded cache grows with every distinct question a long-running
    # process is asked; each cache must name a finite integer maxsize, held
    # in a module constant ending in _CACHE_SIZE so every bound is in sight
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "cominuscule" if path.stem == "__init__" else f"cominuscule.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            for deco in getattr(func, "decorator_list", []):
                if not _cache_decorator(deco):
                    continue
                size = None
                if isinstance(deco, ast.Call) and _cache_decorator(deco) == "lru_cache":
                    args = [k.value for k in deco.keywords if k.arg == "maxsize"]
                    size = (args or deco.args or [None])[0]
                if isinstance(size, ast.Name) and size.id.endswith("_CACHE_SIZE"):
                    size = getattr(module, size.id, None)
                if not (type(size) is int and size > 0):
                    found.append(f"{path.name}:{deco.lineno}")
    assert not found, found


def _imports_of(package):
    """Where the library imports a package or one of its modules, at module
    level or inside a function, as ``file:line``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == package or n.startswith(package + ".") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_level_numpy_import():
    # the library is pure Python: no module imports numpy, at module level
    # or inside a function
    found = _imports_of("numpy")
    assert not found, found


NUMPY_FREE_RUN = """
import contextlib, io, sys
import cominuscule, cominuscule.cli
from cominuscule import (cayley, h0_dim, iter_catalog_specs, min_twist,
                         nonvanishing_scan, omega_decompose, parse_space,
                         table_audit)
for spec in iter_catalog_specs(8):
    j = spec.marked_node % spec.ambient.rank  # the node after the marked one
    for p in range(spec.dim + 1):
        summands = omega_decompose(spec, p).summands
        if not p:
            continue
        l = min_twist(spec, p).l
        for s in summands:
            w = s.highest_weight
            for t in range(l - 2, l + 4):
                h0_dim(spec, s, t)
                h0_dim(spec, w, t)
                h0_dim(spec, w[:j] + (-1,) + w[j + 1:], t)
try:
    parse_space("G:2:1000")
except ValueError:
    pass
else:
    raise SystemExit("G:2:1000 was not refused")
table_audit("E6")
table_audit("E7")
nonvanishing_scan(7)
with contextlib.redirect_stdout(io.StringIO()):
    code = cominuscule.cli.main(["verify", "--max-rank", "3"])
assert code == 0, code
spec = cayley()
forced = omega_decompose(spec, 3, method="WeightDP")
assert forced.summands == omega_decompose(spec, 3).summands
assert "numpy" not in sys.modules, "numpy imported"
print("ok")
"""


def test_no_library_module_imports_dataclasses():
    # the record types are named tuples: dataclasses would pull inspect, ast
    # and dis into every import of the library
    found = _imports_of("dataclasses")
    assert not found, found


IMPORT_ONLY_RUN = """
import sys
import cominuscule, cominuscule.cli
print(*sorted({"dataclasses", "inspect", "fractions", "decimal", "csv"}
              & set(sys.modules)))
"""


def test_importing_the_library_loads_no_unneeded_module():
    # importing is most of a short CLI call: fractions loads only where a
    # rational is returned, csv only for --format csv, and dataclasses (with
    # inspect) not at all; -S keeps site hooks from loading any of them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-S", "-c", IMPORT_ONLY_RUN], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def _one_of_each_record():
    spec = cominuscule.grassmannian(2, 4)
    scan = cominuscule.nonvanishing_scan(2)
    audit = cominuscule.table_audit("E6")
    report = cominuscule.omega_decompose(spec, 2)
    return [spec.ambient.lie_type, spec, cominuscule.check_table1(spec),
            cominuscule.min_twist_grass_oracle(2, 4, 2),
            cominuscule.omega_p_weights(spec, 2), report.summands[0], report,
            cominuscule.min_twist(spec, 2), scan.entries[0], scan,
            audit.rows[0], audit, cominuscule.symplectic_family(3, 1)]


def test_every_record_refuses_assignment():
    # the records are immutable, as frozen dataclasses were: a field cannot
    # be rebound and no attribute can be added
    records = _one_of_each_record()
    assert len({type(r) for r in records}) == 13
    for rec in records:
        name = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = 0


def test_numpy_is_imported_only_by_the_forced_engine():
    # the forced engine is now pure Python too: a fresh interpreter answers
    # the auto-route questions, runs verify to rank 3 and a forced-engine
    # call that agrees with Kostant, and never loads numpy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0 and run.stdout.split() == ["ok"], run.stderr


def test_the_benchmark_tracer_finds_what_it_wraps():
    # bench/tracing.py wraps library functions and methods by name and swaps
    # the verify pool; a rename here would break a traced benchmark run
    loader = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracing)
    for mod, fn, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"cominuscule.{mod}"), fn,
                                None)), (mod, fn)
    for mod, cls, meth, _ in tracing.METHODS:
        klass = getattr(importlib.import_module(f"cominuscule.{mod}"), cls)
        assert meth in vars(klass), (cls, meth)
    cli = importlib.import_module("cominuscule.cli")
    assert isinstance(cli.ThreadPoolExecutor, type)
    assert "jobs" in inspect.signature(cli.run_verify).parameters


def _named(node):
    """The name a node refers to: a name, an attribute, an imported name,
    or a string constant (``bench/tracing.py`` wraps methods by name)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_every_library_function_has_a_reference():
    # a function or method defined in the library that nothing in src/,
    # tests/, demos/ or bench/ names is dead code; a self-call does not count
    # and dunder methods are called implicitly
    defs, refs = [], {}
    for folder in (SRC, ROOT / "tests", ROOT / "demos", ROOT / "bench"):
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                name = _named(node)
                if name is not None:
                    refs[name] = refs.get(name, 0) + 1
                if (folder == SRC and isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    own = sum(_named(n) == node.name for n in ast.walk(node))
                    defs.append((node.name, own, f"{path.name}:{node.lineno}"))
    found = [where for name, own, where in defs if refs.get(name, 0) <= own]
    assert not found, found
