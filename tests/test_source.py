"""Checks on the library source itself."""

import ast
import importlib
from pathlib import Path

import cominuscule

SRC = Path(cominuscule.__file__).parent


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a correctness check written as
    # one silently disappears; library checks must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _cache_decorator(node):
    """The name of a functools cache decorator, or None."""
    target = node.func if isinstance(node, ast.Call) else node
    name = getattr(target, "id", None) or getattr(target, "attr", None)
    return name if name in ("cache", "lru_cache") else None


def test_every_cache_in_the_library_is_bounded():
    # an unbounded cache grows with every distinct question a long-running
    # process is asked; each cache must name a finite integer maxsize
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
                if isinstance(size, ast.Name):
                    size = getattr(module, size.id, None)
                elif isinstance(size, ast.Constant):
                    size = size.value
                if not (type(size) is int and size > 0):
                    found.append(f"{path.name}:{deco.lineno}")
    assert not found, found
