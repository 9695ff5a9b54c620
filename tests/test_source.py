"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rackrepair"


def test_no_bare_assert_in_src():
    # `python -O` strips assert statements, so every check the package
    # relies on is an explicit raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and not found, found


def _unbounded_caches(source: str) -> list[int]:
    """Lines of `functools.cache`, `from functools import cache` and
    `lru_cache` with maxsize None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            unbounded = node.attr == "cache" and getattr(node.value, "id", None) == "functools"
        elif isinstance(node, ast.ImportFrom):
            unbounded = node.module == "functools" and any(a.name == "cache" for a in node.names)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            maxsize = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            unbounded = name == "lru_cache" and any(
                isinstance(a, ast.Constant) and a.value is None for a in maxsize)
        else:
            continue
        if unbounded:
            found.append(node.lineno)
    return found


def test_unbounded_cache_lint():
    flagged = ["@functools.cache\ndef f(): pass", "@functools.lru_cache(maxsize=None)\ndef f(): pass",
               "@lru_cache(None)\ndef f(): pass", "from functools import cache, reduce"]
    allowed = ["@functools.lru_cache(maxsize=2)\ndef f(): pass", "@functools.lru_cache\ndef f(): pass",
               "class A:\n    @functools.cached_property\n    def f(self): pass", "x = self.cache"]
    assert all(_unbounded_caches(src) for src in flagged)
    assert not any(_unbounded_caches(src) for src in allowed)


def test_no_unbounded_cache_in_src():
    # a cache without a bound keeps everything the process ever built (a
    # field holds its (l - 1) x l reduction table), so every cache is bounded
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _unbounded_caches(path.read_text())]
    assert sorted(SRC.glob("*.py")) and not found, found
