"""Every cache of the package is bounded: each functools.lru_cache passes a
literal int maxsize, and neither functools.cache nor maxsize=None appears."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "salogic"


def unbounded_caches(source: str, module: str) -> list[str]:
    """`module:line` of each cache in `source` that is not bounded by a
    literal int maxsize: an import or attribute of functools.cache, or an
    lru_cache used bare or called without a literal int maxsize (so with
    maxsize=None, a name or the default)."""

    def names(node, name):
        return (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        )

    def literal_int(node):
        return isinstance(node, ast.Constant) and type(node.value) is int

    tree = ast.parse(source)
    lines, called = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and names(node.func, "lru_cache"):
            called.add(id(node.func))
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if len(sizes) != 1 or not literal_int(sizes[0]):
                lines.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and names(node, "cache"):
            lines.append(node.lineno)
        elif names(node, "lru_cache") and id(node) not in called:
            lines.append(node.lineno)
    return [f"{module}:{line}" for line in sorted(lines)]


def test_every_cache_is_bounded():
    unbounded = [
        at
        for path in sorted(PACKAGE.glob("*.py"))
        for at in unbounded_caches(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert unbounded == []


def test_an_unbounded_cache_is_found():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\ndef a(x): return x\n"
        "@lru_cache\ndef b(x): return x\n"
        "@lru_cache(maxsize=None)\ndef c(x): return x\n"
        "@functools.lru_cache()\ndef d(x): return x\n"
        "SIZE = 8\n@lru_cache(maxsize=SIZE)\ndef e(x): return x\n"
        "@functools.cache\ndef f(x): return x\n"
        "@lru_cache(maxsize=8)\ndef g(x): return x\n"
        "@functools.lru_cache(16)\ndef h(x): return x\n"
    )
    lines = [int(at.split(":")[1]) for at in unbounded_caches(source, "m")]
    # The import of cache, then b, c, d, e and f; a is caught by its import.
    assert lines == [2, 5, 7, 9, 12, 14]
