"""No function of the package recurses, by calling itself or through a
cycle of calls within its module.  A call `f(...)` stands for the
function f that the caller's scope sees (a nested function, or one at
module level), and a call `self.f(...)` for the method f of the caller's
class."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "salogic"


def recursive_functions(source: str, module: str) -> list[str]:
    """Qualified names of the functions in `source` that lie on a cycle
    of calls, a self-call included, sorted."""
    functions = {}  # qualified name -> (node, enclosing scopes, class)

    def collect(node, prefix, scopes, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}."
                collect(child, name, scopes, name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                functions[name] = (child, scopes, cls)
                collect(child, f"{name}.", [f"{name}.", *scopes], cls)
            else:
                collect(child, prefix, scopes, cls)

    collect(ast.parse(source), f"{module}.", [f"{module}."], None)

    def callees(name):
        node, scopes, cls = functions[name]
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # a nested definition is a function of its own
            stack.extend(ast.iter_child_nodes(child))
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if isinstance(func, ast.Name):
                # The innermost scope that defines the name; a method's own
                # name is not in scope in its body.
                candidates = [f"{scope}{func.id}" for scope in [f"{name}.", *scopes]]
                yield from [target for target in candidates if target in functions][:1]
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and f"{cls}{func.attr}" in functions
            ):
                yield f"{cls}{func.attr}"

    calls = {name: set(callees(name)) for name in functions}
    found = []
    for start in functions:
        reached, stack = set(), list(calls[start])
        while stack and start not in reached:
            name = stack.pop()
            if name not in reached:
                reached.add(name)
                stack.extend(calls[name])
        if start in reached:
            found.append(start)
    return sorted(found)


def test_only_bounded_functions_recurse():
    for path in sorted(PACKAGE.glob("*.py")):
        assert recursive_functions(path.read_text(encoding="utf-8"), path.stem) == [], path.name


def test_a_new_self_call_is_found():
    source = (
        "class C:\n    def f(self):\n        return self.f()\n\n"
        "def g(n):\n    return g(n - 1)\n"
    )
    assert recursive_functions(source, "m") == ["m.C.f", "m.g"]


def test_a_call_cycle_is_found():
    # Two functions that call each other, two methods that do so through
    # `self`, and a caller of each cycle that is on none.
    source = (
        "def even(n):\n    return n == 0 or odd(n - 1)\n\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n\n"
        "def parity(n):\n    return even(n)\n\n"
        "class P:\n"
        "    def a(self):\n        return self.b()\n"
        "    def b(self):\n        return self.a()\n"
        "    def c(self):\n        return self.a() or odd(1)\n"
    )
    assert recursive_functions(source, "m") == ["m.P.a", "m.P.b", "m.even", "m.odd"]
