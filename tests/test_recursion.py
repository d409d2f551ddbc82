"""No function of the package calls itself.  A function listed in ALLOWED
would be exempt, given a bound that keeps its depth below the
interpreter's recursion limit; none is."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "salogic"

ALLOWED: set[str] = set()


def self_calls(source: str, module: str) -> list[str]:
    """Qualified names of the functions in `source` that call themselves
    by name, or as a method through `self`."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if (isinstance(func, ast.Name) and func.id == name) or (
                        isinstance(func, ast.Attribute)
                        and func.attr == name
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ):
                        found.append(f"{prefix}{name}")
                        break
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), f"{module}.")
    return found


def test_only_bounded_functions_recurse():
    recursive = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in self_calls(path.read_text(encoding="utf-8"), path.stem)
    }
    assert recursive - ALLOWED == set()
    # The allowlist names only functions that still recurse.
    assert ALLOWED - recursive == set()


def test_a_new_self_call_is_found():
    source = (
        "class C:\n    def f(self):\n        return self.f()\n\n"
        "def g(n):\n    return g(n - 1)\n"
    )
    assert self_calls(source, "m") == ["m.C.f", "m.g"]
