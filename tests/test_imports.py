"""Every module of the package uses each name it imports, or lists it in
its __all__ as a re-export; the package namespace is lazy, each command
loads only the modules it runs, and nothing in the package loads numpy."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "salogic"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but neither reads nor lists in its
    __all__.  Annotations are reads, quoted ones too, so an import under
    `if TYPE_CHECKING:` that only annotations name counts as used."""
    imported: set[str] = set()
    used: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for quoted in ast.walk(annotation) if annotation else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= {n.id for n in ast.walk(ast.parse(quoted.value)) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, re, json as js\n"
        "from typing import TYPE_CHECKING\n"
        "from .syntax import _texts, print_formula, parse_model\n"
        "from .core import Atom, Not\n"
        "if TYPE_CHECKING:\n"
        "    from .proofs import Derivation, ProofLine\n"
        "    from .search import Verdict\n"
        "__all__ = ['parse_model', *('Not',)]\n"
        "def f(d: Derivation, x: 'list[ProofLine]') -> Atom:\n"
        "    return _texts(os.sep)\n"
    )
    # Used: os, TYPE_CHECKING, _texts, Atom and both annotation imports;
    # parse_model and Not are re-exported.
    assert unused_imports(source) == ["Verdict", "js", "print_formula", "re"]


# Run in a fresh interpreter, since the test process may already hold numpy
# and every salogic module.  Runs the commands in order of need and prints,
# as JSON: each command's exit status, and after each step the salogic
# modules loaded and whether numpy was loaded; the last step is the
# library's own scans.
_LOAD_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys

    codes, steps = [], []

    def record():
        modules = sorted(name for name in sys.modules if name.split(".")[0] == "salogic")
        steps.append({"modules": modules, "numpy": "numpy" in sys.modules})

    def run(*commands):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                codes.append(salogic.cli.main(argv))
        record()

    import salogic
    record()
    sec33 = str(salogic.example_model_path("sec33"))
    import salogic.cli
    run(["eval", sec33])
    run(
        ["eval", sec33, "<beta> p", "--world", "w1", "--index", "beta"],
        ["eval", sec33, "[gamma] p", "--world", "w2", "--index", "gamma", "--trace"],
        ["check-model", sec33],
        ["export", sec33],
    )
    run(["prove", sys.argv[1]])
    run(["valid", "[a]p -> p", "--max-worlds", "2"])
    run(["sat", "p & <a>p", "--max-worlds", "2"], ["axioms", "--max-worlds", "2"])

    from salogic.core import AxiomProfile, CoherenceMode
    from salogic.search import SearchBounds, axiom_matrix, decide_valid
    from salogic.syntax import parse_formula

    decide_valid(parse_formula("[a]p -> [b]p"), SearchBounds(max_worlds=3, max_indices=2))
    axiom_matrix(tuple(AxiomProfile), tuple(CoherenceMode), SearchBounds(2, 2))
    record()
    print(json.dumps({"codes": codes, "steps": steps}))
    """
)


def _run_fresh(source, *args):
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


def test_no_command_loads_numpy(tmp_path):
    proof = tmp_path / "proof.sal"
    proof.write_text(
        "indices: a\nstable: a\n1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n",
        encoding="utf-8",
    )
    report = _run_fresh(_LOAD_PROBE, str(proof))
    assert report["codes"] == [2, 0, 1, 0, 0, 0, 1, 0, 0]
    added, seen = [], set()
    for step in report["steps"]:
        added.append(sorted(set(step["modules"]) - seen))
        seen.update(step["modules"])
    assert added == [
        ["salogic"],  # import salogic
        ["salogic.cli", "salogic.core", "salogic.errors"],  # a usage error
        ["salogic.semantics", "salogic.syntax"],  # eval, eval --trace, check-model, export
        ["salogic.proofs"],  # prove
        ["salogic.search"],  # valid
        [],  # sat, axioms
        [],  # the library's scans
    ]
    assert [step["numpy"] for step in report["steps"]] == [False] * 7


# Run in a fresh interpreter, where no submodule is loaded yet.  Prints, as
# JSON, what the package namespace holds before any access, how it answers
# an unknown name, what it exposes after, and the names some submodule
# binds to another object.
_NAMESPACE_PROBE = textwrap.dedent(
    """
    import importlib, json, sys

    import salogic

    report = {"own": sorted(set(vars(salogic)) & set(salogic.__all__))}
    unknown = {"hasattr": hasattr(salogic, "bogus")}
    try:
        salogic.bogus
    except AttributeError as error:
        unknown["attribute"] = [type(error).__name__, str(error)]
    try:
        from salogic import bogus
    except ImportError as error:
        unknown["import"] = type(error).__name__
    unknown["loaded"] = sorted(name for name in sys.modules if name.startswith("salogic."))
    report["unknown"] = unknown
    report["search_before"] = "salogic.search" in sys.modules
    report["decide_valid"] = (
        salogic.search.decide_valid is sys.modules["salogic.search"].decide_valid
    )
    star = {}
    exec("from salogic import *", star)
    del star["__builtins__"]
    report["star"] = sorted(star)
    report["all"] = salogic.__all__
    report["dir"] = dir(salogic)
    modules = [importlib.import_module(f"salogic.{stem}") for stem in sys.argv[1:]]
    report["mismatched"] = sorted(
        name
        for name in set(salogic.__all__) - set(report["own"])
        for holders in [[m for m in modules if name in vars(m)]]
        if not holders or any(vars(m)[name] is not getattr(salogic, name) for m in holders)
    )
    print(json.dumps(report))
    """
)


def test_package_namespace():
    submodules = [path.stem for path in MODULES if path.stem != "__main__"]
    report = _run_fresh(_NAMESPACE_PROBE, *submodules)
    assert report["own"] == ["EXAMPLE_MODELS", "example_model_path"]
    # An unknown name is an AttributeError, or an ImportError from a
    # `from` import, and loads no submodule.
    assert report["unknown"] == {
        "hasattr": False,
        "attribute": ["AttributeError", "module 'salogic' has no attribute 'bogus'"],
        "import": "ImportError",
        "loaded": [],
    }
    assert report["search_before"] is False
    assert report["decide_valid"] is True
    assert len(report["all"]) == len(set(report["all"]))
    assert report["star"] == sorted(report["all"])
    assert report["mismatched"] == []
    assert set(report["all"]) | set(submodules) <= set(report["dir"])


# Run in a fresh interpreter: every public function and class of the
# package, and every function a public class defines, has annotations
# that resolve, and `import salogic` alone loads no submodule.
_HINTS_PROBE = textwrap.dedent(
    """
    import inspect, json, sys, typing

    import salogic

    loaded = sorted(name for name in sys.modules if name.startswith("salogic"))
    targets = {}
    for name in salogic.__all__:
        value = getattr(salogic, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            targets[name] = value
        if inspect.isclass(value):
            for attr, member in vars(value).items():
                if inspect.isfunction(member):
                    targets[f"{name}.{attr}"] = member
    hints, failed = {}, {}
    for name, target in targets.items():
        try:
            found = typing.get_type_hints(target)
        except Exception as error:
            failed[name] = repr(error)
            continue
        hints[name] = {key: getattr(value, "__qualname__", repr(value)) for key, value in found.items()}
    print(json.dumps({"loaded": loaded, "hints": hints, "failed": failed}))
    """
)


def test_example_model_functions_have_resolvable_hints():
    report = _run_fresh(_HINTS_PROBE)
    assert report["loaded"] == ["salogic"]
    assert report["failed"] == {}
    hints = report["hints"]
    assert {"parse_proof", "print_proof", "StratifiedModel", "decide_valid"} <= set(hints)
    assert hints["example_model_path"] == {"name": "str", "return": "Path"}
    assert hints["load_example_model"] == {"name": "str", "return": "StratifiedModel"}
    assert hints["parse_proof"]["return"] == "Derivation"
    assert hints["print_proof"] == {"derivation": "Derivation", "return": "str"}
