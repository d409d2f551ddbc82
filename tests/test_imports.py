"""Every module of the package uses each name it imports, or lists it in
its __all__ as a re-export; nothing in the package loads numpy."""

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
            exported |= set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Run in a fresh interpreter, since the test process may already hold numpy.
# Prints, as JSON: each command's exit status and whether numpy was loaded
# after the imports, after the commands and after the library's scans.
_NUMPY_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys

    import salogic, salogic.cli
    from salogic import example_model_path
    from salogic.core import AxiomProfile, CoherenceMode
    from salogic.search import SearchBounds, axiom_matrix, decide_valid
    from salogic.syntax import parse_formula

    loaded = ["numpy" in sys.modules]
    sec33 = str(example_model_path("sec33"))
    commands = [
        ["eval", sec33, "<beta> p", "--world", "w1", "--index", "beta"],
        ["eval", sec33, "[gamma] p", "--world", "w2", "--index", "gamma", "--trace"],
        ["check-model", sec33],
        ["export", sec33],
        ["prove", sys.argv[1]],
        ["eval", sec33],
        ["valid", "[a]p -> p", "--max-worlds", "2"],
        ["sat", "p & <a>p", "--max-worlds", "2"],
        ["axioms", "--max-worlds", "2"],
    ]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            codes.append(salogic.cli.main(argv))
    loaded.append("numpy" in sys.modules)
    decide_valid(parse_formula("[a]p -> [b]p"), SearchBounds(max_worlds=3, max_indices=2))
    axiom_matrix(tuple(AxiomProfile), tuple(CoherenceMode), SearchBounds(2, 2))
    loaded.append("numpy" in sys.modules)
    print(json.dumps({"codes": codes, "loaded": loaded}))
    """
)


def test_no_command_loads_numpy(tmp_path):
    proof = tmp_path / "proof.sal"
    proof.write_text(
        "indices: a\nstable: a\n1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n",
        encoding="utf-8",
    )
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(proof)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 1, 0, 0, 0, 2, 1, 0, 0]
    assert report["loaded"] == [False, False, False]
