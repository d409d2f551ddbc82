"""Time the program's own set-up in a fresh interpreter.

Usage: python perfbench/probe.py WORKLOAD   (PYTHONPATH must hold src)

Prints JSON with `import_s` (import salogic) and `setup_s` (the import
plus one fixed warm-up op of the workload) in CPU seconds, and
`setup_wall_s`, the wall time of the same span.
"""

import json
import sys
import time


def _sweep():
    from salogic import CoherenceMode, FramePolicy, IndexPoset, SearchBounds
    from salogic import decide_valid, parse_formula

    poset = IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("a",))
    decide_valid(
        parse_formula("[a]p -> [b]p"),
        SearchBounds(3, 2, poset=poset),
        FramePolicy(CoherenceMode.SHRINK),
    )


def _matrix():
    from salogic import AxiomProfile, CoherenceMode, SearchBounds, axiom_matrix

    axiom_matrix(tuple(AxiomProfile), (CoherenceMode.SHRINK,), SearchBounds(2, 2), workers=1)


def _models():
    from salogic import evaluate, load_example_model, parse_formula

    evaluate(load_example_model("sec33"), "w1", "beta", parse_formula("<beta> p"))


def _cli():
    import contextlib
    import io

    from salogic import example_model_path
    from salogic.cli import main

    argv = ["eval", str(example_model_path("sec33")), "<beta> p", "--world", "w1", "--index", "beta"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)


WARMUPS = {"sweep": _sweep, "matrix": _matrix, "models": _models, "cli": _cli}


def main() -> int:
    warmup = WARMUPS[sys.argv[1]]
    start, start_wall = time.process_time(), time.perf_counter()
    import salogic  # noqa: F401

    imported = time.process_time()
    warmup()
    done, done_wall = time.process_time(), time.perf_counter()
    print(json.dumps({
        "import_s": imported - start, "setup_s": done - start,
        "setup_wall_s": done_wall - start_wall,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
