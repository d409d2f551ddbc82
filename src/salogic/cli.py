"""Command-line surface tying the toolkit together.

Exit codes are uniform across subcommands: 0 for an affirmative outcome
(true / valid / satisfiable / proof accepted / report emitted), 1 for a
negative one (false / countermodel / unsatisfiable / proof rejected /
violations under --strict), and 2 for usage or input errors.

Countermodels are printed in the normative model file format with the
verdict on a leading comment line, so the whole output can be saved and
re-fed to `sal eval` unchanged.
"""

from __future__ import annotations

import argparse
import enum
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .core import AxiomProfile, CoherenceMode, _pair_order
from .errors import SalError

# The handlers import the layers they call, so a command loads only the
# modules it runs.
if TYPE_CHECKING:
    from .search import SearchBounds
    from .semantics import FramePolicy

__all__ = ["ExitStatus", "build_parser", "console_main", "main"]


class ExitStatus(enum.IntEnum):
    """The three exit codes scripts may branch on."""

    OK = 0
    NEGATIVE = 1
    ERROR = 2


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc})") from None


def _policy(args) -> FramePolicy:
    from .semantics import FramePolicy

    return FramePolicy(coherence=CoherenceMode(args.coherence))


def _bounds(args) -> SearchBounds:
    from .search import SearchBounds
    from .syntax import parse_poset

    poset = parse_poset(_read(args.poset)) if args.poset else None
    return SearchBounds(args.max_worlds, args.max_indices, poset=poset)


def _cmd_check_model(args) -> ExitStatus:
    from .semantics import validate_frame
    from .syntax import parse_model

    model = parse_model(_read(args.file))
    violations = validate_frame(model, _policy(args))
    for violation in violations:
        print(violation.render())
    if not violations:
        print("ok")
        return ExitStatus.OK
    return ExitStatus.NEGATIVE if args.strict else ExitStatus.OK


def _cmd_eval(args) -> ExitStatus:
    from .semantics import evaluate, evaluate_with_trace, render_trace
    from .syntax import parse_formula, parse_model

    model = parse_model(_read(args.file))
    formula = parse_formula(args.formula)
    if args.trace:
        verdict, trace = evaluate_with_trace(model, args.world, args.index, formula)
        text = render_trace(trace)  # may refuse, so before any output
        print("true" if verdict else "false")
        print(text)
    else:
        verdict = evaluate(model, args.world, args.index, formula)
        print("true" if verdict else "false")
    return ExitStatus.OK if verdict else ExitStatus.NEGATIVE


def _print_witness(comment: str, model) -> None:
    from .syntax import print_model

    print(f"# {comment}")
    sys.stdout.write(print_model(model))


def _bounds_text(bounds: SearchBounds) -> str:
    indices = len(bounds.poset.indices) if bounds.poset else bounds.max_indices
    return f"{bounds.max_worlds} world(s), {indices} index/indices"


def _cmd_valid(args) -> ExitStatus:
    from .search import ValidUpTo, decide_valid
    from .syntax import parse_formula

    formula = parse_formula(args.formula)
    verdict = decide_valid(formula, _bounds(args), _policy(args), workers=args.workers)
    if isinstance(verdict, ValidUpTo):
        print(f"valid up to {_bounds_text(verdict.bounds)}")
        return ExitStatus.OK
    _print_witness(
        f"counterexample at world {verdict.world} index {verdict.index}", verdict.model
    )
    return ExitStatus.NEGATIVE


def _cmd_sat(args) -> ExitStatus:
    from .search import UnsatUpTo, decide_sat
    from .syntax import parse_formula

    formula = parse_formula(args.formula)
    verdict = decide_sat(formula, _bounds(args), _policy(args), workers=args.workers)
    if isinstance(verdict, UnsatUpTo):
        print(f"unsatisfiable up to {_bounds_text(verdict.bounds)}")
        return ExitStatus.NEGATIVE
    _print_witness(
        f"satisfiable at world {verdict.world} index {verdict.index}", verdict.model
    )
    return ExitStatus.OK


def _cmd_prove(args) -> ExitStatus:
    from .proofs import check_derivation
    from .syntax import parse_proof

    derivation = parse_proof(
        _read(args.file),
        profile=AxiomProfile(args.profile),
        nec_requires_stable=args.nec_stable_only,
    )
    report = check_derivation(derivation)
    for line in report.lines:
        if line.accepted:
            print(f"line {line.number}: accepted")
        else:
            print(f"line {line.number}: rejected ({line.reason})")
    print("proof ok" if report.valid else "proof rejected")
    return ExitStatus.OK if report.valid else ExitStatus.NEGATIVE


def _poset_label(poset) -> str:
    if len(poset.indices) == 1:
        return "single"
    return "chain" if poset.strict_pairs() else "antichain"


def _cmd_axioms(args) -> ExitStatus:
    from .search import ValidUpTo, axiom_matrix

    profiles = (
        tuple(AxiomProfile)
        if args.profile == "both"
        else (AxiomProfile(args.profile),)
    )
    rows = axiom_matrix(
        profiles,
        (CoherenceMode(args.coherence),),
        _bounds(args),
        workers=args.workers,
    )
    for row in rows:
        pair = row.alpha if row.alpha == row.beta else f"{row.alpha}<={row.beta}"
        if isinstance(row.verdict, ValidUpTo):
            outcome = "VALID"
        else:
            outcome = (
                f"COUNTERMODEL worlds={len(row.verdict.model.worlds)} "
                f"world={row.verdict.world} index={row.verdict.index}"
            )
        print(
            f"{row.schema:<6} {_poset_label(row.poset):<9} {pair:<8} "
            f"{row.mode.value:<6} {outcome}"
        )
    return ExitStatus.OK


def _cmd_export(args) -> ExitStatus:
    from .syntax import parse_model

    model = parse_model(_read(args.file))
    highlight: frozenset[str] = frozenset()
    if args.highlight is not None:
        if args.highlight not in model.valuation:
            raise SalError(f"atom {args.highlight!r} is not declared in the model")
        highlight = model.valuation[args.highlight]
    lines = ["digraph model {"]
    in_order = _pair_order(model.worlds)
    for idx in model.poset.indices:
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="{idx}";')
        for w in model.worlds:
            shape = "doublecircle" if w in highlight else "circle"
            lines.append(f'    "{idx}__{w}" [label="{w}", shape={shape}];')
        for u, v in in_order(model.relations[idx]):
            lines.append(f'    "{idx}__{u}" -> "{idx}__{v}";')
        lines.append("  }")
    lines.append("}")
    print("\n".join(lines))
    return ExitStatus.OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sal",
        description="Stratified multi-modal logic toolkit: evaluate formulas on "
        "layered Kripke models, validate frames, check Hilbert-style proofs, and "
        "decide bounded validity with countermodel extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_coherence(p):
        p.add_argument(
            "--coherence",
            choices=[mode.value for mode in CoherenceMode],
            default="shrink",
            help="cross-level inclusion constraint (default: shrink)",
        )

    def add_search(p):
        p.add_argument("--max-worlds", type=_positive_int, default=3)
        p.add_argument("--max-indices", type=_positive_int, default=2)
        add_coherence(p)
        p.add_argument("--poset", metavar="FILE", help="fixed index poset file")
        p.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            help="accepted for compatibility; does not change the scan (default: 1)",
        )

    p = sub.add_parser("check-model", help="validate a model's frame conditions")
    p.add_argument("file")
    add_coherence(p)
    p.add_argument("--strict", action="store_true", help="violations exit with status 1")
    p.set_defaults(handler=_cmd_check_model)

    p = sub.add_parser("eval", help="evaluate a formula at a world and index")
    p.add_argument("file")
    p.add_argument("formula")
    p.add_argument("--world", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--trace", action="store_true", help="print the evaluation tree")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("valid", help="bounded validity with countermodel extraction")
    p.add_argument("formula")
    add_search(p)
    p.set_defaults(handler=_cmd_valid)

    p = sub.add_parser("sat", help="bounded satisfiability with witness extraction")
    p.add_argument("formula")
    add_search(p)
    p.set_defaults(handler=_cmd_sat)

    p = sub.add_parser("prove", help="check a proof script")
    p.add_argument("file")
    p.add_argument(
        "--profile",
        choices=["section2", "section3"],
        default="section2",
        help="axiom profile (default: section2)",
    )
    p.add_argument(
        "--nec-stable-only",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="restrict necessitation to stable indices (default: on)",
    )
    p.set_defaults(handler=_cmd_prove)

    p = sub.add_parser("axioms", help="empirical axiom-validity matrix")
    p.add_argument(
        "--profile",
        choices=["section2", "section3", "both"],
        default="both",
        help="whose schemas to tabulate (default: both)",
    )
    add_search(p)
    p.set_defaults(handler=_cmd_axioms)

    p = sub.add_parser("export", help="export a model as a layered graph")
    p.add_argument("file")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--highlight", metavar="ATOM", help="double-circle this atom's worlds")
    p.set_defaults(handler=_cmd_export)

    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the exit status instead of raising SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code or 0
        return ExitStatus.OK if code == 0 else ExitStatus.ERROR
    try:
        return int(args.handler(args))
    except (SalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitStatus.ERROR


def console_main() -> None:
    raise SystemExit(main())
