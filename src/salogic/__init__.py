"""Stratified multi-modal logic toolkit.

A library and CLI for logics whose modal operators are indexed by a
partially ordered set of admissibility levels, each level carrying its
own accessibility relation: parse formulas, models and proof scripts,
evaluate the layered satisfaction relation, validate cross-level frame
conditions, check Hilbert-style derivations, and decide validity or
satisfiability over bounded finite models with countermodel extraction.

The package namespace is lazy: `import salogic` loads only this module,
and the first access to a public name (`salogic.decide_valid`) or to a
submodule (`salogic.search`) imports the submodule that defines it.  So
each `sal` command loads only what it runs: every command loads `cli`,
`core` and `errors`; `eval`, `check-model` and `export` add `syntax`
and `semantics`; `prove` adds `syntax` and `proofs`; `valid`, `sat` and
`axioms` add all of these and `search`.
"""

from __future__ import annotations

from importlib import import_module
from pathlib import Path

__version__ = "0.1.0"

# Each submodule with the public names the package re-exports from it.
_EXPORTS = {
    "cli": (),
    "core": (
        "And",
        "Atom",
        "AxiomProfile",
        "Box",
        "CoherenceMode",
        "Diamond",
        "Formula",
        "Implies",
        "IndexPoset",
        "Not",
        "Or",
        "StratifiedModel",
        "atom_names",
        "modal_indices",
        "poset_closure",
        "subformulas",
    ),
    "errors": (
        "BoundsTooLarge",
        "CycleError",
        "ForwardReference",
        "FrameViolation",
        "IllegalTagForProfile",
        "ParseError",
        "SalError",
        "SourceSpan",
        "UndeclaredIdentifier",
    ),
    "proofs": (
        "Axiom",
        "CheckReport",
        "Derivation",
        "LineVerdict",
        "ModusPonens",
        "Necessitation",
        "ProofLine",
        "check_derivation",
        "match_axiom",
    ),
    "search": (
        "Counterexample",
        "MatrixRow",
        "Satisfiable",
        "SearchBounds",
        "UnsatUpTo",
        "ValidUpTo",
        "Verdict",
        "axiom_matrix",
        "decide_sat",
        "decide_valid",
    ),
    "semantics": (
        "EvalTrace",
        "FramePolicy",
        "Violation",
        "evaluate",
        "evaluate_with_trace",
        "is_admissible",
        "render_trace",
        "satisfying_worlds",
        "validate_frame",
    ),
    "syntax": (
        "parse_formula",
        "parse_model",
        "parse_poset",
        "parse_proof",
        "print_formula",
        "print_model",
        "print_proof",
    ),
}

# Name -> the submodule that defines it; a submodule maps to itself.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

EXAMPLE_MODELS = ("sec33", "temporal", "decoherence")

__all__ = [
    *(name for names in _EXPORTS.values() for name in names),
    "EXAMPLE_MODELS",
    "example_model_path",
    "load_example_model",
]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


def example_model_path(name: str) -> Path:
    """Filesystem path of a bundled example model (see EXAMPLE_MODELS)."""
    from importlib.resources import files

    if name not in EXAMPLE_MODELS:
        raise KeyError(f"no bundled model named {name!r}; have {EXAMPLE_MODELS}")
    return Path(str(files("salogic").joinpath("examples", f"{name}.salm")))


def load_example_model(name: str) -> StratifiedModel:
    """Parse and return a bundled example model."""
    from .syntax import parse_model

    return parse_model(example_model_path(name).read_text(encoding="utf-8"))
