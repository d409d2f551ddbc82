"""Concrete syntax: the formula grammar, the model file format, the proof
script format, and canonical printers for each.

Formula grammar (ASCII), loosest binding first::

    formula  ::= or_expr | or_expr '->' formula           (right associative)
    or_expr  ::= and_expr ('|' and_expr)*                  (left associative)
    and_expr ::= prefix ('&' prefix)*                      (left associative)
    prefix   ::= '~' prefix | '[' IDENT ']' prefix
               | '<' IDENT '>' prefix | atom
    atom     ::= IDENT | '(' formula ')'

`[a]F` is necessity at level a, `<a>F` possibility at level a.
Identifiers match `[A-Za-z_][A-Za-z0-9_]*`; whitespace is insignificant.

Model files are line oriented and `#` starts a comment::

    indices: a b          # required, non-empty
    order: a<=b           # order generators, closure is computed
    stable: a             # optional, default empty
    worlds: w0 w1         # required, non-empty
    worldorder: w0<=w1    # optional
    rel a: w0->w0 w0->w1  # omitted index means empty relation
    val p: w1             # omitted atom means the atom is undeclared

Sections may appear in any order.  Repeated `rel`/`val` lines for the
same index/atom union their contents; repeating a declaration inside
`indices`/`worlds` is an error.

Proof scripts hold numbered lines `N. FORMULA ; JUSTIFICATION`, numbered
1..n in order.  The justification is one of the axiom tags `A1 K A2 A3
A4 DDOWN`, `MP i j` (line j must be line i -> current), or `NEC a i`
(current must be [a] applied to line i).  An optional header of
`indices:`, `order:` and `stable:` lines fixes the index poset; without
one, the indices appearing in the script form an antichain with no
stable levels.

Printers emit LF line endings and single-space token separation, and
parsing a printed artifact reproduces it exactly (models: up to closure
of the order sections, which the parser computes anyway).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn

from . import example_model_path
from .core import (
    And,
    Atom,
    AxiomProfile,
    Box,
    Diamond,
    Formula,
    Implies,
    IndexPoset,
    Not,
    Or,
    Program,
    StratifiedModel,
    _IDENT,
    _pair_order,
    is_identifier,
)
from .errors import ParseError, SourceSpan, UndeclaredIdentifier

# The proof-script functions import the proof records when called, so
# parsing formulas and models does not load the proof checker.
if TYPE_CHECKING:
    from .proofs import Derivation

__all__ = [
    "load_example_model",
    "parse_formula",
    "parse_model",
    "parse_poset",
    "parse_proof",
    "print_formula",
    "print_model",
    "print_proof",
]


def _byte_span(text: str, start: int, end: int) -> SourceSpan:
    """Convert character offsets into the byte offsets SourceSpan carries."""
    return SourceSpan(
        len(text[:start].encode("utf-8")), len(text[:end].encode("utf-8"))
    )


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'eof', or the operator text itself
    text: str
    start: int  # character offsets; converted to bytes only for diagnostics
    end: int


# One token after any whitespace (`\s` is exactly str.isspace): an
# identifier, an operator, or the one character that starts neither.
_FORMULA_TOKEN = re.compile(
    rf"\s*(?:(?P<ident>{_IDENT.pattern})|(?P<op>->|[~&|()\[\]<>])|(?P<stray>-)|(?P<bad>\S))"
)


def _tokenize_formula(text: str, start: int, end: int) -> list[_Token]:
    """Tokens of text[start:end], with offsets into the whole of `text`."""
    tokens: list[_Token] = []
    for m in _FORMULA_TOKEN.finditer(text, start, end):
        kind, i, j = m.lastgroup, m.start(m.lastgroup), m.end()
        if kind == "stray":
            raise ParseError("stray '-'", _byte_span(text, i, j), {"->"})
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", _byte_span(text, i, j))
        tokens.append(_Token("ident" if kind == "ident" else m[kind], m[kind], i, j))
    tokens.append(_Token("eof", "", end, end))
    return tokens


_ATOM_STARTERS = frozenset({"identifier", "'('", "'~'", "'['", "'<'"})

# Recursion guard: parsing is promised to be total, so pathological nesting
# must surface as a diagnostic rather than a RecursionError.  Parenthesis
# nesting costs several interpreter frames per level; 128 stays well inside
# the default recursion limit while being far beyond hand-written formulas.
_MAX_NESTING = 128


class _FormulaParser:
    def __init__(self, text: str, tokens: list[_Token]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.indices: list[str] = []  # every index read, in text order

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected) -> NoReturn:
        tok = self.peek()
        raise ParseError(
            message, _byte_span(self.text, tok.start, tok.end), expected
        )

    def expect(self, kind: str, expected_name: str) -> _Token:
        if self.peek().kind != kind:
            self.fail(f"expected {expected_name}", {expected_name})
        return self.advance()

    def implication(self) -> Formula:
        parts = [self.disjunction()]
        while self.peek().kind == "->":
            self.advance()
            self.nest()
            parts.append(self.disjunction())
        self.depth -= len(parts) - 1
        out = parts.pop()
        for left in reversed(parts):
            out = Implies(left, out)
        return out

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek().kind == "|":
            self.advance()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.prefix()
        while self.peek().kind == "&":
            self.advance()
            out = And(out, self.prefix())
        return out

    def nest(self) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail(f"formula nesting deeper than {_MAX_NESTING}", set())

    def prefix(self) -> Formula:
        # A run of prefix operators, innermost last; each nests one level.
        wraps = []
        while self.peek().kind in ("~", "[", "<"):
            self.nest()
            kind = self.advance().kind
            if kind == "~":
                wraps.append((Not,))
                continue
            idx = self.expect("ident", "identifier").text
            self.indices.append(idx)
            node, close = (Box, "]") if kind == "[" else (Diamond, ">")
            self.expect(close, f"'{close}'")
            wraps.append((node, idx))
        out = self.atom()
        self.depth -= len(wraps)
        for node, *label in reversed(wraps):
            out = node(*label, out)
        return out

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "(":
            self.nest()
            self.advance()
            out = self.implication()
            self.expect(")", "')'")
            self.depth -= 1
            return out
        self.fail("expected a formula", _ATOM_STARTERS)


def _parse_formula(text: str, start: int, end: int) -> tuple[Formula, list[str]]:
    """The formula in text[start:end] and the indices it reads, in text
    order; error spans are byte offsets into the whole of `text`."""
    parser = _FormulaParser(text, _tokenize_formula(text, start, end))
    out = parser.implication()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after formula", {"end of input"})
    return out, parser.indices


def parse_formula(text: str) -> Formula:
    """Parse the formula grammar (see module docstring).

    Raises ParseError carrying a byte span and the expected-token set on
    malformed input; never raises anything else on string input.
    """
    return _parse_formula(text, 0, len(text))[0]


_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_PREFIX, _PREC_ATOM = range(5)

# Node type -> (format of the label and the operand texts, the node's
# precedence level, the least level each operand may have unparenthesized).
_LAYOUT = {
    Atom: ("{0}", _PREC_ATOM, ()),
    Not: ("~{1}", _PREC_PREFIX, (_PREC_PREFIX,)),
    Box: ("[{0}] {1}", _PREC_PREFIX, (_PREC_PREFIX,)),
    Diamond: ("<{0}> {1}", _PREC_PREFIX, (_PREC_PREFIX,)),
    And: ("{1} & {2}", _PREC_AND, (_PREC_AND, _PREC_PREFIX)),
    Or: ("{1} | {2}", _PREC_OR, (_PREC_OR, _PREC_AND)),
    Implies: ("{1} -> {2}", _PREC_IMPLIES, (_PREC_OR, _PREC_IMPLIES)),
}


def _texts(*formulas: Formula) -> list[str]:
    """The canonical text of each of `formulas`, from one compile."""
    program = Program(*formulas)
    texts: list[str] = []
    levels: list[int] = []
    for kind, label, *args in program.steps:
        layout, level, minimums = _LAYOUT[kind]
        operands = [
            texts[a] if levels[a] >= least else "(" + texts[a] + ")"
            for a, least in zip(args, minimums)
        ]
        texts.append(layout.format(label, *operands))
        levels.append(level)
    return [texts[root] for root in program.roots]


def print_formula(formula: Formula) -> str:
    """Canonical text with minimal parenthesization.

    parse_formula(print_formula(f)) == f for every AST f.
    """
    return _texts(formula)[0]


# ---------------------------------------------------------------------------
# Model files

_MODEL_SECTIONS = ("indices", "order", "stable", "worlds", "worldorder")
_POSET_SECTIONS = ("indices", "order", "stable")


def _logical_lines(text: str):
    """Yield (content, char_offset) per line, with comments stripped."""
    offset = 0
    for raw in text.split("\n"):
        yield raw.split("#", 1)[0], offset
        offset += len(raw) + 1


def _words_with_offsets(content: str, base: int):
    return [(m.group(), base + m.start(), base + m.end()) for m in re.finditer(r"\S+", content)]


def _idents(text, words, role):
    names = []
    for word, start, end in words:
        if not is_identifier(word):
            raise ParseError(
                f"{role} {word!r} is not an identifier",
                _byte_span(text, start, end),
                {"identifier"},
            )
        names.append(word)
    return names


def _pairs(text, words, separator, role):
    pairs = []
    for word, start, end in words:
        left, sep, right = word.partition(separator)
        if not sep or not is_identifier(left) or not is_identifier(right):
            raise ParseError(
                f"malformed {role} pair {word!r}",
                _byte_span(text, start, end),
                {f"identifier{separator}identifier"},
            )
        pairs.append((left, right))
    return pairs


class _Sections:
    """Accumulator for the line-oriented model/poset/proof-header format."""

    def __init__(self):
        self.indices: list[str] = []
        self.order: list[tuple[str, str]] = []
        self.stable: list[str] = []
        self.worlds: list[str] = []
        self.worldorder: list[tuple[str, str]] = []
        self.worldorder_declared = False
        self.rel: dict[str, set[tuple[str, str]]] = {}
        self.val: dict[str, set[str]] = {}

    @staticmethod
    def _declare(target: list[str], names: list[str], span, role: str):
        for name in names:
            if name in target:
                raise ParseError(f"duplicate {role} {name!r}", span, set())
            target.append(name)

    def feed(self, text: str, content: str, offset: int, allowed: tuple[str, ...]) -> None:
        """Consume one line; a blank line adds nothing."""
        if not content.strip():
            return
        head, sep, rest = content.partition(":")
        stripped = head.strip()
        lead = len(content) - len(content.lstrip())
        span = _byte_span(
            text,
            offset + lead,
            offset + max(len(head.rstrip()), lead + 1),
        )
        if not sep:
            raise ParseError("expected a 'section:' line", span, {"':'"})
        words = _words_with_offsets(rest, offset + len(head) + 1)
        parts = stripped.split()
        keyword = parts[0] if parts else ""
        if keyword not in allowed or len(parts) != (2 if keyword in ("rel", "val") else 1):
            raise ParseError(f"unknown section {stripped!r}", span, set(allowed))
        if keyword == "indices":
            self._declare(self.indices, _idents(text, words, "index"), span, "index")
        elif keyword == "worlds":
            self._declare(self.worlds, _idents(text, words, "world"), span, "world")
        elif keyword == "order":
            self.order.extend(_pairs(text, words, "<=", "order"))
        elif keyword == "worldorder":
            self.worldorder_declared = True
            self.worldorder.extend(_pairs(text, words, "<=", "world order"))
        elif keyword == "stable":
            for name in _idents(text, words, "index"):
                if name not in self.stable:
                    self.stable.append(name)
        elif keyword == "rel":
            name = parts[1]
            if not is_identifier(name):
                raise ParseError(f"bad index name {name!r}", span, {"identifier"})
            self.rel.setdefault(name, set()).update(_pairs(text, words, "->", "relation"))
        elif keyword == "val":
            name = parts[1]
            if not is_identifier(name):
                raise ParseError(f"bad atom name {name!r}", span, {"identifier"})
            self.val.setdefault(name, set()).update(_idents(text, words, "world"))

    def build_poset(self, text: str) -> IndexPoset:
        if not self.indices:
            raise ParseError(
                "no indices declared", _byte_span(text, 0, len(text)), {"indices:"}
            )
        return IndexPoset.from_order(self.indices, self.order, self.stable)

    def build_model(self, text: str) -> StratifiedModel:
        poset = self.build_poset(text)
        if not self.worlds:
            raise ParseError(
                "no worlds declared", _byte_span(text, 0, len(text)), {"worlds:"}
            )
        return StratifiedModel(
            poset=poset,
            worlds=tuple(self.worlds),
            relations=self.rel,
            valuation=self.val,
            world_order=self.worldorder if self.worldorder_declared else None,
        )


def parse_model(text: str) -> StratifiedModel:
    """Parse the model file format (see module docstring).

    Raises ParseError on malformed lines, UndeclaredIdentifier when a
    section refers to an unknown world or index, and CycleError when an
    order section is not antisymmetric.
    """
    sections = _Sections()
    for content, offset in _logical_lines(text):
        sections.feed(text, content, offset, _MODEL_SECTIONS + ("rel", "val"))
    return sections.build_model(text)


def load_example_model(name: str) -> StratifiedModel:
    """Parse and return a bundled example model (see
    salogic.EXAMPLE_MODELS)."""
    return parse_model(example_model_path(name).read_text(encoding="utf-8"))


def parse_poset(text: str) -> IndexPoset:
    """Parse a poset file: the model format restricted to the `indices:`,
    `order:` and `stable:` sections."""
    sections = _Sections()
    for content, offset in _logical_lines(text):
        sections.feed(text, content, offset, _POSET_SECTIONS)
    return sections.build_poset(text)


def _poset_lines(poset: IndexPoset) -> list[str]:
    lines = ["indices: " + " ".join(poset.indices)]
    strict = poset.strict_pairs()
    if strict:
        lines.append("order: " + " ".join(f"{a}<={b}" for a, b in strict))
    if poset.stable:
        members = [i for i in poset.indices if i in poset.stable]
        lines.append("stable: " + " ".join(members))
    return lines


def print_model(model: StratifiedModel) -> str:
    """Canonical model text; parse_model(print_model(m)) == m.

    Order sections are emitted as the non-reflexive pairs of the stored
    closure, relations in index declaration order, valuation entries
    sorted by atom name (empty ones as bare `val atom:` lines so the
    atom stays declared).
    """
    lines = _poset_lines(model.poset)
    lines.append("worlds: " + " ".join(model.worlds))
    in_order = _pair_order(model.worlds)
    if model.world_order is not None:
        strict = in_order((u, v) for u, v in model.world_order if u != v)
        text = " ".join(f"{u}<={v}" for u, v in strict)
        lines.append("worldorder:" + (" " + text if text else ""))
    for idx in model.poset.indices:
        pairs = in_order(model.relations[idx])
        if pairs:
            lines.append(f"rel {idx}: " + " ".join(f"{u}->{v}" for u, v in pairs))
    for atom in sorted(model.valuation):
        members = [w for w in model.worlds if w in model.valuation[atom]]
        lines.append(f"val {atom}:" + (" " + " ".join(members) if members else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Proof scripts

_PROOF_LINE = re.compile(r"\s*(\d+)\s*\.")


def _parse_justification(text, words, content, offset):
    """The justification in `words`, read from the proof line `content`
    at `offset`; a missing one is reported at the line's stripped span."""
    from .proofs import SCHEMA_TAGS, Axiom, ModusPonens, Necessitation

    if not words:
        lead = len(content) - len(content.lstrip())
        raise ParseError(
            "missing justification",
            _byte_span(text, offset + lead, offset + len(content.rstrip())),
            set(SCHEMA_TAGS) | {"MP", "NEC"},
        )
    word, start, end = words[0]
    span = _byte_span(text, start, words[-1][2])
    if word in SCHEMA_TAGS:
        if len(words) != 1:
            raise ParseError(f"{word} takes no arguments", span, set())
        return Axiom(word)
    if word == "MP":
        if len(words) != 3 or not all(w[0].isdecimal() for w in words[1:]):
            raise ParseError("MP needs two line numbers", span, {"MP i j"})
        return ModusPonens(int(words[1][0]), int(words[2][0]))
    if word == "NEC":
        if len(words) != 3 or not is_identifier(words[1][0]) or not words[2][0].isdecimal():
            raise ParseError("NEC needs an index and a line number", span, {"NEC a i"})
        return Necessitation(words[1][0], int(words[2][0]))
    raise ParseError(
        f"unknown justification {word!r}", span, set(SCHEMA_TAGS) | {"MP", "NEC"}
    )


def parse_proof(
    text: str,
    *,
    profile: AxiomProfile = AxiomProfile.SECTION2,
    nec_requires_stable: bool = True,
) -> Derivation:
    """Parse a proof script (see module docstring).

    `profile` and `nec_requires_stable` are carried onto the Derivation
    unchanged; all rule checking happens in proofs.check_derivation.
    Lines must be numbered 1..n in order.  Citing the current or a later
    line raises ForwardReference.
    """
    from .proofs import Derivation, Necessitation, ProofLine

    sections = _Sections()
    lines: list[ProofLine] = []
    first_use: dict[str, int] = {}  # index -> number of the line naming it first
    for content, offset in _logical_lines(text):
        if not content.strip():
            continue
        head = _PROOF_LINE.match(content)
        if head is None:
            sections.feed(text, content, offset, _POSET_SECTIONS)
            continue
        number = int(head.group(1))
        if number != len(lines) + 1:
            raise ParseError(
                f"expected line number {len(lines) + 1}",
                _byte_span(text, offset + head.start(1), offset + head.end(1)),
                {str(len(lines) + 1)},
            )
        start = offset + head.end()
        formula_text, sep, just_text = content[head.end() :].partition(";")
        if not sep:
            raise ParseError(
                "missing ';' before the justification",
                _byte_span(text, start, offset + len(content)),
                {"';'"},
            )
        formula, used = _parse_formula(text, start, start + len(formula_text))
        just_words = _words_with_offsets(just_text, start + len(formula_text) + 1)
        justification = _parse_justification(text, just_words, content, offset)
        if isinstance(justification, Necessitation):
            used.append(justification.index)
        for name in used:
            first_use.setdefault(name, number)
        lines.append(ProofLine(number, formula, justification))

    for section in ("order", "stable"):
        if getattr(sections, section) and not sections.indices:
            raise ParseError(
                f"{section}: requires an indices: header",
                _byte_span(text, 0, len(text)),
                {"indices:"},
            )
    # Without a header, the indices in order of first use form an antichain
    # with no stable levels.
    poset = (
        sections.build_poset(text)
        if sections.indices
        else IndexPoset.from_order(list(first_use) or ["a"])
    )
    for name, number in first_use.items():
        if name not in poset.indices:
            raise UndeclaredIdentifier(f"line {number} uses undeclared index {name!r}")
    return Derivation(
        lines=tuple(lines),
        poset=poset,
        profile=profile,
        nec_requires_stable=nec_requires_stable,
    )


def _print_justification(justification) -> str:
    from .proofs import Axiom, ModusPonens, Necessitation

    if isinstance(justification, Axiom):
        return justification.tag
    if isinstance(justification, ModusPonens):
        return f"MP {justification.premise} {justification.implication}"
    if isinstance(justification, Necessitation):
        return f"NEC {justification.index} {justification.premise}"
    raise TypeError(f"not a justification: {justification!r}")


def print_proof(derivation: Derivation) -> str:
    """Canonical proof script: poset header, then one numbered line per step."""
    lines = _poset_lines(derivation.poset)
    for line in derivation.lines:
        lines.append(
            f"{line.number}. {print_formula(line.formula)} ; "
            f"{_print_justification(line.justification)}"
        )
    return "\n".join(lines) + "\n"
