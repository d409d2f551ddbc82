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
A formula is parsed without recursion: its text is cut into tokens first,
then one loop reads them by operator precedence over an explicit stack
(Dijkstra's shunting-yard), which rejects nesting of parentheses, prefix
operators and `->` deeper than 128 levels.

Model files are line oriented and `#` starts a comment::

    indices: a b          # required, non-empty
    order: a<=b           # order generators, closure is computed
    stable: a             # optional, default empty
    worlds: w0 w1         # required, non-empty
    worldorder: w0<=w1    # optional
    rel a: w0->w0 w0->w1  # omitted index means empty relation
    val p: w1             # omitted atom means the atom is undeclared

Sections may appear in any order.  Repeated `rel`/`val` lines for the
same index/atom union their contents.  A name repeated in `indices` or
`worlds`, on one line or across lines, is an error that names the first
repeat and spans the head of the line it stands on; a name repeated in
`stable` counts once.

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

# The proof-script functions import the proof records when called, so
# parsing formulas and models does not load the proof checker; their
# annotations name the records through the lazy package namespace.
import salogic

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
    """Convert character offsets into the byte offsets SourceSpan carries.

    Bytes are counted in UTF-8, where a lone surrogate (such as the
    '\\udcff' an undecodable byte of argv becomes) counts the 3 bytes of its
    surrogatepass encoding, so every string has a span."""
    return SourceSpan(
        len(text[:start].encode("utf-8", "surrogatepass")),
        len(text[:end].encode("utf-8", "surrogatepass")),
    )


# ---------------------------------------------------------------------------
# Formulas


# One token after any whitespace (`\s` is exactly str.isspace): an
# identifier, an operator, or the one character that starts neither.
_FORMULA_TOKEN = re.compile(
    rf"\s*(?:(?P<ident>{_IDENT.pattern})|(?P<op>->|[~&|()\[\]<>])|(?P<stray>-)|(?P<bad>\S))"
)

_ATOM_STARTERS = frozenset({"identifier", "'('", "'~'", "'['", "'<'"})

# Nesting bound: parsing is promised to be total, and although the parser
# keeps no interpreter frame per level, the formula nodes' dataclass `==`,
# `hash` and `repr` still recurse on the trees it builds.  Open
# parentheses, prefix operators and pending `->` together may nest 128
# deep: far beyond hand-written formulas, and well inside the default
# recursion limit.
_MAX_NESTING = 128

# Operator -> (how tightly it binds, node).  A binary operator that
# arrives after an operand folds every pending operator that binds at least
# as tightly into that operand, but `->` is right associative and folds
# only the tighter ones.  Any other token after an operand folds all of
# them, back to the innermost '(', which binds loosest: only its ')'
# takes it off the stack.
_OPERATORS = {
    "(": (0, None),
    "->": (1, Implies),
    "|": (2, Or),
    "&": (3, And),
    "~": (4, Not),
    "[": (4, Box),
    "<": (4, Diamond),
}


def _parse_formula(text: str, start: int, end: int) -> tuple[Formula, list[str]]:
    """The formula in text[start:end] and the indices it reads, in text
    order; error spans are byte offsets into the whole of `text`.

    All tokens are read first, so a bad character is reported wherever it
    stands.  One loop then parses them by operator precedence over an
    explicit stack of (binding, node, leading node arguments): open
    parentheses, prefix operators with their labels, and binary operators
    with their left operands."""
    tokens = []  # (kind, start, end); kind is 'ident', 'eof' or the operator
    for m in _FORMULA_TOKEN.finditer(text, start, end):
        group = m.lastgroup
        i, j = m.start(group), m.end()
        if group == "stray":
            raise ParseError("stray '-'", _byte_span(text, i, j), {"->"})
        if group == "bad":
            raise ParseError(f"unexpected character {m[group]!r}", _byte_span(text, i, j))
        tokens.append((m["op"] or "ident", i, j))
    tokens.append(("eof", end, end))

    def error(message, token, expected):
        return ParseError(message, _byte_span(text, token[1], token[2]), expected)

    nesting = f"formula nesting deeper than {_MAX_NESTING}"
    stack: list = []
    indices: list[str] = []
    out = None  # the operand just read, or None where one is expected
    depth = pos = 0  # depth: the '(', prefix operators and '->' on the stack
    while True:
        kind, i, j = token = tokens[pos]
        pos += 1
        if out is None:
            if kind == "ident":
                out = Atom(text[i:j])
                continue
            if kind not in ("(", "~", "[", "<"):
                raise error("expected a formula", token, _ATOM_STARTERS)
            depth += 1
            if depth > _MAX_NESTING:
                raise error(nesting, token, set())
            args = ()
            if kind in ("[", "<"):
                close = "]" if kind == "[" else ">"
                if tokens[pos][0] != "ident":
                    raise error("expected identifier", tokens[pos], {"identifier"})
                if tokens[pos + 1][0] != close:
                    raise error(f"expected '{close}'", tokens[pos + 1], {f"'{close}'"})
                args = (text[tokens[pos][1] : tokens[pos][2]],)
                indices += args
                pos += 2
            stack.append((*_OPERATORS[kind], args))
            continue
        infix = kind in ("->", "|", "&")
        level = _OPERATORS[kind][0] + (kind == "->") if infix else 1
        while stack and stack[-1][0] >= level:
            _, node, args = stack.pop()
            out = node(*args, out)
            if node is not And and node is not Or:
                depth -= 1
        if infix:
            if kind == "->":
                depth += 1
                if depth > _MAX_NESTING:
                    raise error(nesting, tokens[pos], set())
            stack.append((*_OPERATORS[kind], (out,)))
            out = None
        elif not stack:
            if kind != "eof":
                raise error("trailing input after formula", token, {"end of input"})
            return out, indices
        elif kind != ")":
            raise error("expected ')'", token, {"')'"})
        else:
            stack.pop()
            depth -= 1


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

_POSET_SECTIONS = ("indices", "order", "stable")
_MODEL_SECTIONS = _POSET_SECTIONS + ("worlds", "worldorder", "rel", "val")


def _logical_lines(text: str):
    """Yield (content, char_offset) per line, with comments stripped."""
    offset = 0
    for raw in text.split("\n"):
        yield raw.split("#", 1)[0], offset
        offset += len(raw) + 1


def _words_with_offsets(content: str, base: int):
    return [(m.group(), base + m.start(), base + m.end()) for m in re.finditer(r"\S+", content)]


# One whole word of a section line, with whitespace or an end of the line
# on both sides (as str.split() cuts words): a name, or a pair of names
# that findall returns as a tuple.  The patterns compile on first use, in
# the re module's cache, so importing the module compiles none of them.
_NAME = rf"(?<!\S){_IDENT.pattern}(?!\S)"
_ORDER_PAIR = rf"(?<!\S)({_IDENT.pattern})<=({_IDENT.pattern})(?!\S)"
_RELATION_PAIR = rf"(?<!\S)({_IDENT.pattern})->({_IDENT.pattern})(?!\S)"

# By section keyword: the pattern every word of the line must match, the
# error for the first word that does not and its expected set, the role of
# the name the line's head carries after the keyword, and the role of a
# repeated word that is an error.  A None role means the head is the keyword
# alone, or repeated words are kept.
_SECTION_WORDS = {
    "indices": (_NAME, "index {!r} is not an identifier", "identifier", None, "index"),
    "stable": (_NAME, "index {!r} is not an identifier", "identifier", None, None),
    "worlds": (_NAME, "world {!r} is not an identifier", "identifier", None, "world"),
    "val": (_NAME, "world {!r} is not an identifier", "identifier", "atom", None),
    "order": (_ORDER_PAIR, "malformed order pair {!r}", "identifier<=identifier", None, None),
    "worldorder": (
        _ORDER_PAIR, "malformed world order pair {!r}", "identifier<=identifier", None, None
    ),
    "rel": (
        _RELATION_PAIR, "malformed relation pair {!r}", "identifier->identifier", "index", None
    ),
}


def _feed(words: dict, text: str, content: str, offset: int, allowed: tuple[str, ...]) -> None:
    """Read one line of the model/poset/proof-header format into `words`; a
    blank line adds nothing.

    `words` maps a section line's head, split into its parts (`("indices",)`,
    `("rel", "a")`), to the words read under it in line order.  A line
    declares its section even with no words, so a bare `val q:` declares
    `q` and an empty `worldorder:` line gives an empty world order.

    The line's words are checked by one findall, whose match count equals
    the word count exactly when every word matches.  A section whose
    repeats are errors checks them by one set per line.  The words'
    offsets, and the first repeat, are looked for only on the error path."""
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
    parts = tuple(stripped.split())
    keyword = parts[0] if parts else ""
    if keyword not in allowed or len(parts) != 1 + bool(_SECTION_WORDS[keyword][3]):
        raise ParseError(f"unknown section {stripped!r}", span, set(allowed))
    pattern, message, expected, head_role, repeat_role = _SECTION_WORDS[keyword]
    if head_role and not is_identifier(parts[1]):
        raise ParseError(f"bad {head_role} name {parts[1]!r}", span, {"identifier"})
    found = re.findall(pattern, rest)
    if len(found) != len(rest.split()):
        word, start, end = next(
            bad
            for bad in _words_with_offsets(rest, offset + len(head) + 1)
            if not re.fullmatch(pattern, bad[0])
        )
        raise ParseError(message.format(word), _byte_span(text, start, end), {expected})
    known = words.setdefault(parts, [])
    if repeat_role and len({*known, *found}) != len(known) + len(found):
        name = next(n for i, n in enumerate(found) if n in known or n in found[:i])
        raise ParseError(f"duplicate {repeat_role} {name!r}", span, set())
    known += found


def _sections(text: str, allowed: tuple[str, ...]) -> dict:
    """The section words of every line of `text` (see _feed)."""
    words: dict[tuple[str, ...], list] = {}
    for content, offset in _logical_lines(text):
        _feed(words, text, content, offset, allowed)
    return words


def _poset(words: dict, text: str) -> IndexPoset:
    """The index poset of the section words read from `text`."""
    if not words.get(("indices",)):
        raise ParseError(
            "no indices declared", _byte_span(text, 0, len(text)), {"indices:"}
        )
    return IndexPoset.from_order(
        words[("indices",)], words.get(("order",), ()), words.get(("stable",), ())
    )


def parse_model(text: str) -> StratifiedModel:
    """Parse the model file format (see module docstring).

    Raises ParseError on malformed lines, UndeclaredIdentifier when a
    section refers to an unknown world or index, and CycleError when an
    order section is not antisymmetric.
    """
    words = _sections(text, _MODEL_SECTIONS)
    poset = _poset(words, text)
    if not words.get(("worlds",)):
        raise ParseError(
            "no worlds declared", _byte_span(text, 0, len(text)), {"worlds:"}
        )
    return StratifiedModel(
        poset=poset,
        worlds=tuple(words[("worlds",)]),
        relations={key[1]: found for key, found in words.items() if key[0] == "rel"},
        valuation={key[1]: found for key, found in words.items() if key[0] == "val"},
        world_order=words.get(("worldorder",)),
    )


def load_example_model(name: str) -> StratifiedModel:
    """Parse and return a bundled example model (see
    salogic.EXAMPLE_MODELS)."""
    return parse_model(example_model_path(name).read_text(encoding="utf-8"))


def parse_poset(text: str) -> IndexPoset:
    """Parse a poset file: the model format restricted to the `indices:`,
    `order:` and `stable:` sections."""
    return _poset(_sections(text, _POSET_SECTIONS), text)


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
) -> salogic.proofs.Derivation:
    """Parse a proof script (see module docstring).

    `profile` and `nec_requires_stable` are carried onto the Derivation
    unchanged; all rule checking happens in proofs.check_derivation.
    Lines must be numbered 1..n in order.  Citing the current or a later
    line raises ForwardReference.
    """
    from .proofs import Derivation, Necessitation, ProofLine

    header: dict[tuple[str, ...], list] = {}
    lines: list[ProofLine] = []
    first_use: dict[str, int] = {}  # index -> number of the line naming it first
    for content, offset in _logical_lines(text):
        if not content.strip():
            continue
        head = _PROOF_LINE.match(content)
        if head is None:
            _feed(header, text, content, offset, _POSET_SECTIONS)
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
        if header.get((section,)) and not header.get(("indices",)):
            raise ParseError(
                f"{section}: requires an indices: header",
                _byte_span(text, 0, len(text)),
                {"indices:"},
            )
    # Without a header, the indices in order of first use form an antichain
    # with no stable levels.
    poset = (
        _poset(header, text)
        if header.get(("indices",))
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


def print_proof(derivation: salogic.proofs.Derivation) -> str:
    """Canonical proof script: poset header, then one numbered line per step."""
    lines = _poset_lines(derivation.poset)
    for line in derivation.lines:
        lines.append(
            f"{line.number}. {print_formula(line.formula)} ; "
            f"{_print_justification(line.justification)}"
        )
    return "\n".join(lines) + "\n"
