import random
import re
import string
from dataclasses import dataclass

import pytest

from salogic import syntax
from salogic.core import (
    And,
    Atom,
    AxiomProfile,
    Box,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    Or,
    StratifiedModel,
    is_identifier,
)
from salogic.errors import (
    CycleError,
    ForwardReference,
    ParseError,
    SalError,
    SourceSpan,
    UndeclaredIdentifier,
)
from salogic.proofs import Axiom, Derivation, Necessitation, ProofLine
from salogic.syntax import (
    _byte_span,
    parse_formula,
    parse_model,
    parse_poset,
    parse_proof,
    print_formula,
    print_model,
    print_proof,
)

from fuzz import random_formula, random_model

P, Q = Atom("p"), Atom("q")


# --- formulas ---------------------------------------------------------------


def test_parse_examples():
    assert parse_formula("<beta> p") == Diamond("beta", P)
    assert parse_formula("p") == P
    assert parse_formula("[a](p -> q) -> ([a]p -> [a]q)") == Implies(
        Box("a", Implies(P, Q)), Implies(Box("a", P), Box("a", Q))
    )


def test_parse_precedence_and_associativity():
    assert parse_formula("p -> q -> p") == Implies(P, Implies(Q, P))
    assert parse_formula("p & q | p") == Or(And(P, Q), P)
    assert parse_formula("p | q -> p") == Implies(Or(P, Q), P)
    assert parse_formula("p & q & p") == And(And(P, Q), P)
    assert parse_formula("~[a]p & q") == And(Not(Box("a", P)), Q)
    assert parse_formula("~ ~ p") == Not(Not(P))
    assert parse_formula("<a>[b]~p") == Diamond("a", Box("b", Not(P)))
    assert parse_formula("  p   ->(q)  ") == Implies(P, Q)


def test_print_examples():
    assert print_formula(Diamond("beta", P)) == "<beta> p"
    assert print_formula(Not(Not(P))) == "~~p"
    assert print_formula(Implies(P, Implies(Q, P))) == "p -> q -> p"
    assert print_formula(Implies(Implies(P, Q), P)) == "(p -> q) -> p"
    assert print_formula(And(Or(P, Q), P)) == "(p | q) & p"
    assert print_formula(Box("a", And(P, Q))) == "[a] (p & q)"
    assert print_formula(Not(And(P, Q))) == "~(p & q)"


def test_parse_errors_carry_spans_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> ")
    assert err.value.span.start <= err.value.span.end <= len("p -> ")
    assert err.value.expected

    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("(p")
    with pytest.raises(ParseError):
        parse_formula("[a p")
    with pytest.raises(ParseError):
        parse_formula("p -")
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ValueError, match=r"malformed span \(3, 1\)"):
        SourceSpan(3, 1)


def test_pathological_nesting_is_a_diagnostic_not_a_crash():
    for text in (
        "(" * 600 + "p" + ")" * 600,
        "~" * 600 + "p",
        "p -> " * 600 + "p",
        "[a]" * 600 + "p",
    ):
        with pytest.raises(ParseError):
            parse_formula(text)
    # comfortably deep input still parses
    deep = "~" * 100 + "p"
    assert parse_formula(deep) == parse_formula(deep)


def test_parse_rejects_non_ascii_gracefully():
    with pytest.raises(ParseError) as err:
        parse_formula("p ∧ q")
    text = "p ∧ q"
    assert 0 <= err.value.span.start <= err.value.span.end <= len(text.encode())


FORMULA_EXPECTED = {"'('", "'<'", "'['", "'~'", "identifier"}

# (parser, printer, text, outcome): the printed result, or the error's
# message, byte span and expected set.  Every character str.isspace
# accepts separates tokens, a '-' that does not start '->' is a stray,
# and spans count bytes, so `é` takes two.
TOKENIZER_EDGES = [
    (parse_formula, print_formula, "p\u00a0&\u00a0q", "p & q"),  # no-break space
    (parse_formula, print_formula, "[a]\u2003p", "[a] p"),  # em space
    (parse_formula, print_formula, "p\u001c|\u001cq", "p | q"),  # file separator
    (
        parse_formula,
        print_formula,
        "p & é",
        ("unexpected character 'é' at bytes 4..6", (4, 6), set()),
    ),
    # Every token is read before any is parsed: a bad character is
    # reported even after a token the grammar would refuse first.
    (
        parse_formula,
        print_formula,
        "p q é",
        ("unexpected character 'é' at bytes 4..6", (4, 6), set()),
    ),
    (
        parse_formula,
        print_formula,
        "p -",
        ("stray '-' at bytes 2..3 (expected ->)", (2, 3), {"->"}),
    ),
    (
        parse_formula,
        print_formula,
        "p - > q",
        ("stray '-' at bytes 2..3 (expected ->)", (2, 3), {"->"}),
    ),
    (
        parse_formula,
        print_formula,
        "p -- q",
        ("stray '-' at bytes 2..3 (expected ->)", (2, 3), {"->"}),
    ),
    (parse_formula, print_formula, "p ->\r\nq\r\n", "p -> q"),
    (
        parse_formula,
        print_formula,
        "\r\n",
        (
            "expected a formula at bytes 2..2 (expected '(', '<', '[', '~', identifier)",
            (2, 2),
            FORMULA_EXPECTED,
        ),
    ),
    (
        parse_proof,
        print_proof,
        "1. p -> p ; A1\r\n2. [a](p -> p) ; NEC a 1\r\n",
        "indices: a\n1. p -> p ; A1\n2. [a] (p -> p) ; NEC a 1\n",
    ),
    (
        parse_proof,
        print_proof,
        "indices: a\r\nstable: a\r\n1. p ->\r ; A1\r\n",
        (
            "expected a formula at bytes 32..32 (expected '(', '<', '[', '~', identifier)",
            (32, 32),
            FORMULA_EXPECTED,
        ),
    ),
    # A lone surrogate, as an undecodable byte of argv becomes, counts the
    # 3 bytes of its surrogatepass encoding.
    (
        parse_formula,
        print_formula,
        "p & \udcff",
        ("unexpected character '\\udcff' at bytes 4..7", (4, 7), set()),
    ),
    # One level past the nesting bound is reported at the token that
    # opens it: the '(' or prefix operator, or the token after a '->'.
    (
        parse_formula,
        print_formula,
        "(" * 129 + "p" + ")" * 129,
        ("formula nesting deeper than 128 at bytes 128..129", (128, 129), set()),
    ),
    (
        parse_formula,
        print_formula,
        "~" * 129 + "p",
        ("formula nesting deeper than 128 at bytes 128..129", (128, 129), set()),
    ),
    (
        parse_formula,
        print_formula,
        "[a]" * 129 + "p",
        ("formula nesting deeper than 128 at bytes 384..385", (384, 385), set()),
    ),
    (
        parse_formula,
        print_formula,
        "p -> " * 129 + "p",
        ("formula nesting deeper than 128 at bytes 645..646", (645, 646), set()),
    ),
    (parse_formula, print_formula, "p -> " * 128 + "p", "p -> " * 128 + "p"),
]


def test_tokenizer_edge_cases_keep_their_outcomes():
    for parse, printer, text, expected in TOKENIZER_EDGES:
        try:
            got = printer(parse(text))
        except ParseError as err:
            got = (str(err), (err.span.start, err.span.end), set(err.expected))
        assert got == expected, text


def test_formula_round_trip_fuzz():
    rng = random.Random(23)
    for _ in range(400):
        f = random_formula(rng, 8)
        assert parse_formula(print_formula(f)) == f


def test_parse_totality_on_garbage():
    rng = random.Random(29)
    alphabet = "pq ab()[]<>~&|-> \t\n∀αβ✗" + string.ascii_letters + string.digits
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse_formula(text)
        except ParseError as err:
            assert 0 <= err.span.start <= err.span.end <= len(text.encode())


# The formula parser as it was before it parsed by operator precedence: a
# token record per token and a recursive descent with one method per
# grammar level.  The parser must keep its results, the indices it reports
# and its errors on every input.


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'eof', or the operator text itself
    text: str
    start: int
    end: int


def _reference_tokenize(text, start, end):
    tokens = []
    for m in syntax._FORMULA_TOKEN.finditer(text, start, end):
        kind, i, j = m.lastgroup, m.start(m.lastgroup), m.end()
        if kind == "stray":
            raise ParseError("stray '-'", _byte_span(text, i, j), {"->"})
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", _byte_span(text, i, j))
        tokens.append(_Token("ident" if kind == "ident" else m[kind], m[kind], i, j))
    tokens.append(_Token("eof", "", end, end))
    return tokens


class _ReferenceFormulaParser:
    def __init__(self, text, tokens):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.indices = []

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, expected):
        tok = self.peek()
        raise ParseError(message, _byte_span(self.text, tok.start, tok.end), expected)

    def expect(self, kind, expected_name):
        if self.peek().kind != kind:
            self.fail(f"expected {expected_name}", {expected_name})
        return self.advance()

    def implication(self):
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

    def disjunction(self):
        out = self.conjunction()
        while self.peek().kind == "|":
            self.advance()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self):
        out = self.prefix()
        while self.peek().kind == "&":
            self.advance()
            out = And(out, self.prefix())
        return out

    def nest(self):
        self.depth += 1
        if self.depth > syntax._MAX_NESTING:
            self.fail(f"formula nesting deeper than {syntax._MAX_NESTING}", set())

    def prefix(self):
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

    def atom(self):
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
        self.fail("expected a formula", syntax._ATOM_STARTERS)


def _reference_parse_formula(text, start, end):
    parser = _ReferenceFormulaParser(text, _reference_tokenize(text, start, end))
    out = parser.implication()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after formula", {"end of input"})
    return out, parser.indices


def _formula_outcome(parse, text, start, end):
    """The printed formula and its indices, or the error's message, span
    and expected set.  Trees are compared by their text, as `==` recurses
    on deep nodes."""
    try:
        formula, indices = parse(text, start, end)
    except ParseError as err:
        return str(err), err.span, err.expected
    return print_formula(formula), indices


# Token soup: every token kind, near-misses of '->', a bad character and a
# lone surrogate, and both kinds of label.
_SOUP = [
    "p", "q", "a", "b_1", "(", ")", "~", "[", "]", "<", ">", "[a]", "<b>",
    "->", "|", "&", "-", "- >", "é", "\udcff",
]
_SPACES = ["", " ", "  ", "\t", "\n", "\r\n", " ", " "]


def _mutated(rng, text):
    """`text` with a few of its tokens deleted, doubled, swapped or
    replaced by soup."""
    tokens = [m.group().strip() for m in syntax._FORMULA_TOKEN.finditer(text)]
    for _ in range(rng.randint(1, 3)):
        if not tokens:
            break
        k = rng.randrange(len(tokens))
        roll = rng.randrange(4)
        if roll == 0:
            del tokens[k]
        elif roll == 1:
            tokens.insert(k, tokens[k])
        elif roll == 2:
            m = rng.randrange(len(tokens))
            tokens[k], tokens[m] = tokens[m], tokens[k]
        else:
            tokens[k] = rng.choice(_SOUP)
    return "".join(rng.choice(_SPACES[1:]) + token for token in tokens)


# Openers that each nest one level deeper: (text, closer, whether the text
# starts with a whole operand).  After a prefix operator, such a text would
# end the prefix's operand and the level with it, so it follows only the
# other openers.
_OPENERS = [
    ("(", ")", False), ("~", "", False), ("[a]", "", False), ("<b>", "", False),
    ("(p & ", ")", False), ("~q | (", " & q)", True), ("p -> ", "", True),
    ("p & q -> ", "", True), ("~p | p -> ", "", True),
]


def _nested(rng, depth):
    """A formula whose openers nest exactly `depth` deep, mixing '(', '~',
    '[a]', '<b>' and '->' chains, with '&' and '|' between them."""
    opens, closes = [], []
    while len(opens) < depth:
        opener, closer, operand_first = rng.choice(_OPENERS)
        if operand_first and opens and opens[-1] in ("~", "[a]", "<b>"):
            continue
        opens.append(opener)
        closes.append(closer)
    return "".join(opens) + "p" + "".join(reversed(closes))


def _compare_formula(text, start=0, end=None):
    end = len(text) if end is None else end
    want = _formula_outcome(_reference_parse_formula, text, start, end)
    assert _formula_outcome(syntax._parse_formula, text, start, end) == want, (text, start, end)
    return want


def test_formulas_match_the_recursive_reference():
    rng = random.Random(61)
    alphabet = "pq ab()[]<>~&|-> \t\n∀αβ✗é\udcff" + string.ascii_letters + string.digits
    parsed = 0
    for _ in range(1000):
        text = print_formula(random_formula(rng, rng.randint(0, 7)))
        parsed += len(_compare_formula(text)) == 2
        _compare_formula("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24))))
        soup = "".join(
            rng.choice(_SPACES) + rng.choice(_SOUP) for _ in range(rng.randint(0, 12))
        )
        _compare_formula(soup)
        _compare_formula(_mutated(rng, text))
        # A slice of a longer text, as parse_proof passes a proof line's
        # formula: spans count the bytes before the slice, and the
        # characters after it are no tokens.
        head = rng.choice(("", "1. ", "é. ", "\udcff; "))
        tail = rng.choice(("", " ; A1", " q", " é", ")"))
        body = rng.choice((text, _mutated(rng, text)))
        _compare_formula(head + body + tail, len(head), len(head) + len(body))
    assert parsed == 1000
    # Every nesting depth from well inside the bound to past it, for each
    # opener alone and in mixtures, closed and left open.
    for depth in range(120, 134):
        for text in (
            "(" * depth + "p" + ")" * depth,
            "(" * depth + "p",
            "~" * depth + "p",
            "[a]" * depth + "p",
            "<a>" * depth + "p",
            "p -> " * depth + "p",
            "p -> " * depth,
            "~p -> " * depth + "p",
            "p & q -> " * depth + "p | q",
        ):
            _compare_formula(text)
        for _ in range(8):
            text = _nested(rng, depth)
            _compare_formula(text)
            _compare_formula(_mutated(rng, text))


# --- models -----------------------------------------------------------------

SEC33 = """\
indices: alpha beta gamma
order: alpha<=beta beta<=gamma
worlds: w0 w1 w2
worldorder: w0<=w1 w1<=w2
rel alpha: w0->w0
rel beta: w1->w0 w1->w1
rel gamma: w2->w1 w2->w2
val p: w0
"""


def test_parse_model_example():
    m = parse_model(SEC33)
    assert m.worlds == ("w0", "w1", "w2")
    assert m.poset.indices == ("alpha", "beta", "gamma")
    assert m.poset.leq("alpha", "gamma")  # closure computed
    assert m.relations["alpha"] == frozenset({("w0", "w0")})
    assert m.relations["beta"] == frozenset({("w1", "w0"), ("w1", "w1")})
    assert m.relations["gamma"] == frozenset({("w2", "w1"), ("w2", "w2")})
    assert m.valuation == {"p": frozenset({"w0"})}
    assert ("w0", "w2") in m.world_order


def test_parse_minimal_model():
    m = parse_model("indices: a\nworlds: w\n")
    assert m.relations == {"a": frozenset()}
    assert m.valuation == {}
    assert m.world_order is None


def test_parse_model_undeclared_identifiers():
    with pytest.raises(UndeclaredIdentifier, match="'b'"):
        parse_model("indices: a\nworlds: w\nrel b: w->w\n")
    with pytest.raises(UndeclaredIdentifier, match="'v'"):
        parse_model("indices: a\nworlds: w\nrel a: w->v\n")
    with pytest.raises(UndeclaredIdentifier, match="'v'"):
        parse_model("indices: a\nworlds: w\nval p: v\n")
    with pytest.raises(UndeclaredIdentifier, match="'b'"):
        parse_model("indices: a\nworlds: w\nstable: b\n")
    with pytest.raises(UndeclaredIdentifier, match="undeclared world 'w9'"):
        parse_model("indices: a\nworlds: w0 w1\nworldorder: w0<=w9\n")
    with pytest.raises(UndeclaredIdentifier, match="undeclared index 'z'"):
        parse_model("indices: a\norder: a<=z\nworlds: w\n")
    with pytest.raises(UndeclaredIdentifier, match="undeclared index 'z'"):
        parse_poset("indices: a\norder: a<=z\n")


def test_parse_model_names_a_fixed_offender():
    # Whatever the hash seed: the least undeclared world, and a cycle's
    # first index in declaration order with its first partner.
    cases = [
        ("indices: a\nworlds: w0\nrel a: w0->x1 w0->y2 w0->z3\n",
         "relation for 'a' mentions undeclared world 'x1'"),
        ("indices: a\nworlds: w0\nval p: q1 q2 q3\n",
         "valuation of 'p' mentions undeclared world 'q1'"),
        ("indices: b c_1 a\norder: b<=c_1 c_1<=a a<=b\nworlds: w0\n",
         "'b' and 'c_1' are ordered in both directions"),
    ]
    for text, message in cases:
        with pytest.raises((UndeclaredIdentifier, CycleError)) as err:
            parse_model(text)
        assert str(err.value) == message


def test_parse_model_structural_errors():
    with pytest.raises(ParseError):
        parse_model("")
    with pytest.raises(ParseError):
        parse_model("indices: a\n")  # no worlds
    with pytest.raises(ParseError):
        parse_model("worlds: w\n")  # no indices
    with pytest.raises(ParseError):
        parse_model("indices: a a\nworlds: w\n")
    with pytest.raises(ParseError):
        parse_model("indices: a\nworlds: w\nrelation a: w->w\n")
    with pytest.raises(ParseError, match="bad index name '1x'"):
        parse_model("indices: a\nworlds: w\nrel 1x: w->w\n")
    with pytest.raises(CycleError):
        parse_model("indices: a b\norder: a<=b b<=a\nworlds: w\n")


def test_model_sections_union_and_comments():
    text = """\
# a comment line
indices: a   # trailing comment
worlds: w0 w1
rel a: w0->w1
rel a: w1->w1
val p: w0
val p: w1
"""
    m = parse_model(text)
    assert m.relations["a"] == frozenset({("w0", "w1"), ("w1", "w1")})
    assert m.valuation["p"] == frozenset({"w0", "w1"})


def test_model_round_trip_fuzz():
    rng = random.Random(31)
    for _ in range(120):
        m = random_model(rng)
        assert parse_model(print_model(m)) == m


def test_model_print_keeps_empty_valuation_entries():
    m = parse_model("indices: a\nworlds: w\nval p:\n")
    assert m.valuation == {"p": frozenset()}
    again = parse_model(print_model(m))
    assert again == m


def test_parse_poset():
    poset = parse_poset("indices: a b\norder: a<=b\nstable: a\n")
    assert poset.leq("a", "b")
    assert poset.stable == frozenset({"a"})
    with pytest.raises(ParseError):
        parse_poset("indices: a\nworlds: w\n")


IDENTIFIER = {"identifier"}
ORDER_PAIR = {"identifier<=identifier"}
RELATION_PAIR = {"identifier->identifier"}
POSET_SECTIONS = {"indices", "order", "stable"}
MODEL_SECTIONS = POSET_SECTIONS | {"worlds", "worldorder", "rel", "val"}
POSET_EXPECTED = ", ".join(sorted(POSET_SECTIONS))
MODEL_EXPECTED = ", ".join(sorted(MODEL_SECTIONS))

MODEL_LINE_EDGES = [
    # A bad word first, in the middle and last, in each kind of section.
    (parse_model, "indices: 1a b c\nworlds: w\n",
     ("index '1a' is not an identifier at bytes 9..11 (expected identifier)",
      (9, 11), IDENTIFIER)),
    (parse_model, "indices: a b-c c\nworlds: w\n",
     ("index 'b-c' is not an identifier at bytes 11..14 (expected identifier)",
      (11, 14), IDENTIFIER)),
    (parse_model, "indices: a b c!\nworlds: w\n",
     ("index 'c!' is not an identifier at bytes 13..15 (expected identifier)",
      (13, 15), IDENTIFIER)),
    (parse_model, "indices: a\nworlds: 0w w1 w2\n",
     ("world '0w' is not an identifier at bytes 19..21 (expected identifier)",
      (19, 21), IDENTIFIER)),
    (parse_model, "indices: a\nworlds: w0 w.1 w2\n",
     ("world 'w.1' is not an identifier at bytes 22..25 (expected identifier)",
      (22, 25), IDENTIFIER)),
    (parse_model, "indices: a\nworlds: w0 w1 w2?\n",
     ("world 'w2?' is not an identifier at bytes 25..28 (expected identifier)",
      (25, 28), IDENTIFIER)),
    (parse_model, "indices: a b\nworlds: w0 w1\nstable: 2 a b\n",
     ("index '2' is not an identifier at bytes 35..36 (expected identifier)",
      (35, 36), IDENTIFIER)),
    (parse_model, "indices: a b\nworlds: w0 w1\nstable: a b<=a b\n",
     ("index 'b<=a' is not an identifier at bytes 37..41 (expected identifier)",
      (37, 41), IDENTIFIER)),
    (parse_model, "indices: a b\nworlds: w0 w1\nstable: a b $\n",
     ("index '$' is not an identifier at bytes 39..40 (expected identifier)",
      (39, 40), IDENTIFIER)),
    (parse_model, "indices: a b\nworlds: w0 w1\nval p: -w0 w1 w0\n",
     ("world '-w0' is not an identifier at bytes 34..37 (expected identifier)",
      (34, 37), IDENTIFIER)),
    (parse_model, "indices: a b\nworlds: w0 w1\nval p: w0 w1->w0 w1\n",
     ("world 'w1->w0' is not an identifier at bytes 37..43 (expected identifier)",
      (37, 43), IDENTIFIER)),
    (parse_model, "indices: a b\nworlds: w0 w1\nval p: w0 w1 w0:\n",
     ("world 'w0:' is not an identifier at bytes 40..43 (expected identifier)",
      (40, 43), IDENTIFIER)),
    (parse_model, "indices: a b\nworlds: w0 w1\norder: a b<=a a<=b\n",
     ("malformed order pair 'a' at bytes 34..35 (expected identifier<=identifier)",
      (34, 35), ORDER_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\norder: a<=b a=>b a<=b\n",
     ("malformed order pair 'a=>b' at bytes 39..43 (expected identifier<=identifier)",
      (39, 43), ORDER_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\norder: a<=b a<=b a->b\n",
     ("malformed order pair 'a->b' at bytes 44..48 (expected identifier<=identifier)",
      (44, 48), ORDER_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\nworldorder: w0 w0<=w1 w1<=w1\n",
     ("malformed world order pair 'w0' at bytes 39..41 (expected identifier<=identifier)",
      (39, 41), ORDER_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\nworldorder: w0<=w1 w0<w1 w1<=w1\n",
     ("malformed world order pair 'w0<w1' at bytes 46..51 (expected identifier<=identifier)",
      (46, 51), ORDER_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\nworldorder: w0<=w1 w1<=w1 <=w1\n",
     ("malformed world order pair '<=w1' at bytes 53..57 (expected identifier<=identifier)",
      (53, 57), ORDER_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\nrel a: w0 w0->w1 w1->w1\n",
     ("malformed relation pair 'w0' at bytes 34..36 (expected identifier->identifier)",
      (34, 36), RELATION_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\nrel a: w0->w0 w0-w1 w1->w1\n",
     ("malformed relation pair 'w0-w1' at bytes 41..46 (expected identifier->identifier)",
      (41, 46), RELATION_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\nrel a: w0->w0 w1->w1 w0->\n",
     ("malformed relation pair 'w0->' at bytes 48..52 (expected identifier->identifier)",
      (48, 52), RELATION_PAIR)),
    # A relation pair with a second arrow, with `<=` alone, or with `<=` in
    # place of `->`.
    (parse_model, "indices: a b\nworlds: w0 w1\nrel a: w0->w0 w0->w0->w0\n",
     ("malformed relation pair 'w0->w0->w0' at bytes 41..51 (expected identifier->identifier)",
      (41, 51), RELATION_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\nrel a: a<= w0->w0\n",
     ("malformed relation pair 'a<=' at bytes 34..37 (expected identifier->identifier)",
      (34, 37), RELATION_PAIR)),
    (parse_model, "indices: a b\nworlds: w0 w1\nrel a: w0->w0 a<=b\n",
     ("malformed relation pair 'a<=b' at bytes 41..45 (expected identifier->identifier)",
      (41, 45), RELATION_PAIR)),
    # Any whitespace separates words (no-break space, file separator, em
    # space); a span counts the bytes of every character before it.
    (parse_model,
     "indices:\xa0a\xa0b\nworlds:\x1cw0\x1cw1\nrel a:\xa0w0->w1\x1cw1->w1\u2003\nval p:\x1cw1\n",
     "indices: a b\nworlds: w0 w1\nrel a: w0->w1 w1->w1\nval p: w1\n"),
    (parse_model, "indices:\xa0a\xa0b\nworlds:\x1cw0\x1c1w\n",
     ("world '1w' is not an identifier at bytes 26..28 (expected identifier)",
      (26, 28), IDENTIFIER)),
    (parse_model, "indices: a\nworlds: w0\nrel a: w0->w0\xa0w0->w0->w0\n",
     ("malformed relation pair 'w0->w0->w0' at bytes 37..47 (expected identifier->identifier)",
      (37, 47), RELATION_PAIR)),
    (parse_model, "# café\nindices: a\nworlds: w0 1w\n",
     ("world '1w' is not an identifier at bytes 30..32 (expected identifier)",
      (30, 32), IDENTIFIER)),
    (parse_model, "indices: a\nworlds: é w0 1w\n",
     ("world 'é' is not an identifier at bytes 19..21 (expected identifier)",
      (19, 21), IDENTIFIER)),
    (parse_model, "indices: a\nval é: w0\nworlds: w0\n",
     ("bad atom name 'é' at bytes 11..17 (expected identifier)",
      (11, 17), IDENTIFIER)),
    (parse_model, "indices: a\nworlds: w0é w1 1w\n",
     ("world 'w0é' is not an identifier at bytes 19..23 (expected identifier)",
      (19, 23), IDENTIFIER)),
    # A lone surrogate counts the 3 bytes of its surrogatepass encoding,
    # in the bad word or before it.
    (parse_model, "indices: a\nworlds: w\udcff\n",
     ("world 'w\\udcff' is not an identifier at bytes 19..23 (expected identifier)",
      (19, 23), IDENTIFIER)),
    (parse_model, "# \udcff\nindices: a\nworlds: w0 1w\n",
     ("world '1w' is not an identifier at bytes 28..30 (expected identifier)",
      (28, 30), IDENTIFIER)),
    # A bad word in a trailing comment is no word at all.
    (parse_model,
     "indices: a b  # 1b c-d\nworlds: w0 # w0->w0->w0\nrel a: w0->w0 # a<=\nval p: w0 #1w\n",
     "indices: a b\nworlds: w0\nrel a: w0->w0\nval p: w0\n"),
    # The two files the CI loop runs under several hash seeds.
    (parse_model, "indices: a\nworlds: w0\nrel a: w0->w0 w0->w0->w0\n",
     ("malformed relation pair 'w0->w0->w0' at bytes 36..46 (expected identifier->identifier)",
      (36, 46), RELATION_PAIR)),
    (parse_model, "indices: a\nworlds: w0 1w\n",
     ("world '1w' is not an identifier at bytes 22..24 (expected identifier)",
      (22, 24), IDENTIFIER)),
    # Poset files and proof headers read their lines the same way.
    (parse_poset, "indices: a b\norder: a<=b b<=\n",
     ("malformed order pair 'b<=' at bytes 25..28 (expected identifier<=identifier)",
      (25, 28), ORDER_PAIR)),
    (parse_poset, "indices: a 1b\n",
     ("index '1b' is not an identifier at bytes 11..13 (expected identifier)",
      (11, 13), IDENTIFIER)),
    (parse_poset, "indices: a b\nstable: a b-\n",
     ("index 'b-' is not an identifier at bytes 23..25 (expected identifier)",
      (23, 25), IDENTIFIER)),
    (parse_poset, "indices: a b # 1c\norder: a<=b\nstable: b\n",
     "indices: a b\norder: a<=b\nstable: b\n"),
    (parse_proof, "indices: a 1b\n1. p -> p ; A1\n",
     ("index '1b' is not an identifier at bytes 11..13 (expected identifier)",
      (11, 13), IDENTIFIER)),
    (parse_proof, "indices: a b\norder: a->b\n1. p -> p ; A1\n",
     ("malformed order pair 'a->b' at bytes 20..24 (expected identifier<=identifier)",
      (20, 24), ORDER_PAIR)),
    (parse_proof, "indices: a b\nstable: a\xa0b\xa0c!\n1. p -> p ; A1\n",
     ("index 'c!' is not an identifier at bytes 27..29 (expected identifier)",
      (27, 29), IDENTIFIER)),
    (parse_proof, "indices: a b # x-y\norder: a<=b\n1. p -> p ; A1\n",
     "indices: a b\norder: a<=b\n1. p -> p ; A1\n"),
    # Section heads: no colon, a head with too many or too few parts, and a
    # bad name after `rel`.
    (parse_model, "indices a\nworlds: w0\n",
     ("expected a 'section:' line at bytes 0..9 (expected ':')", (0, 9), {"':'"})),
    (parse_model, "indices: a\nworlds: w0\nrel a b: w0->w0\n",
     ("unknown section 'rel a b' at bytes 22..29 (expected " + MODEL_EXPECTED + ")",
      (22, 29), MODEL_SECTIONS)),
    (parse_model, "indices x: a\nworlds: w0\n",
     ("unknown section 'indices x' at bytes 0..9 (expected " + MODEL_EXPECTED + ")",
      (0, 9), MODEL_SECTIONS)),
    (parse_model, "indices: a\nworlds: w0\nval: w0\n",
     ("unknown section 'val' at bytes 22..25 (expected " + MODEL_EXPECTED + ")",
      (22, 25), MODEL_SECTIONS)),
    (parse_model, "indices: a\nworlds: w0\nrel 1x: w0->w0\n",
     ("bad index name '1x' at bytes 22..28 (expected identifier)", (22, 28), IDENTIFIER)),
    # A repeated index or world names the first repeat at the head of its
    # line, on one line or across lines; a bad word is reported before it.
    # A repeated stable index counts once.
    (parse_model, "indices: a b a\nworlds: w0\n",
     ("duplicate index 'a' at bytes 0..7", (0, 7), set())),
    (parse_model, "indices: a b\nindices: c a\nworlds: w0\n",
     ("duplicate index 'a' at bytes 13..20", (13, 20), set())),
    (parse_model, "indices: a b b a\nworlds: w0\n",
     ("duplicate index 'b' at bytes 0..7", (0, 7), set())),
    (parse_model, "indices: a\nindices: b b a\nworlds: w0\n",
     ("duplicate index 'b' at bytes 11..18", (11, 18), set())),
    (parse_model, "indices: a\nworlds: w0 w1 w1\n",
     ("duplicate world 'w1' at bytes 11..17", (11, 17), set())),
    (parse_model, "indices: a\nworlds: w0 w1\nworlds: w1\n",
     ("duplicate world 'w1' at bytes 25..31", (25, 31), set())),
    (parse_model, "indices: a\nworlds: w0 w0 1w\n",
     ("world '1w' is not an identifier at bytes 25..27 (expected identifier)",
      (25, 27), IDENTIFIER)),
    (parse_model, "indices: a\nstable: a a\nworlds: w0\n", "indices: a\nstable: a\nworlds: w0\n"),
    # Poset files and proof headers take only the poset sections, with the
    # same repeat rules.
    (parse_poset, "indices: a\nworlds: w0\n",
     ("unknown section 'worlds' at bytes 11..17 (expected " + POSET_EXPECTED + ")",
      (11, 17), POSET_SECTIONS)),
    (parse_proof, "indices: a\nrel a: w0->w0\n1. p -> p ; A1\n",
     ("unknown section 'rel a' at bytes 11..16 (expected " + POSET_EXPECTED + ")",
      (11, 16), POSET_SECTIONS)),
    (parse_proof, "indices: a a\n1. p -> p ; A1\n",
     ("duplicate index 'a' at bytes 0..7", (0, 7), set())),
    (parse_proof, "indices: a\nindices: b a\n1. p -> p ; A1\n",
     ("duplicate index 'a' at bytes 11..18", (11, 18), set())),
]



def _print_poset(poset):
    return print_proof(Derivation((), poset))


def test_model_line_edge_cases_keep_their_outcomes():
    printers = {parse_model: print_model, parse_poset: _print_poset, parse_proof: print_proof}
    for parse, text, expected in MODEL_LINE_EDGES:
        try:
            got = printers[parse](parse(text))
        except ParseError as err:
            got = (str(err), (err.span.start, err.span.end), set(err.expected))
        assert got == expected, text


# The word checks as they were before a line was matched whole: one word at
# a time, each with its offsets, by partition and is_identifier.  The
# parsers must keep their results and errors on every input.


def _reference_idents(text, words, role):
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


def _reference_pairs(text, words, separator, role):
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


class _ReferenceSections:
    """The section accumulator as it was before a line's words went into one
    dict: a container per section, a flag for a declared world order, and a
    duplicate check for indices and worlds."""

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
    def _declare(target, names, span, role):
        for name in names:
            if name in target:
                raise ParseError(f"duplicate {role} {name!r}", span, set())
            target.append(name)

    def build_poset(self, text):
        if not self.indices:
            raise ParseError(
                "no indices declared", _byte_span(text, 0, len(text)), {"indices:"}
            )
        return IndexPoset.from_order(self.indices, self.order, self.stable)

    def build_model(self, text):
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

    def feed(self, text, content, offset, allowed):
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
        base = offset + len(head) + 1
        words = [(m.group(), base + m.start(), base + m.end()) for m in re.finditer(r"\S+", rest)]
        parts = stripped.split()
        keyword = parts[0] if parts else ""
        if keyword not in allowed or len(parts) != (2 if keyword in ("rel", "val") else 1):
            raise ParseError(f"unknown section {stripped!r}", span, set(allowed))
        if keyword == "indices":
            self._declare(self.indices, _reference_idents(text, words, "index"), span, "index")
        elif keyword == "worlds":
            self._declare(self.worlds, _reference_idents(text, words, "world"), span, "world")
        elif keyword == "order":
            self.order.extend(_reference_pairs(text, words, "<=", "order"))
        elif keyword == "worldorder":
            self.worldorder_declared = True
            self.worldorder.extend(_reference_pairs(text, words, "<=", "world order"))
        elif keyword == "stable":
            for name in _reference_idents(text, words, "index"):
                if name not in self.stable:
                    self.stable.append(name)
        elif keyword == "rel":
            name = parts[1]
            if not is_identifier(name):
                raise ParseError(f"bad index name {name!r}", span, {"identifier"})
            pairs = _reference_pairs(text, words, "->", "relation")
            self.rel.setdefault(name, set()).update(pairs)
        elif keyword == "val":
            name = parts[1]
            if not is_identifier(name):
                raise ParseError(f"bad atom name {name!r}", span, {"identifier"})
            self.val.setdefault(name, set()).update(_reference_idents(text, words, "world"))


def _reference_parse(parse, text):
    """parse_model or parse_poset, reading each line word by word."""
    model = parse is parse_model
    allowed = ("indices", "order", "stable")
    if model:
        allowed += ("worlds", "worldorder", "rel", "val")
    sections = _ReferenceSections()
    for content, offset in syntax._logical_lines(text):
        sections.feed(text, content, offset, allowed)
    return sections.build_model(text) if model else sections.build_poset(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return ParseError, str(err), err.span, err.expected
    except SalError as err:
        return type(err), str(err)


_MODEL_HEADS = [
    "indices:", "worlds:", "stable:", "order:", "worldorder:",
    "rel a:", "rel b:", "val p:", "val q:",
]
_POSET_HEADS = ["indices:", "stable:", "order:"]


def _fuzzed_text(rng, heads):
    """Lines under `heads`, and now and then a malformed head, over indices
    a, b and worlds w0, w1; some words and separators are malformed."""
    names = ["a", "b", "w0", "w1", "p", "_x9"]
    bad = ["1a", "a-", "\u00e9", "w0\u00e9", "a<=", "<=b", "a<=b<=c", "->", "x->y->z", "a:b", "$"]
    separators = [" ", "  ", "\t", "\r", "\x0b", "\u00a0", "\x1c", "\u2003"]
    malformed = ["rel 1x:", "val \u00e9:", "bogus:", " worlds :", "indices", ":"]

    def word(head):
        roll = rng.random()
        if roll < 0.08:
            return rng.choice(bad)
        left, right = rng.choice(names), rng.choice(names)
        if roll < 0.16:
            return left + rng.choice(("<=", "->")) + right
        if "order" in head:
            return f"{left}<={right}"
        return f"{left}->{right}" if head.startswith("rel") else left

    lines = ["indices: a b", "worlds: w0 w1"] if "worlds:" in heads else ["indices: a b"]
    for _ in range(rng.randint(0, 6)):
        head = rng.choice(malformed if rng.random() < 0.1 else heads)
        line = head + "".join(
            rng.choice(separators) + word(head) for _ in range(rng.randint(0, 4))
        )
        if rng.random() < 0.2:
            line += rng.choice(separators) + "#" + rng.choice(bad)
        lines.append(line)
    rng.shuffle(lines)
    return "\n".join(lines) + rng.choice(("", "\n"))


def _proof_header_poset(text):
    return parse_proof(text + "\n1. p -> p ; A1\n").poset


def test_model_lines_match_the_word_by_word_reference():
    rng = random.Random(53)
    for parse, heads in ((parse_model, _MODEL_HEADS), (parse_poset, _POSET_HEADS)):
        kinds = {"parsed": 0, "ParseError": 0, "other": 0}
        for _ in range(3000):
            text = _fuzzed_text(rng, heads)
            want = _outcome(lambda text: _reference_parse(parse, text), text)
            assert _outcome(parse, text) == want, text
            # A poset text read as a proof script's header gives the same
            # poset or error.
            if parse is parse_poset:
                assert _outcome(_proof_header_poset, text) == want, text
            if not isinstance(want, tuple):
                kinds["parsed"] += 1
            else:
                kinds["ParseError" if want[0] is ParseError else "other"] += 1
        # Each outcome is common, so that every path is compared.
        assert min(kinds.values()) > 300, (parse, kinds)


# --- proof scripts ----------------------------------------------------------


def test_parse_proof_example():
    d = parse_proof("1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n")
    assert len(d.lines) == 2
    assert d.lines[0].formula == Implies(P, P)
    assert d.lines[0].justification == Axiom("A1")
    assert d.lines[1].formula == Box("a", Implies(P, P))
    assert d.lines[1].justification == Necessitation("a", 1)
    assert d.poset.indices == ("a",)  # auto-collected antichain
    assert d.poset.stable == frozenset()


def test_parse_proof_forward_reference():
    with pytest.raises(ForwardReference):
        parse_proof("1. q ; MP 2 3\n")
    with pytest.raises(ForwardReference):
        parse_proof("1. p -> p ; A1\n2. [a]p ; NEC a 2\n")
    # With a header the check runs after the poset is built.
    with pytest.raises(ForwardReference, match="line 2 cites line 2"):
        parse_proof("indices: a\nstable: a\n1. p -> p ; A1\n2. [a]p ; NEC a 2\n")
    with pytest.raises(ForwardReference, match="line 1 cites line 0"):
        parse_proof("1. q ; MP 0 1\n")


def test_parse_proof_stores_tags_uninterpreted():
    d = parse_proof("1. [a]p -> [b]p ; A2\n")
    assert d.lines[0].justification == Axiom("A2")
    assert d.poset.indices == ("a", "b")
    # An index named only by a NEC joins the antichain after the line's own.
    d = parse_proof("1. [b]p -> [b]p ; A1\n2. [b]([b]p -> [b]p) ; NEC a 1\n")
    assert d.poset.indices == ("b", "a")


def test_parse_proof_header_and_validation():
    d = parse_proof(
        "indices: a b\norder: a<=b\nstable: a\n1. [a]p -> [b]p ; A2\n",
        profile=AxiomProfile.SECTION3,
        nec_requires_stable=False,
    )
    assert d.poset.leq("a", "b")
    assert d.profile is AxiomProfile.SECTION3
    assert d.nec_requires_stable is False
    with pytest.raises(UndeclaredIdentifier):
        parse_proof("indices: a\n1. [b]p -> [b]p ; A1\n")
    # The error names the first undeclared use in script order, and a
    # header after the numbered lines still declares for all of them.
    with pytest.raises(UndeclaredIdentifier, match="line 2 uses undeclared index 'c'"):
        parse_proof("indices: a\n1. [a]p -> [a]p ; A1\n2. [a]p ; NEC c 1\n3. [b]p ; A1\n")
    with pytest.raises(UndeclaredIdentifier, match="line 1 uses undeclared index 'b'"):
        parse_proof("1. <b>[a]p -> [b]p ; A1\nindices: a\n")
    with pytest.raises(ParseError, match="order: requires an indices: header"):
        parse_proof("order: a<=b\n1. p -> p ; A1\n")
    with pytest.raises(ParseError, match="stable: requires an indices: header"):
        parse_proof("stable: a\n1. p -> p ; A1\n")
    with pytest.raises(ParseError):
        parse_proof("1. p -> p ; A1\n3. p -> p ; A1\n")
    with pytest.raises(ParseError):
        parse_proof("1. p -> p\n")
    with pytest.raises(ParseError):
        parse_proof("1. p -> p ; NOPE\n")
    with pytest.raises(ParseError, match="missing justification"):
        parse_proof("1. p ;\n")
    with pytest.raises(CycleError) as err:
        parse_proof("indices: b c_1 a\norder: b<=c_1 c_1<=a a<=b\n1. p -> p ; A1\n")
    assert str(err.value) == "'b' and 'c_1' are ordered in both directions"
    with pytest.raises(ParseError, match="A1 takes no arguments"):
        parse_proof("1. p -> p ; A1 x\n")
    with pytest.raises(ParseError):
        parse_proof("1. p @ p ; A1\n")


def test_missing_justification_points_at_its_line():
    with pytest.raises(ParseError) as err:
        parse_proof("1. p -> p ; A1\n2. p ;\n")
    assert str(err.value).startswith("missing justification at bytes 15..21 ")
    # The span skips surrounding blanks and the comment; bytes, not chars.
    with pytest.raises(ParseError) as err:
        parse_proof("# µ\n1. p -> p ; A1\n  2. p ;  # note\n")
    assert err.value.span == SourceSpan(22, 28)


def test_print_proof_rejects_a_non_justification():
    d = Derivation((ProofLine(1, P, "A1"),), IndexPoset.from_order(("a",)))
    with pytest.raises(TypeError, match="not a justification: 'A1'"):
        print_proof(d)


def test_parse_proof_citations_must_be_decimal():
    # Superscripts pass str.isdigit() but int() rejects them.
    for citation in ("MP ² 1", "MP 1 ²", "NEC a ¹"):
        with pytest.raises(ParseError):
            parse_proof(f"1. p -> p ; A1\n2. [a](p -> p) ; {citation}\n")


def test_proof_round_trip():
    rng = random.Random(37)
    from fuzz import SWEEP_POSETS, random_derivation

    for _ in range(40):
        poset = rng.choice(SWEEP_POSETS)
        profile = rng.choice(list(AxiomProfile))
        d = random_derivation(rng, poset, profile=profile, max_lines=5)
        again = parse_proof(
            print_proof(d),
            profile=d.profile,
            nec_requires_stable=d.nec_requires_stable,
        )
        assert again == d


def test_model_parse_totality_on_garbage():
    rng = random.Random(41)
    fragments = [
        "indices:", "worlds:", "rel", "val", "order:", "stable:", "worldorder:",
        "a", "b", "w0", "w1", "a<=b", "w0->w1", ":", "#x", "->", "<=", "µ", "1.",
    ]
    for _ in range(400):
        text = "\n".join(
            " ".join(rng.choice(fragments) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(0, 5))
        )
        try:
            parse_model(text)
        except ParseError as err:
            assert 0 <= err.span.start <= err.span.end <= len(text.encode())
        except SalError:
            pass  # undeclared identifiers / cycles are fine diagnostics too
