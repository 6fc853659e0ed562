import hashlib
import random
import re
from fractions import Fraction

import pytest

from conftest import FIXTURES
from oracles import eval_core
from printer import print_program
from test_normalise import PINNED_HEADER, pinned_spec
from vspec.errors import LexError, ParseError
from vspec.lexer import tokenize
from vspec.surface import (
    FunDef,
    NetworkDecl,
    SApp,
    SBinOp,
    SCmp,
    SIndex,
    SNeg,
    SNot,
    SNum,
    SQuant,
    SVar,
    TypeSynonym,
    parse,
)


def parse_one_body(text: str):
    decls = parse(f"p : Prop\np = {text}")
    return decls[0].body


def test_controller_spec_declaration_shape(controller_spec):
    decls = parse(controller_spec.read_text(), str(controller_spec))
    assert len(decls) == 7
    assert isinstance(decls[0], TypeSynonym)
    assert isinstance(decls[1], NetworkDecl)
    assert all(isinstance(d, FunDef) for d in decls[2:])
    assert [d.name for d in decls] == [
        "InputVector",
        "controller",
        "currentPosition",
        "previousPosition",
        "safeInput",
        "safeOutput",
        "safe",
    ]


def test_signature_without_definition_is_an_error():
    with pytest.raises(ParseError, match="followed by its definition"):
        parse("safe : Prop")


def test_network_needs_no_definition():
    decls = parse("network f : Rat -> Rat")
    assert isinstance(decls[0], NetworkDecl)


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse("a : Rat\na = 1\n\na : Rat\na = 2")


def test_chained_comparison_desugars_to_conjunction():
    body = parse_one_body("-3.25 <= x <= 3.25")
    assert isinstance(body, SBinOp) and body.op == "and"
    assert isinstance(body.lhs, SCmp) and body.lhs.op == "<="
    assert isinstance(body.lhs.lhs, SNum)
    assert body.lhs.lhs.value == Fraction(-13, 4)
    assert isinstance(body.rhs, SCmp) and body.rhs.op == "<="
    assert body.rhs.rhs.value == Fraction(13, 4)


def test_chained_comparison_matches_explicit_conjunction_semantics():
    # Check by evaluating both forms over a rational grid.
    chained = parse_one_body("-3.25 <= x <= 3.25")
    explicit = parse_one_body("-3.25 <= x and x <= 3.25")

    def evaluate(e, x):
        if isinstance(e, SBinOp) and e.op == "and":
            return evaluate(e.lhs, x) and evaluate(e.rhs, x)
        assert isinstance(e, SCmp)
        lhs = e.lhs.value if isinstance(e.lhs, SNum) else x
        rhs = e.rhs.value if isinstance(e.rhs, SNum) else x
        return {"<=": lhs <= rhs, "<": lhs < rhs, ">=": lhs >= rhs, ">": lhs > rhs}[e.op]

    for x in (Fraction(-4), Fraction(0), Fraction(4)):
        assert evaluate(chained, x) == evaluate(explicit, x)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1 + 2 * 3", Fraction(7)),
        ("(1 + 2) * 3", Fraction(9)),
        ("2 - 3 - 4", Fraction(-5)),  # left associative
        ("-2 * 3", Fraction(-6)),
        ("8 / 4 / 2", Fraction(1)),
    ],
)
def test_arithmetic_precedence(text, expected):
    from vspec.typecheck import typecheck

    program = typecheck(parse(f"v : Rat\nv = {text}"))
    assert eval_core(program.definitions["v"], []) == expected


def test_implication_is_right_associative():
    body = parse_one_body("a == 0 => b == 0 => c == 0")
    assert isinstance(body, SBinOp) and body.op == "=>"
    assert isinstance(body.rhs, SBinOp) and body.rhs.op == "=>"


def test_logical_precedence_not_and_or_implies():
    body = parse_one_body("not a == 0 and b == 0 or c == 0 => d == 0")
    # ((not (a==0) and b==0) or c==0) => d==0
    assert body.op == "=>"
    assert body.lhs.op == "or"
    assert body.lhs.lhs.op == "and"
    assert body.lhs.lhs.lhs.__class__.__name__ == "SNot"


def test_indexing_binds_tighter_than_application_chain():
    body = parse_one_body("f [x1] ! 0 <= 0")
    # (f [x1]) ! 0, not f ([x1] ! 0)
    cmp = body
    assert isinstance(cmp, SCmp)
    assert cmp.lhs.__class__.__name__ == "SIndex"
    assert cmp.lhs.tensor.__class__.__name__ == "SApp"


def test_let_is_rejected_in_source():
    with pytest.raises(ParseError, match="let"):
        parse("p : Rat\np = let y = 1 in y")


def test_quantifier_body_extends_right():
    body = parse_one_body("forall x . x <= 0 and x >= 1")
    assert isinstance(body, SQuant)
    assert body.body.op == "and"


def test_annotated_binder_groups():
    body = parse_one_body("forall (p0 p1 : Rat) . p0 <= p1")
    assert isinstance(body, SQuant)
    assert [name for name, _ in body.binders] == ["p0", "p1"]
    assert all(t is not None for _, t in body.binders)


def test_parse_print_parse_roundtrip(controller_spec):
    source = controller_spec.read_text()
    first = parse(source)
    printed = print_program(first)
    second = parse(printed)
    assert print_program(second) == printed
    assert [d.name for d in first] == [d.name for d in second]


@pytest.mark.parametrize(
    "program",
    [
        "p : Prop\np = forall x . x <= 3.25",
        "p : Prop\np = exists (v : Rat) . v > 0 and not v >= 10",
        "f : Rat -> Rat\nf x = if x <= 0 then 0 - x else x\n\np : Prop\np = forall y . f y >= 0",
        "t : Tensor Rat [2, 2]\nt = [[1, 2], [3, 4]]\n\np : Prop\np = t ! 0 ! 1 == 2",
        "p : Prop\np = forall a b . a <= b => a - 1 <= b + 1",
    ],
)
def test_roundtrip_various_programs(program):
    first = parse(program)
    printed = print_program(first)
    second = parse(printed)
    assert print_program(second) == printed


def bracketed(e) -> str:
    """Every node of a surface expression in brackets, each operator with
    its column."""
    if isinstance(e, SVar):
        return e.name
    if isinstance(e, SNum):
        return str(e.value)
    if isinstance(e, (SBinOp, SCmp)):
        return f"({e.op}@{e.pos.column} {bracketed(e.lhs)} {bracketed(e.rhs)})"
    if isinstance(e, (SNot, SNeg)):
        op = "not" if isinstance(e, SNot) else "neg"
        return f"({op}@{e.pos.column} {bracketed(e.arg)})"
    if isinstance(e, SIndex):
        return f"(!@{e.pos.column} {bracketed(e.tensor)} {bracketed(e.index)})"
    if isinstance(e, SApp):
        return "(" + " ".join(bracketed(x) for x in (e.fn, *e.args)) + ")"
    raise AssertionError(e)


# A prefix ``not`` or ``-`` parses only where its own level may start, and
# the operand of ``!`` is an application.  Recorded with the parser that had
# one method per precedence level.
PREFIX_CASES = [
    ("a <= not b", "spec.vcl:2:10: error: expected an expression, found 'not' [ParseError]"),
    ("a + not b", "spec.vcl:2:9: error: expected an expression, found 'not' [ParseError]"),
    ("t ! -1", "spec.vcl:2:9: error: expected an expression, found '-' [ParseError]"),
    ("t ! not b", "spec.vcl:2:9: error: expected an expression, found 'not' [ParseError]"),
    ("a * -b", "(*@7 a (neg@9 b))"),
    ("-t ! 0", "(neg@5 (!@8 t 0))"),
    ("not a <= b <= c", "(not@5 (and@16 (<=@11 a b) (<=@16 b c)))"),
    ("a => b => c", "(=>@7 a (=>@12 b c))"),
]


@pytest.mark.parametrize("text,expected", PREFIX_CASES, ids=[t for t, _ in PREFIX_CASES])
def test_prefix_operators_and_index_operands(text, expected):
    try:
        got = bracketed(parse(f"p : Prop\np = {text}", "spec.vcl")[0].body)
    except ParseError as err:
        got = err.diagnostic()
    assert got == expected


# -- pinned front end ------------------------------------------------------------

# sha256 of the front end's output on front_end_corpus(); see
# test_pinned_front_end_corpus.
PINNED_FRONT_END_DIGEST = "615d5f61b057d5624db05c0787da3a0b14ad34ccb3cee44338402cd7e617c142"

# Pieces the mutations insert or delete: prefix operators, an index, an
# implication, a superscript two (a numeric that may continue a name but
# neither start one nor be a digit), a non-ASCII letter, a type word, the
# rejected ``let`` and a comment that swallows the rest of its line.
MUTATION_PIECES = ("not", "-", "!", "=>", "\u00b2", "\u00e9", "Tensor", "let", "-- note")


def front_end_corpus() -> list[str]:
    """The fixtures' specs and 60 ``pinned_spec`` programs, each intact,
    cut at 3 seeded offsets, and with 6 seeded single-piece mutations: a
    piece of ``MUTATION_PIECES`` inserted at a random offset, bare or
    between spaces, or one occurrence of it deleted."""
    rng = random.Random(20261019)
    bases = [path.read_text() for path in sorted(FIXTURES.glob("*.vcl"))]
    bases += [PINNED_HEADER + pinned_spec(rng, index) for index in range(60)]
    corpus = []
    for source in bases:
        corpus.append(source)
        corpus += [source[: rng.randrange(len(source))] for _ in range(3)]
        for _ in range(6):
            piece = rng.choice(MUTATION_PIECES)
            hits = [m.start() for m in re.finditer(re.escape(piece), source)]
            if hits and rng.random() < 0.4:
                at = rng.choice(hits)
                corpus.append(source[:at] + source[at + len(piece) :])
            else:
                at = rng.randrange(len(source) + 1)
                gap = rng.choice(("", " "))
                corpus.append(source[:at] + gap + piece + gap + source[at:])
    return corpus


def test_pinned_front_end_corpus():
    """Tokens, surface ASTs (positions included) and diagnostics of
    ``front_end_corpus`` are pinned to a digest.

    Each input contributes the ``repr`` of its token list and of its parsed
    declarations, or the diagnostic that stopped either.  The digest was
    recorded with the character-walking lexer and the recursive-descent
    parser that had one method per precedence level, so it gates "same
    front end" for any rewrite of either."""
    rendered = []
    outcomes = {"parsed": 0, "ParseError": 0, "LexError": 0}
    for source in front_end_corpus():
        try:
            rendered.append(repr(tokenize(source, "spec.vcl")))
            rendered.append(repr(parse(source, "spec.vcl")))
            outcomes["parsed"] += 1
        except (LexError, ParseError) as err:
            rendered.append(err.diagnostic())
            outcomes[err.code] += 1
    assert min(outcomes.values()) >= 10, outcomes
    digest = hashlib.sha256(repr(rendered).encode()).hexdigest()
    assert digest == PINNED_FRONT_END_DIGEST
