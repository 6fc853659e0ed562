from fractions import Fraction

import pytest

from vspec.errors import LexError
from vspec.lexer import TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def test_forall_comparison_tokens():
    tokens = tokenize("forall x . x <= 3.25")
    assert [t.kind for t in tokens[:-1]] == [
        TokenKind.KW_FORALL,
        TokenKind.IDENT,
        TokenKind.DOT,
        TokenKind.IDENT,
        TokenKind.OP_LE,
        TokenKind.DECIMAL,
    ]
    assert tokens[5].value == Fraction(13, 4)


def test_network_signature_tokens():
    assert kinds("controller : Tensor Rat [2] -> Rat") == [
        TokenKind.IDENT,
        TokenKind.COLON,
        TokenKind.IDENT,
        TokenKind.IDENT,
        TokenKind.LBRACKET,
        TokenKind.NAT,
        TokenKind.RBRACKET,
        TokenKind.ARROW,
        TokenKind.IDENT,
    ]


def test_unrecognised_character_position():
    with pytest.raises(LexError) as err:
        tokenize("@")
    assert err.value.pos.line == 1
    assert err.value.pos.column == 1


def test_keywords_and_operators():
    assert kinds("if then else and or not let in => == = !") == [
        TokenKind.KW_IF,
        TokenKind.KW_THEN,
        TokenKind.KW_ELSE,
        TokenKind.KW_AND,
        TokenKind.KW_OR,
        TokenKind.KW_NOT,
        TokenKind.KW_LET,
        TokenKind.KW_IN,
        TokenKind.IMPLIES,
        TokenKind.OP_EQ,
        TokenKind.EQUALS,
        TokenKind.BANG,
    ]


def test_comments_and_layout_insensitivity():
    source = "x -- trailing comment\n  =\n 1"
    assert kinds(source) == [TokenKind.IDENT, TokenKind.EQUALS, TokenKind.NAT]


def test_positions_track_lines():
    tokens = tokenize("a\n  b")
    assert (tokens[0].pos.line, tokens[0].pos.column) == (1, 1)
    assert (tokens[1].pos.line, tokens[1].pos.column) == (2, 3)


def test_decimal_requires_digits_both_sides():
    # "3." is a Nat followed by a dot, not a decimal literal.
    assert kinds("3.") == [TokenKind.NAT, TokenKind.DOT]


def test_numeric_literals_are_ascii_digits_only():
    # A superscript or another script's digit is no literal, not even
    # after an ASCII digit; identifiers keep accepting them.
    for source, column in (("1 <= ²", 6), ("١ <= 1", 1), ("12² <= 1", 3), ("1.²", 3)):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert (err.value.pos.line, err.value.pos.column) == (1, column), source
    assert [(t.kind, t.text) for t in tokenize("x² x١")[:-1]] == [
        (TokenKind.IDENT, "x²"),
        (TokenKind.IDENT, "x١"),
    ]
