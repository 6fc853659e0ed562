import re
import sys
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


def test_identifier_rule_where_regex_classes_and_str_methods_disagree():
    # ``\w`` and ``[^\W\d]`` differ from ``str.isalnum`` and ``str.isalpha``
    # on ``_`` and on numerics that are no decimal digit (superscripts,
    # fractions, Roman numerals, ...).  At each such code point the lexer
    # keeps the documented rule: an identifier starts with a letter or
    # ``_``, continues with an alphanumeric, ``_`` or ``'``, and numeric
    # literals are ASCII digits.
    start, word = re.compile(r"[^\W\d]"), re.compile(r"\w")
    disagree = [
        ch
        for ch in map(chr, range(sys.maxunicode + 1))
        if (start.match(ch) is None) == ch.isalpha() or (word.match(ch) is None) == ch.isalnum()
    ]
    assert {"_", "²", "½", "Ⅻ"} <= set(disagree)

    def lexed(source):
        try:
            return [(t.kind, t.text, t.pos.column) for t in tokenize(source)[:-1]]
        except LexError as err:
            return err.pos.column

    for ch in disagree:
        if ch.isalpha() or ch == "_":
            assert lexed(ch) == [(TokenKind.IDENT, ch, 1)], ch
            assert lexed("1" + ch) == [(TokenKind.NAT, "1", 1), (TokenKind.IDENT, ch, 2)], ch
        else:
            assert lexed(ch) == 1, ch
            assert lexed("1" + ch) == 2, ch
        assert ch.isalnum() or ch == "_"
        assert lexed("x" + ch) == [(TokenKind.IDENT, "x" + ch, 1)], ch
    # A CJK numeral is a letter as well as a numeric, so it starts a name.
    assert lexed("一") == [(TokenKind.IDENT, "一", 1)]
