"""Lexer for the specification language.

One compiled regular expression, ``_TOKEN``, matches a token class at each
offset: blanks and comments, newlines, decimal and Nat literals, words
(identifiers and keywords) and operators.  Columns count characters from
the start of the line.  The grammar is layout-insensitive: newlines and
indentation carry no meaning, and declaration boundaries are recovered by
the parser from the token stream.  Line comments start with ``--``.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from fractions import Fraction
from typing import NamedTuple

from .errors import LexError, SourcePos
from .rational import parse_decimal


class TokenKind(Enum):
    # Keywords
    KW_NETWORK = auto()
    KW_TYPE = auto()
    KW_FORALL = auto()
    KW_EXISTS = auto()
    KW_IF = auto()
    KW_THEN = auto()
    KW_ELSE = auto()
    KW_AND = auto()
    KW_OR = auto()
    KW_NOT = auto()
    KW_LET = auto()
    KW_IN = auto()

    # Literals and names
    IDENT = auto()
    NAT = auto()  # integer literal
    DECIMAL = auto()  # decimal literal

    # Operators and punctuation
    ARROW = auto()  # ->
    IMPLIES = auto()  # =>
    OP_LE = auto()  # <=
    OP_GE = auto()  # >=
    OP_LT = auto()  # <
    OP_GT = auto()  # >
    OP_EQ = auto()  # ==
    EQUALS = auto()  # =
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    BANG = auto()  # !
    COLON = auto()
    DOT = auto()
    COMMA = auto()
    LPAREN = auto()
    RPAREN = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    EOF = auto()

    # Members are singletons that compare by identity, so they hash by it
    # too: ``Enum.__hash__`` hashes the name in Python code, and the parser
    # looks kinds up in sets and dicts once or more per token.
    __hash__ = object.__hash__


KEYWORDS: dict[str, TokenKind] = {
    "network": TokenKind.KW_NETWORK,
    "type": TokenKind.KW_TYPE,
    "forall": TokenKind.KW_FORALL,
    "exists": TokenKind.KW_EXISTS,
    "if": TokenKind.KW_IF,
    "then": TokenKind.KW_THEN,
    "else": TokenKind.KW_ELSE,
    "and": TokenKind.KW_AND,
    "or": TokenKind.KW_OR,
    "not": TokenKind.KW_NOT,
    "let": TokenKind.KW_LET,
    "in": TokenKind.KW_IN,
}

_OPERATORS: dict[str, TokenKind] = {
    "->": TokenKind.ARROW,
    "=>": TokenKind.IMPLIES,
    "<=": TokenKind.OP_LE,
    ">=": TokenKind.OP_GE,
    "==": TokenKind.OP_EQ,
    "<": TokenKind.OP_LT,
    ">": TokenKind.OP_GT,
    "=": TokenKind.EQUALS,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "!": TokenKind.BANG,
    ":": TokenKind.COLON,
    ".": TokenKind.DOT,
    ",": TokenKind.COMMA,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
}

# One alternative per token class, tried in order at each offset.  A comment
# comes before the operator ``-``, a decimal before its leading Nat, and a
# two-character operator before its one-character prefix.  Numeric literals
# are ASCII: ``\d`` also matches other scripts' digits, which ``int`` would
# read as ASCII ones.  ``\w`` is exactly ``str.isalnum`` or ``_``, but
# ``[^\W\d]`` also holds numerics that are not letters, such as ``²``, so
# ``tokenize`` checks a word's first character itself.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r]+|--[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<decimal>[0-9]+\.[0-9]+)"
    r"|(?P<nat>[0-9]+)"
    r"|(?P<word>[^\W\d][\w']*)"
    r"|(?P<op>" + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True))) + ")"
)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    pos: SourcePos
    value: Fraction | int | None = None  # numeric payload for NAT / DECIMAL

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.pos})"


def tokenize(source: str, path: str | None = None) -> list[Token]:
    """Tokenize UTF-8 source text; raises LexError with position on any
    unrecognised character.  An identifier starts with a letter or ``_``
    and continues with alphanumerics of any script (``str.isalnum``), ``_``
    and ``'``.

    Tokens and positions are built by ``tuple.__new__``, which skips the
    Python-level ``__new__`` that ``NamedTuple`` generates."""
    new = tuple.__new__
    tokens: list[Token] = []
    line = 1
    line_start = 0  # offset of the first character of the current line
    i = 0
    while i < len(source):
        match = _TOKEN.match(source, i)
        group = match.lastgroup if match else None
        if group == "newline":
            line += 1
            line_start = match.end()
        elif group != "skip":
            pos = new(SourcePos, (line, i - line_start + 1))
            ch = source[i]
            if group is None or (group == "word" and not (ch.isalpha() or ch == "_")):
                raise LexError(f"unrecognised character {ch!r}", path=path, pos=pos)
            text = match.group()
            if group == "word":
                token = (KEYWORDS.get(text, TokenKind.IDENT), text, pos, None)
            elif group == "nat":
                token = (TokenKind.NAT, text, pos, int(text))
            elif group == "decimal":
                token = (TokenKind.DECIMAL, text, pos, parse_decimal(text))
            else:
                token = (_OPERATORS[text], text, pos, None)
            tokens.append(new(Token, token))
        i = match.end()
    tokens.append(Token(TokenKind.EOF, "", SourcePos(line, i - line_start + 1)))
    return tokens
