"""Lexer for the specification language.

The grammar is layout-insensitive: newlines and indentation carry no meaning,
and declaration boundaries are recovered by the parser from the token stream.
Line comments start with ``--``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from fractions import Fraction

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

# Multi-character operators must be tried before their prefixes.
_OPERATORS: list[tuple[str, TokenKind]] = [
    ("->", TokenKind.ARROW),
    ("=>", TokenKind.IMPLIES),
    ("<=", TokenKind.OP_LE),
    (">=", TokenKind.OP_GE),
    ("==", TokenKind.OP_EQ),
    ("<", TokenKind.OP_LT),
    (">", TokenKind.OP_GT),
    ("=", TokenKind.EQUALS),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("!", TokenKind.BANG),
    (":", TokenKind.COLON),
    (".", TokenKind.DOT),
    (",", TokenKind.COMMA),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
]


# Numeric literals are ASCII: ``str.isdigit`` also accepts superscripts and
# other scripts' digits, which ``int`` rejects or reads as ASCII ones.
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    pos: SourcePos
    value: Fraction | int | None = None  # numeric payload for NAT / DECIMAL

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.pos})"


def tokenize(source: str, path: str | None = None) -> list[Token]:
    """Tokenize UTF-8 source text; raises LexError with position on any
    unrecognised character."""
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def advance(text: str) -> None:
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if source.startswith("--", i):
            end = source.find("\n", i)
            end = n if end == -1 else end
            advance(source[i:end])
            i = end
            continue
        pos = SourcePos(line, col)
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1] in _DIGITS:
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
                text = source[i:j]
                tokens.append(Token(TokenKind.DECIMAL, text, pos, parse_decimal(text)))
            else:
                text = source[i:j]
                tokens.append(Token(TokenKind.NAT, text, pos, int(text)))
            advance(text)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            text = source[i:j]
            kind = KEYWORDS.get(text, TokenKind.IDENT)
            tokens.append(Token(kind, text, pos))
            advance(text)
            i = j
            continue
        for text, kind in _OPERATORS:
            if source.startswith(text, i):
                tokens.append(Token(kind, text, pos))
                advance(text)
                i += len(text)
                break
        else:
            raise LexError(f"unrecognised character {ch!r}", path=path, pos=pos)

    tokens.append(Token(TokenKind.EOF, "", SourcePos(line, col)))
    return tokens
