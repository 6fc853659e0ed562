"""Surface syntax: AST and parser.

The parser descends recursively through declarations, types and atoms, and
parses operators by precedence climbing (Pratt 1973): ``_Parser.expr``
loops over the binding levels in ``_BINARY``, so a level of parentheses
costs three Python frames (``expr``, ``application``, ``atom``), not one
per binding level.  Operator precedence, loosest to tightest:

    =>  (right associative)
    or
    and
    not
    comparisons  <= < >= > ==   (chains desugar to conjunctions)
    + -
    * /
    unary minus
    !            (tensor indexing)
    application  (juxtaposition, tightest)

Quantifier and if/then/else bodies extend maximally to the right.  A new
declaration starts at a top-level identifier followed by ``:`` or ``=``, or
at the ``type`` / ``network`` keywords.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, SourcePos, VspecError
from .lexer import Token, TokenKind, tokenize
from .types import frozen_dataclass

# ---------------------------------------------------------------------------
# Surface types
# ---------------------------------------------------------------------------


@frozen_dataclass
class SType:
    pass


@frozen_dataclass
class SName(SType):
    """A named type: a builtin (Bool, Prop, Nat, Int, Rat, Real) or synonym."""

    name: str


@frozen_dataclass
class STensor(SType):
    elem: SType
    dims: tuple[int, ...]


@frozen_dataclass
class SFun(SType):
    dom: SType
    cod: SType


# ---------------------------------------------------------------------------
# Surface expressions
# ---------------------------------------------------------------------------


@frozen_dataclass
class SExpr:
    pass


@frozen_dataclass
class SVar(SExpr):
    name: str
    pos: SourcePos


@frozen_dataclass
class SNum(SExpr):
    """Numeric literal, stored exactly; is_decimal records surface spelling."""

    value: Fraction
    is_decimal: bool
    pos: SourcePos


@frozen_dataclass
class STensorLit(SExpr):
    items: tuple[SExpr, ...]
    pos: SourcePos


@frozen_dataclass
class SApp(SExpr):
    fn: SExpr
    args: tuple[SExpr, ...]
    pos: SourcePos


@frozen_dataclass
class SBinOp(SExpr):
    op: str  # "+", "-", "*", "/", "and", "or", "=>"
    lhs: SExpr
    rhs: SExpr
    pos: SourcePos


@frozen_dataclass
class SCmp(SExpr):
    op: str  # "<=", "<", ">=", ">", "=="
    lhs: SExpr
    rhs: SExpr
    pos: SourcePos


@frozen_dataclass
class SNot(SExpr):
    arg: SExpr
    pos: SourcePos


@frozen_dataclass
class SNeg(SExpr):
    arg: SExpr
    pos: SourcePos


@frozen_dataclass
class SIf(SExpr):
    cond: SExpr
    then: SExpr
    els: SExpr
    pos: SourcePos


@frozen_dataclass
class SQuant(SExpr):
    kind: str  # "forall" | "exists"
    binders: tuple[tuple[str, SType | None], ...]
    body: SExpr
    pos: SourcePos


@frozen_dataclass
class SIndex(SExpr):
    tensor: SExpr
    index: SExpr
    pos: SourcePos


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@frozen_dataclass
class TypeSynonym:
    name: str
    rhs: SType
    pos: SourcePos


@frozen_dataclass
class NetworkDecl:
    name: str
    signature: SType
    pos: SourcePos


@frozen_dataclass
class FunDef:
    name: str
    signature: SType
    params: tuple[str, ...]
    body: SExpr
    pos: SourcePos


SurfaceDecl = TypeSynonym | NetworkDecl | FunDef


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binding levels of the binary operators: ``=>`` is right associative, the
# others left, and the operand of ``!`` is an application.  Prefix ``not``
# and unary minus bind at _NOT and _NEG, a comparison chain at _CMP_PREC.
_BINARY = {
    TokenKind.IMPLIES: ("=>", 1),
    TokenKind.KW_OR: ("or", 2),
    TokenKind.KW_AND: ("and", 3),
    TokenKind.PLUS: ("+", 6),
    TokenKind.MINUS: ("-", 6),
    TokenKind.STAR: ("*", 7),
    TokenKind.SLASH: ("/", 7),
    TokenKind.BANG: ("!", 9),
}
_NOT, _CMP_PREC, _NEG = 4, 5, 8

_CMP = {
    TokenKind.OP_LE: "<=",
    TokenKind.OP_LT: "<",
    TokenKind.OP_GE: ">=",
    TokenKind.OP_GT: ">",
    TokenKind.OP_EQ: "==",
}

_ATOM_START = {
    TokenKind.IDENT,
    TokenKind.NAT,
    TokenKind.DECIMAL,
    TokenKind.LPAREN,
    TokenKind.LBRACKET,
}


class _Parser:
    def __init__(self, tokens: list[Token], path: str | None):
        self.tokens = tokens
        self.path = path
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # ``next`` never moves past EOF, the last token
            return self.tokens[self.i]
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return self.next()

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, path=self.path, pos=tok.pos)

    def at_declaration_boundary(self) -> bool:
        """A top-level identifier followed by ':' or '=' starts the next
        declaration and must not be consumed as an application argument."""
        return self.peek().kind is TokenKind.IDENT and self.peek(1).kind in (
            TokenKind.COLON,
            TokenKind.EQUALS,
        )

    # -- declarations -------------------------------------------------------

    def program(self) -> list[SurfaceDecl]:
        decls: list[SurfaceDecl] = []
        while self.peek().kind is not TokenKind.EOF:
            decls.append(self.declaration())
        return decls

    def declaration(self) -> SurfaceDecl:
        tok = self.peek()
        if tok.kind is TokenKind.KW_TYPE:
            self.next()
            name = self.expect(TokenKind.IDENT, "type synonym name")
            self.expect(TokenKind.EQUALS, "'='")
            rhs = self.type_expr()
            return TypeSynonym(name.text, rhs, tok.pos)
        if tok.kind is TokenKind.KW_NETWORK:
            self.next()
            name = self.expect(TokenKind.IDENT, "network name")
            self.expect(TokenKind.COLON, "':'")
            sig = self.type_expr()
            return NetworkDecl(name.text, sig, tok.pos)
        if tok.kind is TokenKind.IDENT:
            return self.fun_def()
        self.fail(f"expected a declaration, found {tok.text!r}", tok)

    def fun_def(self) -> FunDef:
        sig_name = self.expect(TokenKind.IDENT, "declaration name")
        self.expect(TokenKind.COLON, "':' after declaration name")
        sig = self.type_expr()
        # The definition must follow immediately and use the same name.
        defn = self.peek()
        if defn.kind is not TokenKind.IDENT or defn.text != sig_name.text:
            self.fail(
                f"signature for {sig_name.text!r} must be followed by its definition",
                defn,
            )
        self.next()
        params: list[str] = []
        while self.peek().kind is TokenKind.IDENT:
            params.append(self.next().text)
        self.expect(TokenKind.EQUALS, "'=' in definition")
        body = self.expr()
        return FunDef(sig_name.text, sig, tuple(params), body, sig_name.pos)

    # -- types --------------------------------------------------------------

    def type_expr(self) -> SType:
        dom = self.type_atom()
        if self.peek().kind is TokenKind.ARROW:
            self.next()
            return SFun(dom, self.type_expr())
        return dom

    def type_atom(self) -> SType:
        tok = self.peek()
        if tok.kind is TokenKind.LPAREN:
            self.next()
            inner = self.type_expr()
            self.expect(TokenKind.RPAREN, "')'")
            return inner
        if tok.kind is not TokenKind.IDENT:
            self.fail(f"expected a type, found {tok.text!r}", tok)
        self.next()
        if tok.text != "Tensor":
            return SName(tok.text)
        elem = self.type_atom()
        self.expect(TokenKind.LBRACKET, "'[' in tensor type")
        dims = [self.nat_literal()]
        while self.peek().kind is TokenKind.COMMA:
            self.next()
            dims.append(self.nat_literal())
        self.expect(TokenKind.RBRACKET, "']' in tensor type")
        return STensor(elem, tuple(dims))

    def nat_literal(self) -> int:
        tok = self.expect(TokenKind.NAT, "natural number literal")
        return int(tok.value)  # type: ignore[arg-type]

    # -- expressions ----------------------------------------------------------

    def expr(self, min_prec: int = 0) -> SExpr:
        """An expression whose operators outside brackets bind at level
        ``min_prec`` or tighter (see ``_BINARY``)."""
        tok = self.peek()
        if tok.kind is TokenKind.KW_NOT and min_prec <= _NOT:
            self.next()
            lhs: SExpr = SNot(self.expr(_NOT), tok.pos)
        elif tok.kind is TokenKind.MINUS:
            self.next()
            arg = self.expr(_NEG)
            if isinstance(arg, SNum):
                lhs = SNum(-arg.value, arg.is_decimal, tok.pos)
            else:
                lhs = SNeg(arg, tok.pos)
        else:
            # A prefix 'not' above its level fails here as a missing atom.  A
            # '-' never is above its level: '!' takes an application.
            lhs = self.application()
        while True:
            tok = self.peek()
            if tok.kind in _CMP:
                if min_prec > _CMP_PREC:
                    return lhs
                lhs = self.comparisons(lhs)
                continue
            op = _BINARY.get(tok.kind)
            if op is None or op[1] < min_prec:
                return lhs
            self.next()
            name, prec = op
            if name == "!":
                lhs = SIndex(lhs, self.application(), tok.pos)
            else:
                rhs = self.expr(prec if name == "=>" else prec + 1)
                lhs = SBinOp(name, lhs, rhs, tok.pos)

    def comparisons(self, lhs: SExpr) -> SExpr:
        """A chain of comparisons after ``lhs``: ``a <= b <= c`` desugars to
        ``a <= b and b <= c``."""
        result: SExpr | None = None
        while self.peek().kind in _CMP:
            tok = self.next()
            rhs = self.expr(_CMP_PREC + 1)
            cmp = SCmp(_CMP[tok.kind], lhs, rhs, tok.pos)
            result = cmp if result is None else SBinOp("and", result, cmp, tok.pos)
            lhs = rhs
        return result  # type: ignore[return-value]

    def application(self) -> SExpr:
        head = self.atom()
        args: list[SExpr] = []
        while self.peek().kind in _ATOM_START and not self.at_declaration_boundary():
            args.append(self.atom())
        if args:
            return SApp(head, tuple(args), head.pos)  # type: ignore[attr-defined]
        return head

    def atom(self) -> SExpr:
        tok = self.peek()
        if tok.kind in (TokenKind.KW_FORALL, TokenKind.KW_EXISTS):
            return self.quantifier()
        if tok.kind is TokenKind.KW_IF:
            self.next()
            cond = self.expr()
            self.expect(TokenKind.KW_THEN, "'then'")
            then = self.expr()
            self.expect(TokenKind.KW_ELSE, "'else'")
            els = self.expr()
            return SIf(cond, then, els, tok.pos)
        if tok.kind is TokenKind.KW_LET:
            self.fail("'let' is not supported in source programs", tok)
        if tok.kind is TokenKind.IDENT:
            self.next()
            return SVar(tok.text, tok.pos)
        if tok.kind is TokenKind.NAT:
            self.next()
            return SNum(Fraction(tok.value), False, tok.pos)  # type: ignore[arg-type]
        if tok.kind is TokenKind.DECIMAL:
            self.next()
            return SNum(tok.value, True, tok.pos)  # type: ignore[arg-type]
        if tok.kind is TokenKind.LBRACKET:
            self.next()
            items: list[SExpr] = []
            if self.peek().kind is not TokenKind.RBRACKET:
                items.append(self.expr())
                while self.peek().kind is TokenKind.COMMA:
                    self.next()
                    items.append(self.expr())
            self.expect(TokenKind.RBRACKET, "']'")
            return STensorLit(tuple(items), tok.pos)
        if tok.kind is TokenKind.LPAREN:
            self.next()
            inner = self.expr()
            self.expect(TokenKind.RPAREN, "')'")
            return inner
        self.fail(f"expected an expression, found {tok.text!r}", tok)

    def quantifier(self) -> SExpr:
        tok = self.next()
        kind = "forall" if tok.kind is TokenKind.KW_FORALL else "exists"
        binders: list[tuple[str, SType | None]] = []
        while True:
            nxt = self.peek()
            if nxt.kind is TokenKind.IDENT:
                self.next()
                binders.append((nxt.text, None))
            elif nxt.kind is TokenKind.LPAREN:
                self.next()
                names: list[str] = [self.expect(TokenKind.IDENT, "binder name").text]
                while self.peek().kind is TokenKind.IDENT:
                    names.append(self.next().text)
                self.expect(TokenKind.COLON, "':' in annotated binder")
                btype = self.type_expr()
                self.expect(TokenKind.RPAREN, "')'")
                binders.extend((n, btype) for n in names)
            else:
                break
        if not binders:
            self.fail("quantifier needs at least one bound variable", tok)
        self.expect(TokenKind.DOT, "'.' after quantifier binders")
        body = self.expr()
        return SQuant(kind, tuple(binders), body, tok.pos)


def parse(source: str, path: str | None = None) -> list[SurfaceDecl]:
    """Parse source text into declarations (in source order)."""
    tokens = tokenize(source, path)
    parser = _Parser(tokens, path)
    try:
        decls = parser.program()
    except RecursionError:
        # Input nested several times deeper than the type checker's budget
        # (``typecheck.MAX_NESTING``) runs out of frames here first.
        message = "expression nested too deeply to parse"
        raise VspecError("NestingTooDeep", message, path=path, pos=parser.peek().pos) from None
    seen: set[str] = set()
    for d in decls:
        if d.name in seen:
            raise ParseError(f"duplicate declaration of {d.name!r}", path=path, pos=d.pos)
        seen.add(d.name)
    return decls
