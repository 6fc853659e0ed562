"""Surface syntax: AST, recursive-descent parser, and pretty-printer.

Operator precedence, loosest to tightest:

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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SourcePos
from .lexer import Token, TokenKind, tokenize
from .rational import render_number

# ---------------------------------------------------------------------------
# Surface types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SType:
    pass


@dataclass(frozen=True)
class SName(SType):
    """A named type: a builtin (Bool, Prop, Nat, Int, Rat, Real) or synonym."""

    name: str


@dataclass(frozen=True)
class STensor(SType):
    elem: SType
    dims: tuple[int, ...]


@dataclass(frozen=True)
class SFun(SType):
    dom: SType
    cod: SType


# ---------------------------------------------------------------------------
# Surface expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SExpr:
    pass


@dataclass(frozen=True)
class SVar(SExpr):
    name: str
    pos: SourcePos


@dataclass(frozen=True)
class SNum(SExpr):
    """Numeric literal, stored exactly; is_decimal records surface spelling."""

    value: Fraction
    is_decimal: bool
    pos: SourcePos


@dataclass(frozen=True)
class STensorLit(SExpr):
    items: tuple[SExpr, ...]
    pos: SourcePos


@dataclass(frozen=True)
class SApp(SExpr):
    fn: SExpr
    args: tuple[SExpr, ...]
    pos: SourcePos


@dataclass(frozen=True)
class SBinOp(SExpr):
    op: str  # "+", "-", "*", "/", "and", "or", "=>"
    lhs: SExpr
    rhs: SExpr
    pos: SourcePos


@dataclass(frozen=True)
class SCmp(SExpr):
    op: str  # "<=", "<", ">=", ">", "=="
    lhs: SExpr
    rhs: SExpr
    pos: SourcePos


@dataclass(frozen=True)
class SNot(SExpr):
    arg: SExpr
    pos: SourcePos


@dataclass(frozen=True)
class SNeg(SExpr):
    arg: SExpr
    pos: SourcePos


@dataclass(frozen=True)
class SIf(SExpr):
    cond: SExpr
    then: SExpr
    els: SExpr
    pos: SourcePos


@dataclass(frozen=True)
class SQuant(SExpr):
    kind: str  # "forall" | "exists"
    binders: tuple[tuple[str, SType | None], ...]
    body: SExpr
    pos: SourcePos


@dataclass(frozen=True)
class SIndex(SExpr):
    tensor: SExpr
    index: SExpr
    pos: SourcePos


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeSynonym:
    name: str
    rhs: SType
    pos: SourcePos


@dataclass(frozen=True)
class NetworkDecl:
    name: str
    signature: SType
    pos: SourcePos


@dataclass(frozen=True)
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
        dom = self.type_atom_or_tensor()
        if self.peek().kind is TokenKind.ARROW:
            self.next()
            return SFun(dom, self.type_expr())
        return dom

    def type_atom_or_tensor(self) -> SType:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT and tok.text == "Tensor":
            self.next()
            elem = self.type_atom()
            self.expect(TokenKind.LBRACKET, "'[' in tensor type")
            dims = [self.nat_literal()]
            while self.peek().kind is TokenKind.COMMA:
                self.next()
                dims.append(self.nat_literal())
            self.expect(TokenKind.RBRACKET, "']' in tensor type")
            return STensor(elem, tuple(dims))
        return self.type_atom()

    def type_atom(self) -> SType:
        tok = self.peek()
        if tok.kind is TokenKind.LPAREN:
            self.next()
            inner = self.type_expr()
            self.expect(TokenKind.RPAREN, "')'")
            return inner
        if tok.kind is TokenKind.IDENT:
            if tok.text == "Tensor":
                return self.type_atom_or_tensor()
            self.next()
            return SName(tok.text)
        self.fail(f"expected a type, found {tok.text!r}", tok)

    def nat_literal(self) -> int:
        tok = self.expect(TokenKind.NAT, "natural number literal")
        return int(tok.value)  # type: ignore[arg-type]

    # -- expressions, loosest binding first ----------------------------------

    def expr(self) -> SExpr:
        return self.implies_expr()

    def implies_expr(self) -> SExpr:
        lhs = self.or_expr()
        if self.peek().kind is TokenKind.IMPLIES:
            tok = self.next()
            rhs = self.implies_expr()  # right associative
            return SBinOp("=>", lhs, rhs, tok.pos)
        return lhs

    def or_expr(self) -> SExpr:
        lhs = self.and_expr()
        while self.peek().kind is TokenKind.KW_OR:
            tok = self.next()
            lhs = SBinOp("or", lhs, self.and_expr(), tok.pos)
        return lhs

    def and_expr(self) -> SExpr:
        lhs = self.not_expr()
        while self.peek().kind is TokenKind.KW_AND:
            tok = self.next()
            lhs = SBinOp("and", lhs, self.not_expr(), tok.pos)
        return lhs

    def not_expr(self) -> SExpr:
        if self.peek().kind is TokenKind.KW_NOT:
            tok = self.next()
            return SNot(self.not_expr(), tok.pos)
        return self.cmp_expr()

    _CMP = {
        TokenKind.OP_LE: "<=",
        TokenKind.OP_LT: "<",
        TokenKind.OP_GE: ">=",
        TokenKind.OP_GT: ">",
        TokenKind.OP_EQ: "==",
    }

    def cmp_expr(self) -> SExpr:
        first = self.add_expr()
        comparisons: list[SCmp] = []
        lhs = first
        while self.peek().kind in self._CMP:
            tok = self.next()
            rhs = self.add_expr()
            comparisons.append(SCmp(self._CMP[tok.kind], lhs, rhs, tok.pos))
            lhs = rhs
        if not comparisons:
            return first
        # a <= b <= c  desugars to  a <= b and b <= c
        result: SExpr = comparisons[0]
        for cmp in comparisons[1:]:
            result = SBinOp("and", result, cmp, cmp.pos)
        return result

    def add_expr(self) -> SExpr:
        lhs = self.mul_expr()
        while self.peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            tok = self.next()
            op = "+" if tok.kind is TokenKind.PLUS else "-"
            lhs = SBinOp(op, lhs, self.mul_expr(), tok.pos)
        return lhs

    def mul_expr(self) -> SExpr:
        lhs = self.unary_expr()
        while self.peek().kind in (TokenKind.STAR, TokenKind.SLASH):
            tok = self.next()
            op = "*" if tok.kind is TokenKind.STAR else "/"
            lhs = SBinOp(op, lhs, self.unary_expr(), tok.pos)
        return lhs

    def unary_expr(self) -> SExpr:
        if self.peek().kind is TokenKind.MINUS:
            tok = self.next()
            arg = self.unary_expr()
            if isinstance(arg, SNum):
                return SNum(-arg.value, arg.is_decimal, tok.pos)
            return SNeg(arg, tok.pos)
        return self.index_expr()

    def index_expr(self) -> SExpr:
        lhs = self.app_expr()
        while self.peek().kind is TokenKind.BANG:
            tok = self.next()
            lhs = SIndex(lhs, self.app_expr(), tok.pos)
        return lhs

    def app_expr(self) -> SExpr:
        head = self.atom()
        args: list[SExpr] = []
        while self.peek().kind in _ATOM_START and not self.at_declaration_boundary():
            args.append(self.atom())
        if args:
            return SApp(head, tuple(args), _pos_of(head))
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


def _pos_of(e: SExpr) -> SourcePos:
    return e.pos  # type: ignore[attr-defined]


def parse(source: str, path: str | None = None) -> list[SurfaceDecl]:
    """Parse source text into declarations (in source order)."""
    tokens = tokenize(source, path)
    decls = _Parser(tokens, path).program()
    seen: set[str] = set()
    for d in decls:
        if d.name in seen:
            raise ParseError(f"duplicate declaration of {d.name!r}", path=path, pos=d.pos)
        seen.add(d.name)
    return decls


# ---------------------------------------------------------------------------
# Pretty-printer (used by the parse/print round-trip tests; ``--emit``
# prints core terms with ``core.print_expr``)
# ---------------------------------------------------------------------------

_PREC = {
    "=>": 1,
    "or": 2,
    "and": 3,
    "not": 4,
    "cmp": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "neg": 8,
    "!": 9,
    "app": 10,
    "atom": 11,
}


def print_type(t: SType) -> str:
    if isinstance(t, SName):
        return t.name
    if isinstance(t, STensor):
        elem = print_type(t.elem)
        if isinstance(t.elem, (SFun, STensor)):
            elem = f"({elem})"
        dims = ", ".join(str(d) for d in t.dims)
        return f"Tensor {elem} [{dims}]"
    if isinstance(t, SFun):
        dom = print_type(t.dom)
        if isinstance(t.dom, SFun):
            dom = f"({dom})"
        return f"{dom} -> {print_type(t.cod)}"
    raise AssertionError(t)


def print_expr(e: SExpr, prec: int = 0) -> str:
    if isinstance(e, SVar):
        return e.name
    if isinstance(e, SNum):
        return render_number(e.value)
    if isinstance(e, STensorLit):
        return "[" + ", ".join(print_expr(x) for x in e.items) + "]"
    if isinstance(e, SApp):
        parts = [print_expr(e.fn, _PREC["atom"])]
        parts += [print_expr(a, _PREC["atom"]) for a in e.args]
        return _paren(" ".join(parts), _PREC["app"], prec)
    if isinstance(e, SIndex):
        text = f"{print_expr(e.tensor, _PREC['!'])} ! {print_expr(e.index, _PREC['atom'])}"
        return _paren(text, _PREC["!"], prec)
    if isinstance(e, SNeg):
        return _paren(f"-{print_expr(e.arg, _PREC['neg'])}", _PREC["neg"], prec)
    if isinstance(e, SNot):
        return _paren(f"not {print_expr(e.arg, _PREC['not'])}", _PREC["not"], prec)
    if isinstance(e, SCmp):
        lhs = print_expr(e.lhs, _PREC["cmp"] + 1)
        rhs = print_expr(e.rhs, _PREC["cmp"] + 1)
        return _paren(f"{lhs} {e.op} {rhs}", _PREC["cmp"], prec)
    if isinstance(e, SBinOp):
        p = _PREC[e.op]
        right_assoc = e.op == "=>"
        lhs = print_expr(e.lhs, p + (1 if right_assoc else 0))
        rhs = print_expr(e.rhs, p + (0 if right_assoc else 1))
        return _paren(f"{lhs} {e.op} {rhs}", p, prec)
    if isinstance(e, SIf):
        text = (
            f"if {print_expr(e.cond)} then {print_expr(e.then)} else {print_expr(e.els)}"
        )
        return _paren(text, 0, prec)
    if isinstance(e, SQuant):
        groups: list[str] = []
        for name, btype in e.binders:
            if btype is None:
                groups.append(name)
            else:
                groups.append(f"({name} : {print_type(btype)})")
        text = f"{e.kind} {' '.join(groups)} . {print_expr(e.body)}"
        return _paren(text, 0, prec)
    raise AssertionError(e)


def _paren(text: str, node_prec: int, ctx_prec: int) -> str:
    return f"({text})" if node_prec < ctx_prec else text


def print_program(decls: list[SurfaceDecl]) -> str:
    chunks: list[str] = []
    for d in decls:
        if isinstance(d, TypeSynonym):
            chunks.append(f"type {d.name} = {print_type(d.rhs)}")
        elif isinstance(d, NetworkDecl):
            chunks.append(f"network {d.name} : {print_type(d.signature)}")
        else:
            params = "".join(f" {p}" for p in d.params)
            chunks.append(
                f"{d.name} : {print_type(d.signature)}\n{d.name}{params} = {print_expr(d.body)}"
            )
    return "\n\n".join(chunks) + "\n"
