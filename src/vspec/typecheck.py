"""Type checker: surface declarations to a typed core program.

Checking runs in two passes per definition:

1. unification-based inference over the surface AST (types of literals and
   unannotated quantifier binders are solved; unconstrained numeric types
   default to Rat), which also records the nodes that have a source of Prop
   beneath them: a quantifier, a reference to a network, or a reference to
   a definition whose body has such a source,
2. core-AST construction with de Bruijn indices and exact literals, which
   also gives each comparison and logical builtin its Bool/Prop level.

For unification, Bool and Prop are collapsed into one formula type.  Pass 2
restores the distinction: a formula takes the level of its position;
quantifier bodies and formula operands of applications are Prop; ``if``
conditions are Bool and must have no source of Prop beneath them, and so
must the body of a declaration with a declared Bool (co)domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import core, surface
from .errors import SourcePos, TypeCheckError
from .types import BOOL, INT, NAT, PROP, RAT, FunT, Scalar, TensorT, VType, is_numeric

# The deepest nesting of expressions a specification may have.  The passes
# over a term recurse once or more per level, so the CLI sizes the
# interpreter's recursion limit to this budget (``cli.RECURSION_LIMIT``).
MAX_NESTING = 1000

_BUILTIN_TYPE_NAMES = {
    "Bool": BOOL,
    "Prop": PROP,
    "Nat": NAT,
    "Int": INT,
    "Rat": RAT,
    "Real": RAT,  # Real is accepted and treated identically to Rat
}


# ---------------------------------------------------------------------------
# Typed program
# ---------------------------------------------------------------------------


@dataclass
class TypedDecl:
    name: str
    kind: str  # "synonym" | "network" | "def"
    signature: surface.SType  # surface form, synonyms unexpanded (for backends)
    vtype: VType  # resolved type (synonym: resolved right-hand side)
    params: tuple[str, ...]
    body: core.Expr | None  # defs: Lam-wrapped core body
    pos: SourcePos


@dataclass
class TypedProgram:
    decls: list[TypedDecl]
    synonyms: dict[str, VType] = field(default_factory=dict)
    networks: dict[str, VType] = field(default_factory=dict)
    definitions: dict[str, core.Expr] = field(default_factory=dict)
    def_types: dict[str, VType] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


class _UVar:
    __slots__ = ("link", "must_numeric")

    def __init__(self) -> None:
        self.link: object | None = None  # VType | _UVar
        self.must_numeric = False


UType = object  # VType | _UVar


def _resolve(t: UType) -> UType:
    while type(t) is _UVar and t.link is not None:
        t = t.link
    return t


def _canon(t: VType) -> VType:
    """Collapse Bool into Prop for unification purposes."""
    if t == BOOL:
        return PROP
    if isinstance(t, FunT):
        return FunT(_canon(t.dom), _canon(t.cod))
    return t


def _occurs(v: _UVar, t: UType) -> bool:
    t = _resolve(t)
    if t is v:
        return True
    if isinstance(t, FunT):
        return _occurs(v, t.dom) or _occurs(v, t.cod)
    if isinstance(t, TensorT):
        return _occurs(v, t.elem)
    return False


def _type_str(t: UType) -> str:
    t = _resolve(t)
    return "_" if isinstance(t, _UVar) else str(t)


class _Checker:
    def __init__(self, path: str | None):
        self.path = path
        self.binder_types: dict[int, list[UType]] = {}
        self.prop_defs: set[str] = set()  # definitions whose body forces Prop

    def error(self, code: str, message: str, pos: SourcePos | None) -> TypeCheckError:
        return TypeCheckError(code, message, path=self.path, pos=pos)

    def unify(self, a: UType, b: UType, pos: SourcePos | None) -> None:
        a, b = _resolve(a), _resolve(b)
        if a is b:
            return
        if type(a) is _UVar:
            if _occurs(a, b):
                raise self.error("TypeMismatch", "infinite type", pos)
            if a.must_numeric and type(b) is not _UVar and not is_numeric(b):  # type: ignore[arg-type]
                raise self.error(
                    "TypeMismatch", f"expected a numeric type, found {_type_str(b)}", pos
                )
            if type(b) is _UVar:
                b.must_numeric = b.must_numeric or a.must_numeric
            a.link = b
            return
        if type(b) is _UVar:
            self.unify(b, a, pos)
            return
        if isinstance(a, Scalar) and isinstance(b, Scalar) and a.kind == b.kind:
            return
        if isinstance(a, TensorT) and isinstance(b, TensorT) and a.dims == b.dims:
            self.unify(a.elem, b.elem, pos)
            return
        if isinstance(a, FunT) and isinstance(b, FunT):
            self.unify(a.dom, b.dom, pos)
            self.unify(a.cod, b.cod, pos)
            return
        raise self.error(
            "TypeMismatch", f"cannot match type {_type_str(a)} with {_type_str(b)}", pos
        )

    def numeric_var(self) -> _UVar:
        v = _UVar()
        v.must_numeric = True
        return v

    def require_numeric(self, t: UType, pos: SourcePos | None) -> None:
        """Require ``t`` to be numeric: an unresolved variable is marked,
        any other type must be one already."""
        t = _resolve(t)
        if type(t) is _UVar:
            t.must_numeric = True
        elif not is_numeric(t):  # type: ignore[arg-type]
            raise self.error("TypeMismatch", f"expected a numeric type, found {_type_str(t)}", pos)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def typecheck(decls: list[surface.SurfaceDecl], path: str | None = None) -> TypedProgram:
    """Check declarations and elaborate them into the typed core program."""
    checker = _Checker(path)
    program = TypedProgram(decls=[])
    for decl in decls:
        if isinstance(decl, surface.TypeSynonym):
            vtype = _eval_type(decl.rhs, program, checker, decl.pos)
            program.synonyms[decl.name] = vtype
            program.decls.append(
                TypedDecl(decl.name, "synonym", decl.rhs, vtype, (), None, decl.pos)
            )
        elif isinstance(decl, surface.NetworkDecl):
            vtype = _eval_type(decl.signature, program, checker, decl.pos)
            program.networks[decl.name] = vtype
            program.decls.append(
                TypedDecl(decl.name, "network", decl.signature, vtype, (), None, decl.pos)
            )
        else:
            typed = _check_fundef(decl, program, checker)
            program.decls.append(typed)
            program.definitions[typed.name] = typed.body  # type: ignore[assignment]
            program.def_types[typed.name] = typed.vtype
    return program


def _eval_type(
    t: surface.SType, program: TypedProgram, checker: _Checker, pos: SourcePos
) -> VType:
    if isinstance(t, surface.SName):
        if t.name in _BUILTIN_TYPE_NAMES:
            return _BUILTIN_TYPE_NAMES[t.name]
        if t.name in program.synonyms:
            return program.synonyms[t.name]
        raise checker.error("UnknownIdentifier", f"unknown type name {t.name!r}", pos)
    if isinstance(t, surface.STensor):
        elem = _eval_type(t.elem, program, checker, pos)
        if not is_numeric(elem):
            raise checker.error(
                "TypeMismatch", f"tensor element type must be numeric, found {elem}", pos
            )
        if any(d <= 0 for d in t.dims):
            raise checker.error("TypeMismatch", "tensor dimensions must be positive", pos)
        return TensorT(elem, t.dims)
    if isinstance(t, surface.SFun):
        return FunT(
            _eval_type(t.dom, program, checker, pos),
            _eval_type(t.cod, program, checker, pos),
        )
    raise AssertionError(t)


def _check_fundef(
    decl: surface.FunDef, program: TypedProgram, checker: _Checker
) -> TypedDecl:
    vtype = _eval_type(decl.signature, program, checker, decl.pos)

    # Bind parameters against the signature's arrows.
    param_types: list[VType] = []
    cod: VType = vtype
    for p in decl.params:
        if not isinstance(cod, FunT):
            raise checker.error(
                "TypeMismatch",
                f"definition of {decl.name!r} has more parameters than its signature",
                decl.pos,
            )
        param_types.append(cod.dom)
        cod = cod.cod

    env = [(p, _canon(t)) for p, t in zip(decl.params, param_types)]
    inf = _Infer(checker, program, env)
    body_type = inf.infer(decl.body)
    checker.unify(body_type, _canon(cod), decl.pos)

    forced = id(decl.body) in inf.forces_prop

    while isinstance(cod, FunT):  # a body that is a formula-valued function
        cod = cod.cod
    body_core = inf.build(decl.body, "bool" if cod == BOOL else "prop")
    # Level errors come after the errors that building the term reports.
    if forced and cod == BOOL:
        raise checker.error(
            "PropInBoolPosition",
            f"{decl.name!r} is declared Bool but its body can only be Prop",
            decl.pos,
        )
    if inf.prop_condition:
        raise checker.error(
            "IfConditionNotBool",
            f"the condition of 'if' must have type Bool in {decl.name!r}",
            decl.pos,
        )
    if forced:
        checker.prop_defs.add(decl.name)
    for p, t in reversed(list(zip(decl.params, param_types))):
        body_core = core.Lam(p, t, body_core)
    return TypedDecl(
        decl.name, "def", decl.signature, vtype, decl.params, body_core, decl.pos
    )


# ---------------------------------------------------------------------------
# Pass 1: inference; pass 2: core construction
# ---------------------------------------------------------------------------

_CMP_TAG = {"<=": "le", "<": "lt", ">=": "ge", ">": "gt", "==": "eq"}
_LOGIC_TAG = {"and": "and", "or": "or", "=>": "implies"}
_ARITH_TAG = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


class _Infer:
    def __init__(
        self,
        checker: _Checker,
        program: TypedProgram,
        env: list[tuple[str, UType]],
    ):
        self.checker = checker
        self.program = program
        self.env = env  # innermost binder last
        self.types: dict[int, UType] = {}  # id(surface node) -> inferred type
        self.prop_sources = 0  # sources of Prop met so far
        self.forces_prop: set[int] = set()  # id(surface node) with one beneath
        self.prop_condition = False  # an if condition has one beneath
        self.depth = 0  # nesting of the node being inferred

    def fail(self, code: str, message: str, pos: SourcePos) -> TypeCheckError:
        return self.checker.error(code, message, pos)

    def lookup(self, name: str, pos: SourcePos) -> UType:
        for bname, btype in reversed(self.env):
            if bname == name:
                return btype
        if name in self.program.networks or name in self.checker.prop_defs:
            self.prop_sources += 1  # a network, or a definition that forces Prop
        if name in self.program.def_types:
            return _canon(self.program.def_types[name])
        if name in self.program.networks:
            return _canon(self.program.networks[name])
        raise self.fail("UnknownIdentifier", f"unknown identifier {name!r}", pos)

    # -- pass 1 ---------------------------------------------------------

    def infer(self, e: surface.SExpr) -> UType:
        before = self.prop_sources
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(
                "NestingTooDeep",
                f"expression nested {self.depth} levels deep, "
                f"over the budget of {MAX_NESTING} levels",
                e.pos,
            )
        t = self._infer(e)
        self.depth -= 1
        self.types[id(e)] = t
        if self.prop_sources != before:
            self.forces_prop.add(id(e))
        return t

    def _infer(self, e: surface.SExpr) -> UType:
        chk = self.checker
        cls = type(e)  # exact-type tests, most frequent first
        if cls is surface.SNum:
            return chk.numeric_var()
        if cls is surface.SBinOp:
            if e.op in _ARITH_TAG:
                lhs = self.infer(e.lhs)
                rhs = self.infer(e.rhs)
                chk.unify(lhs, rhs, e.pos)
                chk.require_numeric(lhs, e.pos)
                if e.op == "/":
                    chk.unify(lhs, RAT, e.pos)
                return lhs
            # and / or / =>
            chk.unify(self.infer(e.lhs), PROP, e.pos)
            chk.unify(self.infer(e.rhs), PROP, e.pos)
            return PROP
        if cls is surface.SVar:
            return self.lookup(e.name, e.pos)
        if cls is surface.SCmp:
            lhs = self.infer(e.lhs)
            rhs = self.infer(e.rhs)
            chk.unify(lhs, rhs, e.pos)
            chk.require_numeric(lhs, e.pos)
            return PROP
        if cls is surface.SIndex:
            tensor = _resolve(self.infer(e.tensor))
            if not isinstance(tensor, TensorT):
                raise self.fail(
                    "TypeMismatch",
                    "cannot determine the tensor type of an indexed expression; "
                    "annotate the quantifier binder",
                    e.pos,
                )
            chk.unify(self.infer(e.index), NAT, e.pos)
            if len(tensor.dims) == 1:
                return tensor.elem
            return TensorT(tensor.elem, tensor.dims[1:])
        if cls is surface.SApp:
            fn_type = self.infer(e.fn)
            for arg in e.args:
                fn_type = _resolve(fn_type)
                if not isinstance(fn_type, FunT):
                    raise self.fail(
                        "TypeMismatch",
                        f"applied a value of non-function type {_type_str(fn_type)}",
                        e.pos,
                    )
                chk.unify(self.infer(arg), fn_type.dom, e.pos)
                fn_type = fn_type.cod
            return fn_type
        if cls is surface.SQuant:
            self.prop_sources += 1
            binder_types: list[UType] = []
            for _, btype in e.binders:
                if btype is None:
                    binder_types.append(_UVar())
                else:
                    binder_types.append(
                        _eval_type(btype, self.program, self.checker, e.pos)
                    )
            self.checker.binder_types[id(e)] = binder_types
            for (name, _), t in zip(e.binders, binder_types):
                self.env.append((name, t))
            chk.unify(self.infer(e.body), PROP, e.pos)
            del self.env[-len(e.binders) :]
            return PROP
        if cls is surface.SNot:
            chk.unify(self.infer(e.arg), PROP, e.pos)
            return PROP
        if cls is surface.SNeg:
            arg = self.infer(e.arg)
            chk.unify(arg, RAT, e.pos)
            return arg
        if cls is surface.SIf:
            chk.unify(self.infer(e.cond), PROP, e.pos)
            then = self.infer(e.then)
            chk.unify(self.infer(e.els), then, e.pos)
            return then
        if cls is surface.STensorLit:
            if not e.items:
                raise self.fail("TypeMismatch", "empty tensor literal", e.pos)
            elem = self.infer(e.items[0])
            for item in e.items[1:]:
                chk.unify(self.infer(item), elem, e.pos)
            resolved = _resolve(elem)
            n = len(e.items)
            if isinstance(resolved, TensorT):
                return TensorT(resolved.elem, (n,) + resolved.dims)
            return TensorT(elem, (n,))  # type: ignore[arg-type]
        raise AssertionError(e)

    # -- pass 2 ---------------------------------------------------------

    def final_type(self, e: surface.SExpr) -> VType:
        t = _resolve(self.types[id(e)])
        if isinstance(t, _UVar):
            return RAT  # unconstrained numeric defaults to Rat
        return t  # type: ignore[return-value]

    def build(self, e: surface.SExpr, level: str) -> core.Expr:
        """Construct the core term of ``e`` and set its Bool/Prop levels.

        ``level`` ("bool" or "prop") is the level a formula takes at this
        position.  Operands of applications, arithmetic, comparisons and
        indexing are at "prop"; of these, only a formula argument of a
        function has a level to take."""
        cls = type(e)  # exact-type tests, most frequent first
        if cls is surface.SNum:
            t = self.final_type(e)
            if t == NAT:
                if e.value.denominator != 1 or e.value < 0:
                    raise self.fail(
                        "TypeMismatch", f"{e.value} is not a natural number", e.pos
                    )
                return core.NatLit(int(e.value))
            return core.RatLit(e.value)
        if cls is surface.SBinOp:
            if e.op in _ARITH_TAG:
                args = (self.build(e.lhs, "prop"), self.build(e.rhs, "prop"))
                return core.Builtin(_ARITH_TAG[e.op], args)
            args = (self.build(e.lhs, level), self.build(e.rhs, level))
            return core.Builtin(_LOGIC_TAG[e.op], args, level)
        if cls is surface.SVar:
            for i, (bname, _) in enumerate(reversed(self.env)):
                if bname == e.name:
                    return core.Var(i)
            return core.TopRef(e.name)
        if cls is surface.SCmp:
            args = (self.build(e.lhs, "prop"), self.build(e.rhs, "prop"))
            return core.Builtin(_CMP_TAG[e.op], args, level)
        if cls is surface.SIndex:
            return core.Index(self.build(e.tensor, "prop"), self.build(e.index, "prop"))
        if cls is surface.SApp:
            expr: core.Expr = self.build(e.fn, "prop")
            for arg in e.args:
                expr = core.App(expr, self.build(arg, "prop"))
            return expr
        if cls is surface.SQuant:
            binder_types = self.checker.binder_types[id(e)]
            final: list[VType] = []
            for t, (name, _) in zip(binder_types, e.binders):
                r = _resolve(t)
                if isinstance(r, _UVar):
                    r = RAT
                if not (is_numeric(r) or isinstance(r, TensorT)):
                    raise self.fail(
                        "UnsupportedQuantifierType",
                        f"cannot quantify over type {r}",
                        e.pos,
                    )
                final.append(r)  # type: ignore[arg-type]
                self.env.append((name, t))
            body = self.build(e.body, "prop")
            del self.env[-len(e.binders) :]
            for (name, _), t in reversed(list(zip(e.binders, final))):
                body = core.Quant(e.kind, name, t, body)
            return body
        if cls is surface.SNot:
            return core.Builtin("not", (self.build(e.arg, level),), level)
        if cls is surface.SNeg:
            return core.Builtin("neg", (self.build(e.arg, "prop"),))
        if cls is surface.SIf:
            if id(e.cond) in self.forces_prop:
                self.prop_condition = True
            args = (
                self.build(e.cond, "bool"),
                self.build(e.then, level),
                self.build(e.els, level),
            )
            is_formula = self.final_type(e) in (BOOL, PROP)
            return core.Builtin("if", args, level if is_formula else None)
        if cls is surface.STensorLit:
            return core.TensorLit(tuple(self.build(x, "prop") for x in e.items))
        raise AssertionError(e)
