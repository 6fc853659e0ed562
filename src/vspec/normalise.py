"""Normalisation of typed core expressions.

Normalisation-by-evaluation with call-by-value on closed scalar subterms:
beta-redexes disappear, builtins applied to literals fold (exact rational
arithmetic), top-level definition references are inlined, literal tensor
indexing resolves, and quantifiers over tensor types expand into one scalar
quantifier per element.  The fresh names for expanded binders follow the
fixed scheme ``x_<i1>_..._<ik>`` so printed output is stable.

Network applications and quantified scalar variables are the only stuck
terms; everything else reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import core
from .errors import NormaliseError
from .typecheck import TypedProgram
from .types import PROP, TensorT, VType

# ---------------------------------------------------------------------------
# Semantic values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VRat:
    value: Fraction


@dataclass(frozen=True)
class VNat:
    value: int


@dataclass(frozen=True)
class VBool:
    value: bool


@dataclass(frozen=True)
class VTensor:
    items: tuple


@dataclass(frozen=True)
class VFun:
    binder: str
    binder_type: VType
    apply: Callable


@dataclass(frozen=True)
class NVar:
    level: int


@dataclass(frozen=True)
class NQuant:
    kind: str
    binder: str
    binder_type: VType
    instantiate: Callable  # Value -> Value


@dataclass(frozen=True)
class NBuiltin:
    op: str
    args: tuple
    level: str | None


@dataclass(frozen=True)
class NNetApp:
    network: str
    arg: object


@dataclass(frozen=True)
class NIndex:
    target: object
    index: object


@dataclass(frozen=True)
class VNeut:
    head: object


Value = object


class _Normaliser:
    def __init__(self, defs: dict[str, core.Expr]):
        self.defs = defs
        self._def_values: dict[str, Value] = {}

    # -- evaluation -------------------------------------------------------

    def eval(self, e: core.Expr, env: list[Value]) -> Value:
        if isinstance(e, core.Var):
            return env[len(env) - 1 - e.index]
        if isinstance(e, core.TopRef):
            return self.def_value(e.name)
        if isinstance(e, core.RatLit):
            return VRat(e.value)
        if isinstance(e, core.NatLit):
            return VNat(e.value)
        if isinstance(e, core.BoolLit):
            return VBool(e.value)
        if isinstance(e, core.TensorLit):
            return VTensor(tuple(self.eval(x, env) for x in e.items))
        if isinstance(e, core.Lam):
            saved = list(env)
            return VFun(e.binder, e.binder_type, lambda v: self.eval(e.body, saved + [v]))
        if isinstance(e, core.App):
            fn = self.eval(e.fn, env)
            arg = self.eval(e.arg, env)
            if isinstance(fn, VFun):
                return fn.apply(arg)
            raise AssertionError("application of a non-function survived type checking")
        if isinstance(e, core.Quant):
            return self.eval_quant(e, env)
        if isinstance(e, core.NetworkApp):
            return VNeut(NNetApp(e.network, self.eval(e.arg, env)))
        if isinstance(e, core.Index):
            return self.eval_index(self.eval(e.tensor, env), self.eval(e.index, env))
        if isinstance(e, core.Builtin):
            return self.eval_builtin(e, env)
        raise AssertionError(e)

    def def_value(self, name: str) -> Value:
        if name not in self._def_values:
            if name not in self.defs:
                raise AssertionError(f"unknown definition {name!r} in normalisation")
            self._def_values[name] = self.eval(self.defs[name], [])
        return self._def_values[name]

    def eval_quant(self, e: core.Quant, env: list[Value]) -> Value:
        saved = list(env)
        if isinstance(e.binder_type, TensorT):
            elem, dims = e.binder_type.elem, e.binder_type.dims
            total = 1
            for d in dims:
                total *= d

            def nest(flat: list[Value], dims: tuple[int, ...]) -> Value:
                if len(dims) == 1:
                    return VTensor(tuple(flat))
                step = len(flat) // dims[0]
                return VTensor(
                    tuple(nest(flat[i * step : (i + 1) * step], dims[1:]) for i in range(dims[0]))
                )

            def scalar_name(flat_index: int) -> str:
                parts: list[int] = []
                rest = flat_index
                for d in reversed(dims):
                    parts.append(rest % d)
                    rest //= d
                return e.binder + "".join(f"_{i}" for i in reversed(parts))

            def collect(acc: list[Value]) -> Value:
                if len(acc) == total:
                    return self.eval(e.body, saved + [nest(acc, dims)])
                return VNeut(
                    NQuant(
                        e.kind,
                        scalar_name(len(acc)),
                        elem,
                        lambda v, acc=acc: collect(acc + [v]),
                    )
                )

            return collect([])
        return VNeut(
            NQuant(
                e.kind,
                e.binder,
                e.binder_type,
                lambda v: self.eval(e.body, saved + [v]),
            )
        )

    def eval_index(self, tensor: Value, index: Value) -> Value:
        if isinstance(tensor, VTensor):
            if isinstance(index, VNat):
                if index.value >= len(tensor.items):
                    raise NormaliseError(
                        "IndexOutOfBounds",
                        f"index {index.value} out of bounds for dimension {len(tensor.items)}",
                    )
                return tensor.items[index.value]
            raise NormaliseError(
                "NonLiteralIndex", "tensor index must reduce to a literal"
            )
        if isinstance(tensor, VNeut):
            return VNeut(NIndex(tensor, index))
        raise AssertionError("indexed a non-tensor value")

    def eval_builtin(self, e: core.Builtin, env: list[Value]) -> Value:
        args = tuple(self.eval(a, env) for a in e.args)
        folded = _fold(e.op, args)
        if folded is not None:
            return folded
        return VNeut(NBuiltin(e.op, args, e.level))


def _num(v: Value) -> Fraction | None:
    if isinstance(v, VRat):
        return v.value
    if isinstance(v, VNat):
        return Fraction(v.value)
    return None


def _fold(op: str, args: tuple) -> Value | None:
    if op in core.ARITH_OPS:
        nums = [_num(a) for a in args]
        if op == "div":
            if nums[1] == 0:
                raise NormaliseError("DivisionByZero", "division by zero")
            if None not in nums:
                return VRat(nums[0] / nums[1])
            return None
        if None in nums:
            return None
        if op == "neg":
            result = -nums[0]
        else:
            lhs, rhs = nums
            result = {"add": lhs + rhs, "sub": lhs - rhs, "mul": lhs * rhs}[op]
        if all(isinstance(a, VNat) for a in args) and result.denominator == 1 and result >= 0:
            return VNat(int(result))
        return VRat(result)
    if op in core.CMP_OPS:
        nums = [_num(a) for a in args]
        if None in nums:
            return None
        lhs, rhs = nums
        table = {
            "le": lhs <= rhs,
            "lt": lhs < rhs,
            "ge": lhs >= rhs,
            "gt": lhs > rhs,
            "eq": lhs == rhs,
        }
        return VBool(table[op])
    if op == "not":
        if isinstance(args[0], VBool):
            return VBool(not args[0].value)
        return None
    if op == "and":
        lhs, rhs = args
        if isinstance(lhs, VBool):
            return rhs if lhs.value else VBool(False)
        if isinstance(rhs, VBool) and rhs.value:
            return lhs
        return None
    if op == "or":
        lhs, rhs = args
        if isinstance(lhs, VBool):
            return VBool(True) if lhs.value else rhs
        if isinstance(rhs, VBool) and not rhs.value:
            return lhs
        return None
    if op == "implies":
        lhs, rhs = args
        if isinstance(lhs, VBool):
            return rhs if lhs.value else VBool(True)
        if isinstance(rhs, VBool) and rhs.value:
            return VBool(True)
        return None
    if op == "if":
        cond, then, els = args
        if isinstance(cond, VBool):
            return then if cond.value else els
        return None
    return None


def _quote(v: Value, depth: int) -> core.Expr:
    if isinstance(v, VRat):
        return core.RatLit(v.value)
    if isinstance(v, VNat):
        return core.NatLit(v.value)
    if isinstance(v, VBool):
        return core.BoolLit(v.value)
    if isinstance(v, VTensor):
        return core.TensorLit(tuple(_quote(x, depth) for x in v.items))
    if isinstance(v, VFun):
        body = v.apply(VNeut(NVar(depth)))
        return core.Lam(v.binder, v.binder_type, _quote(body, depth + 1))
    if isinstance(v, VNeut):
        return _quote_neutral(v.head, depth)
    raise AssertionError(v)


def _quote_neutral(head: object, depth: int) -> core.Expr:
    if isinstance(head, NVar):
        return core.Var(depth - 1 - head.level)
    if isinstance(head, NQuant):
        body = head.instantiate(VNeut(NVar(depth)))
        return core.Quant(head.kind, head.binder, head.binder_type, _quote(body, depth + 1))
    if isinstance(head, NBuiltin):
        return core.Builtin(head.op, tuple(_quote(a, depth) for a in head.args), head.level)
    if isinstance(head, NNetApp):
        return core.NetworkApp(head.network, _quote(head.arg, depth))
    if isinstance(head, NIndex):
        return core.Index(_quote(head.target, depth), _quote(head.index, depth))
    raise AssertionError(head)


def normalise(expr: core.Expr, defs: dict[str, core.Expr] | None = None) -> core.Expr:
    """Normalise a closed core expression against a definition table."""
    norm = _Normaliser(defs or {})
    return _quote(norm.eval(expr, []), 0)


def prune_non_prop(program: TypedProgram) -> list[tuple[str, core.Expr]]:
    """Normalise and keep exactly the declarations of type Prop, in source
    order; everything else has been inlined and is dropped."""
    norm = _Normaliser(program.definitions)
    props: list[tuple[str, core.Expr]] = []
    for decl in program.decls:
        if decl.kind == "def" and decl.vtype == PROP:
            assert decl.body is not None
            props.append((decl.name, _quote(norm.eval(decl.body, []), 0)))
    return props
