"""Normalisation of typed core expressions.

Normalisation-by-evaluation with call-by-value on closed scalar subterms:
beta-redexes disappear, builtins applied to literals fold (exact rational
arithmetic), top-level definition references are inlined, literal tensor
indexing resolves, and quantifiers over tensor types expand into one scalar
quantifier per element.  The fresh names for expanded binders follow the
fixed scheme ``x_<i1>_..._<ik>`` so printed output is stable.

Values are core nodes: ``RatLit``, ``NatLit`` and ``BoolLit`` literals,
``TensorLit``s of values, and stuck ``Builtin``, ``NetworkApp`` and
``Index`` nodes over values.  Three classes are the evaluator's own: a
``_Level``, the variable of a binder that quoting has opened, counted from
the outside; a ``_Binder``, a function or quantifier whose body is
evaluated only when it is applied or quoted, so errors are found in the
order quoting meets them; and a ``_Network``, a network's primitive
function, which with all its arguments is their ``NetworkApp`` (``f x1
... xk`` is ``f [x1, ..., xk] ! 0``; see ``types.network_type``).
Quoting turns levels back into de Bruijn indices and opens binders.

Network applications and quantified scalar variables are the only stuck
terms; everything else reduces.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Callable

from . import core
from .errors import NormaliseError
from .typecheck import TypedProgram
from .types import PROP, TensorT, VType, frozen_dataclass, network_type


@frozen_dataclass
class _Level(core.Expr):
    """A variable bound outside the term being quoted; 0 = outermost."""

    level: int


@frozen_dataclass
class _Binder(core.Expr):
    """A function (``kind`` "lam") or a quantifier, with its body suspended:
    ``instantiate`` maps the bound variable's value to the body's value."""

    kind: str  # "lam" | "forall" | "exists"
    binder: str
    binder_type: VType
    instantiate: Callable[[core.Expr], core.Expr]


@frozen_dataclass
class _Network(core.Expr):
    """Network ``name`` applied to the first ``len(args)`` of its ``arity``
    curried arguments; ``arity`` is None for one tensor argument."""

    name: str
    arity: int | None
    indexed: bool  # the declared codomain is a scalar: take index 0
    args: tuple[core.Expr, ...] = ()


_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv, "neg": operator.neg}  # fmt: skip
_TRUE, _FALSE = core.BoolLit(True), core.BoolLit(False)


class _Normaliser:
    def __init__(self, defs: dict[str, core.Expr], networks: dict[str, VType]):
        self.defs = defs
        self.networks = networks  # name -> declared type
        self._def_values: dict[str, core.Expr] = {}

    def eval(self, e: core.Expr, env: list[core.Expr]) -> core.Expr:
        # Exact-type tests, most frequent first: no node class has a subclass.
        t = type(e)
        if t is core.Builtin:
            return _fold(e, tuple(self.eval(a, env) for a in e.args))
        if t is core.Var:
            return env[len(env) - 1 - e.index]
        if t is core.Index:
            return _index(self.eval(e.tensor, env), self.eval(e.index, env))
        if t is core.NetworkApp:
            return core.NetworkApp(e.network, self.eval(e.arg, env))
        if t is core.Quant:
            return self.eval_quant(e, env)
        if t is core.App:
            return _apply(self.eval(e.fn, env), self.eval(e.arg, env))
        if t is core.Lam:
            return _Binder("lam", e.binder, e.binder_type, lambda v: self.eval(e.body, env + [v]))
        if t is core.TopRef:
            return self.def_value(e.name)
        if t is core.TensorLit:
            return core.TensorLit(tuple(self.eval(x, env) for x in e.items))
        return e  # a literal

    def release(self) -> None:
        """Drop the cached definition values.  A cached function value's
        body refers back to this normaliser, so without this the two would
        keep each other alive until the cyclic collector ran."""
        self._def_values.clear()

    def def_value(self, name: str) -> core.Expr:
        if name not in self._def_values:
            if name in self.networks:
                _, arity, indexed = network_type(name, self.networks[name])
                self._def_values[name] = _Network(name, arity, indexed)
            elif name in self.defs:
                self._def_values[name] = self.eval(self.defs[name], [])
            else:
                raise AssertionError(f"unknown definition {name!r} in normalisation")
        return self._def_values[name]

    def eval_quant(self, e: core.Quant, env: list[core.Expr]) -> core.Expr:
        if not isinstance(e.binder_type, TensorT):
            return _Binder(e.kind, e.binder, e.binder_type, lambda v: self.eval(e.body, env + [v]))
        # One scalar quantifier per element, in row-major order; the body
        # sees the tensor of their variables.
        names = [
            e.binder + "".join(f"_{i}" for i in position)
            for position in itertools.product(*map(range, e.binder_type.dims))
        ]
        return self.collect(e, env, names, [])

    def collect(
        self, e: core.Quant, env: list[core.Expr], names: list[str], acc: list[core.Expr]
    ) -> core.Expr:
        """The quantifiers of the elements of ``e``'s tensor binder after
        the ``len(acc)`` whose variables are ``acc``, then the body."""
        assert isinstance(e.binder_type, TensorT)
        if len(acc) < len(names):
            return _Binder(
                e.kind,
                names[len(acc)],
                e.binder_type.elem,
                lambda v: self.collect(e, env, names, acc + [v]),
            )
        items = acc
        for d in reversed(e.binder_type.dims[1:]):
            items = [core.TensorLit(tuple(items[i : i + d])) for i in range(0, len(items), d)]
        return self.eval(e.body, env + [core.TensorLit(tuple(items))])


def _apply(fn: core.Expr, arg: core.Expr) -> core.Expr:
    """``fn`` applied to ``arg``.  A function-typed ``if`` whose condition
    is stuck takes the argument into both branches:
    ``(if c then f else g) a`` is ``if c then f a else g a``."""
    if isinstance(fn, _Binder):
        return fn.instantiate(arg)
    if isinstance(fn, _Network):
        args = fn.args + (arg,)
        if fn.arity is None:
            app = core.NetworkApp(fn.name, arg)
        elif len(args) < fn.arity:
            return _Network(fn.name, fn.arity, fn.indexed, args)
        else:
            app = core.NetworkApp(fn.name, core.TensorLit(args))
        return core.Index(app, core.NatLit(0)) if fn.indexed else app
    if isinstance(fn, core.Builtin) and fn.op == "if":
        cond, then, els = fn.args
        then, els = _apply(then, arg), _apply(els, arg)
        # The branches now have the application's type; a formula keeps the
        # level its own builtins were given.
        level = next((b.level for b in (then, els) if isinstance(b, core.Builtin)), None)
        return core.Builtin("if", (cond, then, els), level)
    raise AssertionError("application of a non-function survived type checking")


def _index(tensor: core.Expr, index: core.Expr) -> core.Expr:
    if not isinstance(tensor, core.TensorLit):
        return core.Index(tensor, index)
    if not isinstance(index, core.NatLit):
        raise NormaliseError("NonLiteralIndex", "tensor index must reduce to a literal")
    if index.value >= len(tensor.items):
        raise NormaliseError(
            "IndexOutOfBounds",
            f"index {index.value} out of bounds for dimension {len(tensor.items)}",
        )
    return tensor.items[index.value]


def _num(v: core.Expr) -> Fraction | None:
    if isinstance(v, core.RatLit):
        return v.value
    if isinstance(v, core.NatLit):
        return Fraction(v.value)
    return None


def _fold(e: core.Builtin, args: tuple[core.Expr, ...]) -> core.Expr:
    """``e`` over its arguments' values ``args``: a literal or one of the
    arguments when the operation is decided, else the stuck ``Builtin``."""
    op = e.op
    if op in _ARITH:
        nums = [_num(a) for a in args]
        if op == "div" and nums[1] == 0:
            raise NormaliseError("DivisionByZero", "division by zero")
        if None not in nums:
            result = _ARITH[op](*nums)
            if result >= 0 and all(isinstance(a, core.NatLit) for a in args):
                return core.NatLit(int(result))
            return core.RatLit(result)
    elif op in core.CMP_HOLDS:
        lhs, rhs = _num(args[0]), _num(args[1])
        if lhs is not None and rhs is not None:
            return core.BoolLit(core.CMP_HOLDS[op](lhs, rhs))
    elif op == "not":
        if isinstance(args[0], core.BoolLit):
            return core.BoolLit(not args[0].value)
    elif op == "if":
        cond, then, els = args
        if isinstance(cond, core.BoolLit):
            return then if cond.value else els
    elif op == "and":
        lhs, rhs = args
        if isinstance(lhs, core.BoolLit):
            return rhs if lhs.value else lhs
        if rhs == _TRUE:
            return lhs
    elif op == "or":
        lhs, rhs = args
        if isinstance(lhs, core.BoolLit):
            return lhs if lhs.value else rhs
        if rhs == _FALSE:
            return lhs
    elif op == "implies":
        lhs, rhs = args
        if isinstance(lhs, core.BoolLit):
            return rhs if lhs.value else _TRUE
        if rhs == _TRUE:
            return rhs
    return core.Builtin(op, args, e.level)


def _quote(v: core.Expr, depth: int) -> core.Expr:
    t = type(v)
    if t is core.Builtin:
        return core.Builtin(v.op, tuple(_quote(a, depth) for a in v.args), v.level)
    if t is _Level:
        return core.Var(depth - 1 - v.level)
    if t is _Binder:
        body = _quote(v.instantiate(_Level(depth)), depth + 1)
        if v.kind == "lam":
            return core.Lam(v.binder, v.binder_type, body)
        return core.Quant(v.kind, v.binder, v.binder_type, body)
    if t is core.Index:
        return core.Index(_quote(v.tensor, depth), _quote(v.index, depth))
    if t is core.NetworkApp:
        return core.NetworkApp(v.network, _quote(v.arg, depth))
    if t is core.TensorLit:
        return core.TensorLit(tuple(_quote(x, depth) for x in v.items))
    return v  # a literal


def normalise(
    expr: core.Expr,
    defs: dict[str, core.Expr] | None = None,
    networks: dict[str, VType] | None = None,
) -> core.Expr:
    """Normalise a closed core expression against a definition table and
    the declared types of the networks it refers to."""
    norm = _Normaliser(defs or {}, networks or {})
    try:
        return _quote(norm.eval(expr, []), 0)
    finally:
        norm.release()


def prune_non_prop(program: TypedProgram) -> list[tuple[str, core.Expr]]:
    """Normalise and keep exactly the declarations of type Prop, in source
    order; everything else has been inlined and is dropped."""
    norm = _Normaliser(program.definitions, program.networks)
    props: list[tuple[str, core.Expr]] = []
    try:
        for decl in program.decls:
            if decl.kind == "def" and decl.vtype == PROP:
                assert decl.body is not None
                props.append((decl.name, _quote(norm.eval(decl.body, []), 0)))
    finally:
        norm.release()
    return props
