"""Core expression language.

Expressions are immutable and use de Bruijn indices for bound variables
(index 0 is the innermost binder), which makes structural equality
alpha-invariant.  Binder names are kept purely for printing.  References to
top-level definitions stay name-based (``TopRef``) until the normaliser
inlines them.

Network applications stay ``NetworkApp`` nodes throughout: the query
compiler numbers them and maps their inputs and outputs to its own
relational variables (``queries.QVar``), so the core language has no
relational nodes.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterator

from .rational import render_number
from .types import VType, frozen_dataclass

# Builtin operation tags.
ARITH_OPS = ("add", "sub", "mul", "div", "neg")
# Each comparison tag with the relation it names.
CMP_HOLDS = {"le": operator.le, "lt": operator.lt, "ge": operator.ge, "gt": operator.gt,
             "eq": operator.eq}  # fmt: skip
CMP_OPS = tuple(CMP_HOLDS)
LOGIC_OPS = ("and", "or", "implies", "not", "if")

OP_SYMBOL = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "div": "/",
    "le": "<=",
    "lt": "<",
    "ge": ">=",
    "gt": ">",
    "eq": "==",
    "and": "and",
    "or": "or",
    "implies": "=>",
}


@frozen_dataclass
class Expr:
    pass


@frozen_dataclass
class Var(Expr):
    """Bound variable; de Bruijn index, 0 = innermost binder."""

    index: int


@frozen_dataclass
class TopRef(Expr):
    """Reference to a top-level definition or network name."""

    name: str


@frozen_dataclass
class RatLit(Expr):
    value: Fraction


@frozen_dataclass
class NatLit(Expr):
    value: int


@frozen_dataclass
class BoolLit(Expr):
    value: bool


@frozen_dataclass
class TensorLit(Expr):
    items: tuple[Expr, ...]


@frozen_dataclass
class Builtin(Expr):
    """Saturated builtin application.

    ``level`` records the Bool/Prop instantiation chosen by the type checker
    for comparison and logical operations; arithmetic builtins leave it None.
    """

    op: str
    args: tuple[Expr, ...]
    level: str | None = None  # "bool" | "prop" | None


@frozen_dataclass
class App(Expr):
    fn: Expr
    arg: Expr


@frozen_dataclass
class Lam(Expr):
    binder: str
    binder_type: VType
    body: Expr


@frozen_dataclass
class Quant(Expr):
    kind: str  # "forall" | "exists"
    binder: str
    binder_type: VType
    body: Expr


@frozen_dataclass
class NetworkApp(Expr):
    """Application of a declared network to its (tensor) argument."""

    network: str
    arg: Expr


@frozen_dataclass
class Index(Expr):
    tensor: Expr
    index: Expr


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def children(e: Expr) -> tuple[Expr, ...]:
    # Exact-type tests, most frequent first: no node class has a subclass.
    t = type(e)
    if t is Builtin:
        return e.args
    if t is Index:
        return (e.tensor, e.index)
    if t is NetworkApp:
        return (e.arg,)
    if t is TensorLit:
        return e.items
    if t is App:
        return (e.fn, e.arg)
    if t is Lam or t is Quant:
        return (e.body,)
    return ()


def subterms(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal of e and all its subterms."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))


def contains(e: Expr, pred: Callable[[Expr], bool]) -> bool:
    return any(pred(s) for s in subterms(e))


def contains_network(e: Expr) -> bool:
    return contains(e, lambda s: isinstance(s, NetworkApp))


def map_children(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Rebuild e with f applied to each immediate child (binder-unaware)."""
    t = type(e)
    if t is Builtin:
        return Builtin(e.op, tuple(f(a) for a in e.args), e.level)
    if t is Index:
        return Index(f(e.tensor), f(e.index))
    if t is NetworkApp:
        return NetworkApp(e.network, f(e.arg))
    if t is TensorLit:
        return TensorLit(tuple(f(x) for x in e.items))
    if t is Quant:
        return Quant(e.kind, e.binder, e.binder_type, f(e.body))
    if t is App:
        return App(f(e.fn), f(e.arg))
    if t is Lam:
        return Lam(e.binder, e.binder_type, f(e.body))
    return e


def shift(e: Expr, by: int, cutoff: int = 0) -> Expr:
    """Shift free variable indices >= cutoff by ``by``."""
    if by == 0:
        return e
    if isinstance(e, Var):
        return Var(e.index + by) if e.index >= cutoff else e
    if isinstance(e, (Lam, Quant)):
        body = shift(e.body, by, cutoff + 1)
        if isinstance(e, Lam):
            return Lam(e.binder, e.binder_type, body)
        return Quant(e.kind, e.binder, e.binder_type, body)
    return map_children(e, lambda c: shift(c, by, cutoff))


# ---------------------------------------------------------------------------
# Printing (surface syntax rendering of core expressions)
# ---------------------------------------------------------------------------

_PREC = {
    "implies": 1,
    "or": 2,
    "and": 3,
    "not": 4,
    "cmp": 5,
    "add": 6,
    "sub": 6,
    "mul": 7,
    "div": 7,
    "neg": 8,
    "index": 9,
    "app": 10,
    "atom": 11,
}


def print_expr(e: Expr, names: list[str] | None = None, prec: int = 0) -> str:
    """Render a core expression in surface syntax.

    ``names`` is the binder-name stack, innermost last.
    """
    return _render(e, names if names is not None else [], prec)


def _render(e: Expr, names: list[str], prec: int) -> str:
    if isinstance(e, Var):
        if e.index < len(names):
            return names[len(names) - 1 - e.index]
        return f"#{e.index}"
    if isinstance(e, TopRef):
        return e.name
    if isinstance(e, RatLit):
        value = render_number(e.value)
        return f"({value})" if e.value < 0 and prec >= _PREC["app"] else value
    if isinstance(e, NatLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "True" if e.value else "False"
    if isinstance(e, TensorLit):
        return "[" + ", ".join(_render(x, names, 0) for x in e.items) + "]"
    if isinstance(e, NetworkApp):
        return _paren(f"{e.network} {_render(e.arg, names, _PREC['atom'])}", _PREC["app"], prec)
    if isinstance(e, App):
        text = f"{_render(e.fn, names, _PREC['app'])} {_render(e.arg, names, _PREC['atom'])}"
        return _paren(text, _PREC["app"], prec)
    if isinstance(e, Index):
        tensor = _render(e.tensor, names, _PREC["index"])
        text = f"{tensor} ! {_render(e.index, names, _PREC['atom'])}"
        return _paren(text, _PREC["index"], prec)
    if isinstance(e, (Lam, Quant)):
        names.append(e.binder)
        body = _render(e.body, names, 0)
        names.pop()
        if isinstance(e, Lam):
            text = f"\\{e.binder} : {e.binder_type} . {body}"
        else:
            text = f"{e.kind} ({e.binder} : {e.binder_type}) . {body}"
        return _paren(text, 0, prec)
    if isinstance(e, Builtin):
        return _render_builtin(e, names, prec)
    raise AssertionError(e)


def _render_builtin(e: Builtin, names: list[str], prec: int) -> str:
    if e.op == "neg":
        return _paren(f"-{_render(e.args[0], names, _PREC['neg'])}", _PREC["neg"], prec)
    if e.op == "not":
        return _paren(f"not {_render(e.args[0], names, _PREC['not'])}", _PREC["not"], prec)
    if e.op == "if":
        cond, then, els = e.args
        text = (
            f"if {_render(cond, names, 0)} then {_render(then, names, 0)} "
            f"else {_render(els, names, 0)}"
        )
        return _paren(text, 0, prec)
    lhs, rhs = e.args
    if e.op in CMP_OPS:
        p = _PREC["cmp"]
        text = f"{_render(lhs, names, p + 1)} {OP_SYMBOL[e.op]} {_render(rhs, names, p + 1)}"
        return _paren(text, p, prec)
    p = _PREC[e.op]
    right_assoc = e.op == "implies"
    left = _render(lhs, names, p + (1 if right_assoc else 0))
    right = _render(rhs, names, p + (0 if right_assoc else 1))
    return _paren(f"{left} {OP_SYMBOL[e.op]} {right}", p, prec)


def _paren(text: str, node_prec: int, ctx_prec: int) -> str:
    return f"({text})" if node_prec < ctx_prec else text
