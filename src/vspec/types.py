"""Checked types.

``Real`` is accepted in signatures and resolved to ``Rat`` immediately: the
pipeline is rational-valued throughout.  Tensor dimensions are concrete
naturals; there is no dimension polymorphism.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import MISSING, dataclass, fields

from .errors import NetworkError


def frozen_dataclass(cls=None, /, *, order: bool = False):
    """``dataclass(frozen=True, slots=True)`` with a faster ``__init__``,
    that leaves one class behind.

    The ``__init__`` is generated here instead of by ``dataclass``: it
    stores each field through its slot's member descriptor, which skips
    the ``object.__setattr__`` call per field of the frozen original.

    CPython 3.11 builds a slotted dataclass as a new class, which inherits
    the generated ``__setattr__`` and ``__delattr__``; their closures still
    hold the class it replaced, which so stays alive.  Their cells are
    pointed at the new class instead."""
    if cls is None:
        return lambda cls: frozen_dataclass(cls, order=order)
    # ``dataclass`` documents a class that has no docstring by its
    # ``__init__`` signature, which with ``init=False`` would be the
    # inherited one: hold a placeholder, and write the text once the
    # generated ``__init__`` is in place.
    auto_doc = cls.__doc__ is None
    if auto_doc:
        cls.__doc__ = "?"
    new = dataclass(frozen=True, order=order, slots=True, init=False)(cls)
    for name in ("__setattr__", "__delattr__"):
        for cell in new.__dict__[name].__closure__ or ():
            if cell.cell_contents is cls:
                cell.cell_contents = new
    new.__init__ = _slot_init(new)
    if auto_doc:
        new.__doc__ = new.__name__ + str(inspect.signature(new)).replace(" -> None", "")
    return new


def _slot_init(cls: type):
    """The ``__init__`` of a frozen slotted dataclass: the signature that
    ``dataclass`` would give it, each field stored by ``Cls.field.__set__``."""
    params, body = [], []
    scope = {}
    cls_fields = fields(cls)
    for f in cls_fields:
        if f.default_factory is not MISSING or not f.init:
            raise TypeError(f"{cls.__qualname__}.{f.name}: only plain defaults are supported")
        scope[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
        body.append(f"  _set_{f.name}(self, {f.name})")
    text = (
        f"def __create_fn__({', '.join(scope)}):\n"
        f" def __init__(self, {', '.join(params)}):\n"
        + ("\n".join(body) or "  pass")
        + "\n return __init__"
    )
    namespace: dict = {}
    exec(text, sys.modules[cls.__module__].__dict__, namespace)
    init = namespace["__create_fn__"](**scope)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in cls_fields} | {"return": None}
    return init


@frozen_dataclass
class VType:
    pass


@frozen_dataclass
class Scalar(VType):
    kind: str  # "Bool" | "Prop" | "Nat" | "Int" | "Rat"

    def __str__(self) -> str:
        return self.kind


@frozen_dataclass
class TensorT(VType):
    elem: VType
    dims: tuple[int, ...]

    def __str__(self) -> str:
        dims = ", ".join(str(d) for d in self.dims)
        return f"Tensor {self.elem} [{dims}]"


@frozen_dataclass
class FunT(VType):
    dom: VType
    cod: VType

    def __str__(self) -> str:
        dom = f"({self.dom})" if isinstance(self.dom, FunT) else str(self.dom)
        return f"{dom} -> {self.cod}"


BOOL = Scalar("Bool")
PROP = Scalar("Prop")
NAT = Scalar("Nat")
INT = Scalar("Int")
RAT = Scalar("Rat")

NUMERIC_KINDS = ("Nat", "Int", "Rat")


def is_numeric(t: VType) -> bool:
    return isinstance(t, Scalar) and t.kind in NUMERIC_KINDS


def network_type(name: str, t: VType) -> tuple[FunT, int | None, bool]:
    """The shape rule for the declared type ``t`` of network ``name``.

    Returns the tensor form ``Tensor A [m] -> Tensor B [n]`` that the
    network's file must implement; the argument count k of the curried
    scalar sugar ``A -> ... -> A -> B`` (None for one tensor argument),
    whose application ``f x1 ... xk`` is ``f [x1, ..., xk] ! 0``; and
    whether an application is taken at index 0, which it is when the
    declared codomain is a scalar.  Any other type is
    ``UnsupportedNetworkType``.
    """

    def unsupported(msg: str) -> NetworkError:
        return NetworkError("UnsupportedNetworkType", f"network {name!r}: {msg}")

    if not isinstance(t, FunT):
        raise unsupported(f"type {t} is not a function type")

    if isinstance(t.dom, TensorT):
        dom = t.dom
        if len(dom.dims) != 1:
            raise unsupported("input tensor must be one-dimensional")
        cod = t.cod
        if isinstance(cod, TensorT):
            if len(cod.dims) != 1:
                raise unsupported("output tensor must be one-dimensional")
            return FunT(dom, cod), None, False
        if isinstance(cod, Scalar) and is_numeric(cod):
            return FunT(dom, TensorT(cod, (1,))), None, True
        raise unsupported(f"unsupported codomain {cod}")

    # Curried scalar sugar: A -> ... -> A -> B
    if isinstance(t.dom, Scalar) and is_numeric(t.dom):
        elem = t.dom
        k = 0
        cur: VType = t
        while isinstance(cur, FunT):
            if cur.dom != elem:
                raise unsupported("curried arguments must all have the same scalar type")
            k += 1
            cur = cur.cod
        if not (isinstance(cur, Scalar) and is_numeric(cur)):
            raise unsupported(f"unsupported codomain {cur}")
        return FunT(TensorT(elem, (k,)), TensorT(cur, (1,))), k, True
    raise unsupported(f"unsupported domain {t.dom}")
