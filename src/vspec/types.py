"""Checked types.

``Real`` is accepted in signatures and resolved to ``Rat`` immediately: the
pipeline is rational-valued throughout.  Tensor dimensions are concrete
naturals; there is no dimension polymorphism.
"""

from __future__ import annotations

from dataclasses import dataclass


def frozen_dataclass(cls=None, /, *, order: bool = False):
    """``dataclass(frozen=True, slots=True)`` that leaves one class behind.

    CPython 3.11 builds a slotted dataclass as a new class, which inherits
    the generated ``__setattr__`` and ``__delattr__``; their closures still
    hold the class it replaced, which so stays alive.  Their cells are
    pointed at the new class instead."""
    if cls is None:
        return lambda cls: frozen_dataclass(cls, order=order)
    new = dataclass(frozen=True, order=order, slots=True)(cls)
    for name in ("__setattr__", "__delattr__"):
        for cell in new.__dict__[name].__closure__ or ():
            if cell.cell_contents is cls:
                cell.cell_contents = new
    return new


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

