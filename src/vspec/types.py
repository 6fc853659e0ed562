"""Checked types.

``Real`` is accepted in signatures and resolved to ``Rat`` immediately: the
pipeline is rational-valued throughout.  Tensor dimensions are concrete
naturals; there is no dimension polymorphism.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class VType:
    pass


@dataclass(frozen=True, slots=True)
class Scalar(VType):
    kind: str  # "Bool" | "Prop" | "Nat" | "Int" | "Rat"

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True, slots=True)
class TensorT(VType):
    elem: VType
    dims: tuple[int, ...]

    def __str__(self) -> str:
        dims = ", ".join(str(d) for d in self.dims)
        return f"Tensor {self.elem} [{dims}]"


@dataclass(frozen=True, slots=True)
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

