"""Verdicts and property statuses shared by backends, the built-in
verifier, and the proof cache."""

from __future__ import annotations

from fractions import Fraction

from .queries import QVar
from .types import frozen_dataclass


@frozen_dataclass
class Sat:
    """Satisfiable, with an exact witness over relational variables."""

    witness: tuple[tuple[QVar, Fraction], ...]


@frozen_dataclass
class Unsat:
    pass


Verdict = Sat | Unsat


@frozen_dataclass
class PropertyStatus:
    """Outcome for one property: Verified, Falsified (with witness), or
    NotChecked."""

    kind: str  # "Verified" | "Falsified" | "NotChecked"
    witness: tuple[tuple[QVar, Fraction], ...] = ()

    def __str__(self) -> str:
        return self.kind


VERIFIED = PropertyStatus("Verified")
NOT_CHECKED = PropertyStatus("NotChecked")


def falsified(witness: tuple[tuple[QVar, Fraction], ...]) -> PropertyStatus:
    return PropertyStatus("Falsified", witness)
