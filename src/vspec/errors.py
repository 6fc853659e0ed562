"""Error types and diagnostic rendering shared across the compiler.

Every error carries a stable machine-readable ``code`` (e.g. ``TypeMismatch``,
``StaleCache``) plus an optional source position, and renders to the
one-per-line diagnostic format ``file:line:col: severity: message``.
"""

from __future__ import annotations

from typing import NamedTuple


class SourcePos(NamedTuple):
    """1-based line/column position in a source file."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class VspecError(Exception):
    """Base class for all compiler and tool errors."""

    def __init__(
        self,
        code: str,
        message: str,
        *,
        path: str | None = None,
        pos: SourcePos | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.path = path
        self.pos = pos

    def diagnostic(self) -> str:
        """Render as ``file:line:col: severity: message``."""
        prefix = self.path if self.path is not None else "<input>"
        if self.pos is not None:
            prefix = f"{prefix}:{self.pos.line}:{self.pos.column}"
        return f"{prefix}: error: {self.message} [{self.code}]"

    def __str__(self) -> str:
        return self.diagnostic()


class LexError(VspecError):
    def __init__(self, message: str, *, path: str | None = None, pos: SourcePos | None = None):
        super().__init__("LexError", message, path=path, pos=pos)


class ParseError(VspecError):
    def __init__(self, message: str, *, path: str | None = None, pos: SourcePos | None = None):
        super().__init__("ParseError", message, path=path, pos=pos)


class TypeCheckError(VspecError):
    """Raised by the type checker; ``code`` is one of TypeMismatch,
    IfConditionNotBool, PropInBoolPosition, UnknownIdentifier,
    UnsupportedQuantifierType, NestingTooDeep.

    NestingTooDeep marks an expression nested deeper than the budget
    ``typecheck.MAX_NESTING``, at the position where inference passed it.
    ``surface.parse`` gives the same code, at the token it had reached, to
    input nested several times deeper than the budget, which runs out of
    parser frames first (about 6,650 levels of parentheses under the
    CLI).  The CLI gives it, with no position, to a ``RecursionError`` in
    a later pass, such as on a term that inlining definitions made deeper
    than the budget."""


class NetworkError(VspecError):
    """Raised while loading or validating network files; ``code`` is one of
    UnsupportedFormat, MalformedNetworkFile, UnsupportedOperator,
    MalformedProtobuf, NonFloatTensor, NaNOrInfWeight, NetworkTypeMismatch,
    UnsupportedNetworkType, MissingNetworkFile, PartialNetworkApplication,
    NetworkUsedAsValue, IoError."""


class NormaliseError(VspecError):
    """Raised during normalisation; ``code`` is one of IndexOutOfBounds,
    DivisionByZero, NonLiteralIndex."""


class QueryError(VspecError):
    """Raised during query compilation; ``code`` is one of MixedQuantifiers,
    IfConditionContainsNetwork, UnresolvableUserVariable, NonLinearAtom,
    IndexOutOfBounds."""


class BackendError(VspecError):
    """Raised by output backends; ``code`` is one of NonLinearAtom,
    VerdictCountMismatch, UnrenderableConstruct, IoError."""


class VerifyError(VspecError):
    """Raised by the built-in verifier; ``code`` is PhaseBudgetExceeded."""


class CacheError(VspecError):
    """Raised by the proof cache; ``code`` is one of StaleCache,
    UnknownProperty, MalformedProofFile, IoError."""
