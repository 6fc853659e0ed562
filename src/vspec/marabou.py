"""Serialisation of linear queries to the solver's textual format.

One constraint per line::

    <term> (" " <signed term>)* <rel> <constant>

where a term is an optional coefficient directly followed by a variable
name (``y0``, ``+2x0``, ``-1x1``); a leading coefficient of one is omitted
on the first term.  Coefficients and constants render in decimal when the
denominator divides a power of 10 and as ``p/q`` otherwise.  Within a line,
output variables come first (ascending), then input variables (ascending).
Relations are ``<=``, ``>=`` and ``=``; strict ``<`` / ``>`` are emitted
verbatim (the built-in verifier decides them exactly; external solvers may
weaken them, which is reported as a warning).

A query directory holds ``query1.txt ... queryN.txt`` plus a
``queries.manifest`` sidecar with one ``name path digest`` line per network
application, in metanetwork order.
"""

from __future__ import annotations

import re
import shlex
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import BackendError
from .networks import NetworkContext
from .queries import LinearConstraint, LinearQuery, MetaNetwork, PropertyPlan
from .rational import render_number
from .verdicts import PropertyStatus, Sat, VERIFIED, Verdict, falsified

MANIFEST_NAME = "queries.manifest"
_QUERY_NAME = re.compile(r"query([1-9][0-9]*)\.txt")


@dataclass
class MarabouQueryFile:
    path: Path
    lines: list[str]
    strict_warning: bool  # file contains strict relations


def render_constraint(c: LinearConstraint) -> str:
    parts: list[str] = []
    for i, (var, coeff) in enumerate(c.terms):
        if i == 0:
            lead = "" if coeff == 1 else render_number(coeff)
            parts.append(f"{lead}{var}")
        else:
            sign = "+" if coeff > 0 else "-"
            parts.append(f"{sign}{render_number(abs(coeff))}{var}")
    return f"{' '.join(parts)} {c.relation} {render_number(c.constant)}"


def emit_query(q: LinearQuery, path: str | Path) -> MarabouQueryFile:
    """Write one query file; raises on non-linear leftovers defensively."""
    for c in q.constraints:
        if not c.terms:
            raise BackendError("NonLinearAtom", "constraint with no variable terms")
    lines = [render_constraint(c) for c in q.constraints]
    strict = any(c.relation in ("<", ">") for c in q.constraints)
    path = Path(path)
    try:
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    except OSError as exc:
        raise BackendError("IoError", f"cannot write {path}: {exc}", path=str(path)) from None
    return MarabouQueryFile(path, lines, strict)


def write_manifest(directory: str | Path, meta: MetaNetwork, ctx: NetworkContext) -> Path:
    """Write the ordered ``name path digest`` sidecar for a metanetwork."""
    path = Path(directory) / MANIFEST_NAME
    lines = []
    for name, _, _ in meta.applications:
        info = ctx[name]
        lines.append(f"{shlex.quote(name)} {shlex.quote(info.path)} {info.digest}")
    try:
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    except OSError as exc:
        raise BackendError("IoError", f"cannot write {path}: {exc}", path=str(path)) from None
    return path


def emit_property_queries(
    plan: PropertyPlan, directory: str | Path, ctx: NetworkContext
) -> list[MarabouQueryFile]:
    """Emit ``query<k>.txt`` files (k from 1) plus the manifest.

    A ``query<k>.txt`` left in the directory by an earlier emission with
    more queries is removed, so the directory holds exactly this plan's
    queries."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BackendError(
            "IoError", f"cannot create {directory}: {exc}", path=str(directory)
        ) from None
    files = [
        emit_query(q, directory / f"query{k}.txt")
        for k, q in enumerate(plan.queries, start=1)
    ]
    _remove_queries_after(directory, len(files))
    meta = plan.queries[0].meta if plan.queries else MetaNetwork(())
    write_manifest(directory, meta, ctx)
    return files


def _remove_queries_after(directory: Path, count: int) -> None:
    """Remove every ``query<k>.txt`` with ``k > count`` from ``directory``.
    Only names spelt as ``emit_property_queries`` spells them are touched."""
    try:
        stale = [
            path
            for path in directory.iterdir()
            if (match := _QUERY_NAME.fullmatch(path.name)) and int(match[1]) > count
        ]
        for path in stale:
            path.unlink()
    except OSError as exc:
        raise BackendError(
            "IoError", f"cannot remove stale queries from {directory}: {exc}",
            path=str(directory),
        ) from None


# ---------------------------------------------------------------------------
# Verdict interpretation
# ---------------------------------------------------------------------------


def interpret_verdicts(plan: PropertyPlan, verdicts: Iterable[Verdict]) -> PropertyStatus:
    """Combine per-query verdicts, read in plan order, into a property status.

    The first satisfiable query decides the property: it falsifies a negated
    (all-universal) plan and verifies an all-existential one, with its
    witness.  No verdict after it is read, so ``verdicts`` may be a generator
    that solves each query on demand.  Without one, a negated plan is
    Verified and an existential plan Falsified.
    """
    count = 0
    for v in verdicts:
        if isinstance(v, Sat):
            if plan.negated:
                return falsified(v.witness)
            return PropertyStatus("Verified", v.witness)
        count += 1
    if count != len(plan.queries):
        raise BackendError(
            "VerdictCountMismatch",
            f"{len(plan.queries)} queries but {count} verdicts",
        )
    return VERIFIED if plan.negated else PropertyStatus("Falsified")
