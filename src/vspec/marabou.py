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

import shlex
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import BackendError
from .networks import NetworkContext
from .queries import (
    LinearConstraint,
    LinearQuery,
    MetaNetwork,
    PropertyPlan,
    QVar,
    canonical_constraint,
)
from .rational import parse_rational, render_number
from .verdicts import PropertyStatus, Sat, VERIFIED, Verdict, falsified

MANIFEST_NAME = "queries.manifest"


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
    """Emit ``query<k>.txt`` files (k from 1) plus the manifest."""
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
    meta = plan.queries[0].meta if plan.queries else MetaNetwork(())
    write_manifest(directory, meta, ctx)
    return files


# ---------------------------------------------------------------------------
# Reading emitted files back (round-trip checking and file-level verification)
# ---------------------------------------------------------------------------


def parse_constraint(line: str) -> LinearConstraint:
    for rel in ("<=", ">=", "<", ">", "="):
        marker = f" {rel} "
        if marker in line:
            lhs_text, _, rhs_text = line.partition(marker)
            break
    else:
        raise BackendError("MalformedQueryFile", f"no relation in line {line!r}")
    constant = parse_rational(rhs_text.strip())
    terms: dict[QVar, Fraction] = {}
    for raw in lhs_text.split():
        text = raw
        sign = Fraction(1)
        if text.startswith("+"):
            text = text[1:]
        elif text.startswith("-"):
            sign = Fraction(-1)
            text = text[1:]
        split = max(text.rfind("x"), text.rfind("y"))
        if split == -1:
            raise BackendError("MalformedQueryFile", f"bad term {raw!r}")
        coeff_text, kind, index_text = text[:split], text[split], text[split + 1 :]
        try:
            index = int(index_text)
        except ValueError:
            raise BackendError("MalformedQueryFile", f"bad term {raw!r}") from None
        coeff = sign * (parse_rational(coeff_text) if coeff_text else Fraction(1))
        var = QVar(kind, index)
        terms[var] = terms.get(var, Fraction(0)) + coeff
    return canonical_constraint(terms, rel, constant)


def parse_query_file(path: str | Path) -> list[LinearConstraint]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BackendError("IoError", f"cannot read {path}: {exc}", path=str(path)) from None
    return [parse_constraint(line) for line in text.splitlines() if line.strip()]


def parse_manifest(path: str | Path) -> list[tuple[str, str, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BackendError("IoError", f"cannot read {path}: {exc}", path=str(path)) from None
    entries = []
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = shlex.split(line)
        if len(parts) != 3:
            raise BackendError("MalformedQueryFile", f"bad manifest line {line!r}")
        entries.append((parts[0], parts[1], parts[2]))
    return entries


def load_query_dir(directory: str | Path, ctx: NetworkContext) -> list[LinearQuery]:
    """Reconstruct LinearQueries from an emitted directory, using the
    manifest order to rebuild the metanetwork."""
    directory = Path(directory)
    entries = parse_manifest(directory / MANIFEST_NAME)
    apps = []
    for name, _path, _digest in entries:
        info = ctx[name]
        apps.append((name, info.input_size, info.output_size))
    meta = MetaNetwork(tuple(apps))
    queries = []
    k = 1
    while (directory / f"query{k}.txt").exists():
        queries.append(LinearQuery(parse_query_file(directory / f"query{k}.txt"), meta))
        k += 1
    return queries


# ---------------------------------------------------------------------------
# Verdict interpretation
# ---------------------------------------------------------------------------


def interpret_verdicts(plan: PropertyPlan, verdicts: list[Verdict]) -> PropertyStatus:
    """Combine per-query verdicts into a property status.

    A negated (all-universal) plan is Verified iff every query is
    unsatisfiable; any satisfying assignment falsifies the property.  An
    all-existential plan is Verified iff some query is satisfiable.
    """
    if len(verdicts) != len(plan.queries):
        raise BackendError(
            "VerdictCountMismatch",
            f"{len(plan.queries)} queries but {len(verdicts)} verdicts",
        )
    if plan.negated:
        for v in verdicts:
            if isinstance(v, Sat):
                return falsified(v.witness)
        return VERIFIED
    for v in verdicts:
        if isinstance(v, Sat):
            return PropertyStatus("Verified", v.witness)
    return PropertyStatus("Falsified")
