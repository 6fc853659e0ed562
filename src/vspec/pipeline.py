"""End-to-end compilation pipeline shared by the CLI and the test suite."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from . import core, surface
from .errors import LexError, VspecError
# hash_file is unused here, but perfbench/tracing.py wraps pipeline.hash_file.
from .networks import NetworkContext, analyze_network_types, hash_file  # noqa: F401
from .normalise import prune_non_prop
from .queries import PropertyPlan, compile_property
from .typecheck import TypedProgram, typecheck


@dataclass
class CompiledSpec:
    spec_path: str
    spec_digest: str
    program: TypedProgram  # pre-analysis: network declarations intact
    ctx: NetworkContext
    properties: list[tuple[str, core.Expr]]  # normalised Prop declarations
    plans: list[PropertyPlan]


def load_program(spec_path: str | Path) -> TypedProgram:
    """Parse and type-check a specification file."""
    path = Path(spec_path)
    return _parse_spec(_read_spec(path), path)


def _read_spec(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise VspecError("IoError", f"cannot read {path}: {exc}", path=str(path)) from None


def _parse_spec(data: bytes, path: Path) -> TypedProgram:
    """Parse and type-check the bytes of a specification file, decoded as
    ``Path.read_text`` decodes them: UTF-8 with universal newlines."""
    try:
        source = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise LexError(f"file is not valid UTF-8: {exc}", path=str(path)) from None
    decls = surface.parse(source, str(path))
    return typecheck(decls, str(path))


def compile_spec(
    spec_path: str | Path,
    network_files: dict[str, str],
    property_filter: list[str] | None = None,
) -> CompiledSpec:
    """Run frontend, network analysis, normalisation and query compilation.

    An error that names no file (a query, normalisation or network-use
    error) is reported against the spec; a network file's own errors keep
    that file's path.  The spec is read once: the digest recorded is that of
    the bytes compiled."""
    path = Path(spec_path)
    try:
        data = _read_spec(path)
        program = _parse_spec(data, path)
        analysed, ctx = analyze_network_types(program, network_files)
        properties = prune_non_prop(analysed)
        # The rewritten definitions are all inlined now; free them before
        # query compilation, the largest stage.
        del analysed
        if property_filter:
            known = {name for name, _ in properties}
            for wanted in property_filter:
                if wanted not in known:
                    raise VspecError(
                        "UnknownProperty",
                        f"property {wanted!r} is not declared in the specification",
                    )
            properties = [(n, e) for n, e in properties if n in set(property_filter)]
        plans = [compile_property(name, expr, ctx) for name, expr in properties]
    except VspecError as err:
        if err.path is None:
            err.path = str(spec_path)
        raise
    return CompiledSpec(
        str(spec_path),
        hashlib.sha256(data).hexdigest(),
        program,
        ctx,
        properties,
        plans,
    )


def parse_network_bindings(bindings: list[str]) -> dict[str, str]:
    """Parse repeated ``name:path`` command-line bindings."""
    out: dict[str, str] = {}
    for binding in bindings:
        name, sep, path = binding.partition(":")
        if not sep or not name or not path:
            raise VspecError(
                "UsageError", f"network binding {binding!r} is not of the form name:path"
            )
        if name in out:
            raise VspecError(
                "UsageError", f"network {name!r} is bound more than once"
            )
        out[name] = path
    return out
