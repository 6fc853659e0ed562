"""Proof-cache files (.vclp): verification verdicts bound to content hashes.

Line-oriented text format, canonically serialised (networks and properties
sorted by name, rationals rendered ``p/q``, paths shell-quoted) so the file
itself is hash-stable::

    vclp 1
    spec <path> sha256:<hex>
    network <name> <path> sha256:<hex>
    property <name> <Verified|Falsified|NotChecked> queries=<n> verifier=<id> time=<rfc3339-utc>
    witness <name> <var>=<p/q> ...
    itp-module sha256:<hex>

Relative spec and network paths are relative to the proof file's own
directory, so a cache can be checked from any working directory.  Status
checks recompute the digests of the referenced spec and network files; any
mismatch is reported as a stale cache instead of silently re-verifying.
This module deliberately has no reference to the verifier:
a status query can never trigger verification.
"""

from __future__ import annotations

import contextlib
import os
import re
import shlex
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import CacheError
from .networks import hash_file
from .queries import QVar
from .rational import render_ratio
from .verdicts import PropertyStatus

FORMAT_VERSION = 1

# A word between runs of shlex's whitespace; ``str.split`` also splits on
# ``\x0b``, ``\xa0`` and other Unicode spaces.
_SHLEX_WORD = re.compile(r"[^ \t\r\n]+")


@dataclass
class PropertyRecord:
    name: str
    status: PropertyStatus
    query_count: int
    verifier_id: str
    timestamp: str  # RFC-3339 UTC


@dataclass
class ProofCacheFile:
    spec_path: str
    spec_digest: str
    networks: list[tuple[str, str, str]]  # (name, path, digest)
    properties: list[PropertyRecord]
    itp_module_digest: str | None = None
    format_version: int = FORMAT_VERSION


def render_proof_file(cache: ProofCacheFile) -> str:
    lines = [f"vclp {cache.format_version}"]
    lines.append(f"spec {shlex.quote(cache.spec_path)} sha256:{cache.spec_digest}")
    for name, path, digest in sorted(cache.networks):
        lines.append(f"network {shlex.quote(name)} {shlex.quote(path)} sha256:{digest}")
    for rec in sorted(cache.properties, key=lambda r: r.name):
        lines.append(
            f"property {shlex.quote(rec.name)} {rec.status.kind} "
            f"queries={rec.query_count} verifier={shlex.quote(rec.verifier_id)} "
            f"time={rec.timestamp}"
        )
        if rec.status.witness:
            values = " ".join(
                f"{var}={render_ratio(value)}" for var, value in rec.status.witness
            )
            lines.append(f"witness {shlex.quote(rec.name)} {values}")
    if cache.itp_module_digest is not None:
        lines.append(f"itp-module sha256:{cache.itp_module_digest}")
    return "".join(line + "\n" for line in lines)


def path_for_proof_file(path: str, proof_path: str | Path) -> str:
    """``path`` (relative to the working directory) as recorded in the proof
    cache at ``proof_path``: relative to the proof file's directory.
    Absolute paths, and every path when the proof file sits in the working
    directory, are recorded unchanged."""
    base = Path(proof_path).parent
    if Path(path).is_absolute() or base == Path("."):
        return path
    return os.path.relpath(path, os.path.realpath(base))


def write_proof_file(cache: ProofCacheFile, path: str | Path) -> None:
    """Atomic write (temp file + rename) of the canonical serialisation."""
    path = Path(path)
    text = render_proof_file(cache)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".vclp.tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:  # the temp file was made: remove it
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise CacheError("IoError", f"cannot write {path}: {exc}", path=str(path)) from None


def _parse_digest(token: str, path: str) -> str:
    if not token.startswith("sha256:"):
        raise CacheError(
            "MalformedProofFile", f"expected sha256:<hex>, found {token!r}", path=path
        )
    return token[len("sha256:") :]


def _parse_witness(parts: list[str], path: str) -> tuple[tuple[QVar, Fraction], ...]:
    pairs = []
    for item in parts:
        name, _, value = item.partition("=")
        if not value or name[:1] not in ("x", "y"):
            raise CacheError(
                "MalformedProofFile", f"bad witness entry {item!r}", path=path
            )
        try:
            var = QVar(name[0], int(name[1:]))
            num, _, den = value.partition("/")
            pairs.append((var, Fraction(int(num), int(den or "1"))))
        except (ValueError, ZeroDivisionError):
            raise CacheError(
                "MalformedProofFile", f"bad witness entry {item!r}", path=path
            ) from None
    return tuple(pairs)


def _split(line: str, path: Path) -> list[str]:
    """``shlex.split(line)``; a line with no quote or escape, which shlex
    splits on its whitespace alone, skips its per-character lexer."""
    if "'" not in line and '"' not in line and "\\" not in line:
        return _SHLEX_WORD.findall(line)
    try:
        return shlex.split(line)
    except ValueError as exc:
        raise CacheError("MalformedProofFile", str(exc), path=str(path)) from None


def read_proof_file(path: str | Path) -> ProofCacheFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(
            "MalformedProofFile", f"cannot read {path}: {exc}", path=str(path)
        ) from None

    spec_path = spec_digest = None
    networks: list[tuple[str, str, str]] = []
    properties: list[PropertyRecord] = []
    itp_digest: str | None = None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].split() != ["vclp", str(FORMAT_VERSION)]:
        raise CacheError(
            "MalformedProofFile", "missing or unsupported 'vclp 1' header", path=str(path)
        )
    for line in lines[1:]:
        parts = _split(line, path)
        keyword, args = parts[0], parts[1:]
        if keyword == "spec" and len(args) == 2:
            spec_path = args[0]
            spec_digest = _parse_digest(args[1], str(path))
        elif keyword == "network" and len(args) == 3:
            networks.append((args[0], args[1], _parse_digest(args[2], str(path))))
        elif keyword == "property" and len(args) >= 2:
            fields = dict(
                item.split("=", 1) for item in args[2:] if "=" in item
            )
            kind = args[1]
            if kind not in ("Verified", "Falsified", "NotChecked"):
                raise CacheError(
                    "MalformedProofFile", f"unknown status {kind!r}", path=str(path)
                )
            try:
                count = int(fields.get("queries", "0"))
            except ValueError:
                raise CacheError(
                    "MalformedProofFile", f"bad query count in {line!r}", path=str(path)
                ) from None
            properties.append(
                PropertyRecord(
                    args[0],
                    PropertyStatus(kind),
                    count,
                    fields.get("verifier", ""),
                    fields.get("time", ""),
                )
            )
        elif keyword == "witness" and len(args) >= 1:
            witness = _parse_witness(args[1:], str(path))
            for i, rec in enumerate(properties):
                if rec.name == args[0]:
                    properties[i] = PropertyRecord(
                        rec.name,
                        PropertyStatus(rec.status.kind, witness),
                        rec.query_count,
                        rec.verifier_id,
                        rec.timestamp,
                    )
                    break
            else:
                raise CacheError(
                    "MalformedProofFile",
                    f"witness for unknown property {args[0]!r}",
                    path=str(path),
                )
        elif keyword == "itp-module" and len(args) == 1:
            itp_digest = _parse_digest(args[0], str(path))
        else:
            raise CacheError(
                "MalformedProofFile", f"unrecognised line {line!r}", path=str(path)
            )
    if spec_path is None or spec_digest is None:
        raise CacheError("MalformedProofFile", "missing spec line", path=str(path))
    return ProofCacheFile(spec_path, spec_digest, networks, properties, itp_digest)


def verify_digests(cache: ProofCacheFile, proof_path: str | Path) -> None:
    """Recompute the spec and network digests, resolving relative paths
    against the proof file's directory; raise StaleCache on the first
    mismatch or missing file."""

    base = Path(proof_path).parent

    def check(label: str, recorded: str, expected: str) -> None:
        file_path = str(base / recorded)  # an absolute path stays as it is
        if not Path(file_path).exists():
            raise CacheError(
                "StaleCache",
                f"{label}: file {file_path!r} referenced by the proof cache is missing",
                path=str(proof_path),
            )
        actual = hash_file(file_path)
        if actual != expected:
            raise CacheError(
                "StaleCache",
                f"{label}: {file_path!r} changed on disk "
                f"(expected sha256:{expected}, found sha256:{actual})",
                path=str(proof_path),
            )

    check("spec", cache.spec_path, cache.spec_digest)
    for name, file_path, digest in cache.networks:
        check(f"network {name!r}", file_path, digest)


def check_all(proof_path: str | Path) -> ProofCacheFile:
    """Read the proof cache and check its digests; never runs verification."""
    cache = read_proof_file(proof_path)
    verify_digests(cache, proof_path)
    return cache
