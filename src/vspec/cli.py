"""Command-line interface: compile, verify, check.

Exit codes form a total mapping from outcome categories:

    0  success (compile written / all requested properties Verified)
    1  compilation or verification-setup error, including expressions nested
       too deeply to compile (diagnostics on stderr)
    2  I/O error or malformed proof-cache file
    3  some property Falsified or NotChecked (witness printed)
    4  stale proof cache (a referenced file changed on disk)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import marabou, proofcache
from .agda import emit_itp_module, hash_module_text, module_name_for
from .core import print_expr
from .errors import BackendError, CacheError, VerifyError, VspecError
from .pipeline import CompiledSpec, compile_spec, parse_network_bindings
from .proofcache import PropertyRecord, ProofCacheFile, path_for_proof_file
from .rational import render_ratio
from .typecheck import MAX_NESTING
from .verdicts import NOT_CHECKED, PropertyStatus
from .verifier import DEFAULT_PHASE_BUDGET, check_query

VERIFIER_ID = "builtin"

EXIT_OK = 0
EXIT_COMPILE_ERROR = 1
EXIT_IO_ERROR = 2
EXIT_FALSIFIED = 3
EXIT_STALE = 4

# Frames the interpreter may stack while a command runs.  At the nesting
# budget the passes over a term take about 3 frames a level, and the parser
# 3 per level of parentheses and 6 per level of parenthesised ``if``.  A
# much higher limit would let recursion through generators overflow the C
# stack before Python stops it.
RECURSION_LIMIT = 20 * MAX_NESTING


def _error_exit_code(err: VspecError) -> int:
    if err.code == "StaleCache":
        return EXIT_STALE
    if err.code in ("IoError", "MalformedProofFile"):
        return EXIT_IO_ERROR
    return EXIT_COMPILE_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vspec",
        description="Compile network specifications to verifier queries, "
        "prover interface modules, and hash-linked proof caches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", required=True, help="specification source file (.vcl)")
        p.add_argument(
            "--network",
            action="append",
            default=[],
            metavar="NAME:PATH",
            help="bind a declared network to its file (repeatable)",
        )
        p.add_argument(
            "--property",
            action="append",
            default=[],
            help="restrict to the named properties (repeatable)",
        )

    compile_p = sub.add_parser("compile", help="compile the specification")
    add_spec_args(compile_p)
    compile_p.add_argument("--target", choices=["marabou", "agda"], default="marabou")
    compile_p.add_argument("--output", default="out", help="output directory")
    compile_p.add_argument(
        "--proof-file", default=None, help="proof-cache path cited by the prover module"
    )
    compile_p.add_argument(
        "--emit",
        choices=["normalised", "queries"],
        default=None,
        help="print the given compilation stage instead of writing outputs",
    )

    verify_p = sub.add_parser("verify", help="verify all properties")
    add_spec_args(verify_p)
    verify_p.add_argument("--format", choices=["text", "json"], default="text")
    verify_p.add_argument("--proof-file", default=None)
    verify_p.add_argument("--output", default="out")
    verify_p.add_argument("--phase-budget", type=int, default=DEFAULT_PHASE_BUDGET)
    verify_p.add_argument("--solver", choices=["builtin", "emit-only"], default="builtin")

    check_p = sub.add_parser("check", help="query cached verification statuses")
    check_p.add_argument("--proof-file", required=True)
    check_p.add_argument("--property", action="append", default=[])
    check_p.add_argument(
        "--module", default=None, help="prover module whose hash should be checked"
    )
    check_p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use.  Parsing copies an
    ``append`` option's default before it appends, so no call sees the
    lists of another."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, RECURSION_LIMIT))
    try:
        if args.command == "compile":
            return cmd_compile(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_check(args)
    except VspecError as err:
        print(err.diagnostic(), file=sys.stderr)
        if err.code == "PhaseBudgetExceeded":
            print(
                "hint: raise the case-split limit with --phase-budget",
                file=sys.stderr,
            )
        return _error_exit_code(err)
    except RecursionError:
        # The parser and the type checker report over-deep input with a
        # position, but inlining definitions can build a deeper term.
        err = VspecError(
            "NestingTooDeep",
            "expressions are nested too deeply to compile",
            path=getattr(args, "spec", None),
        )
        print(err.diagnostic(), file=sys.stderr)
        return EXIT_COMPILE_ERROR
    finally:
        sys.setrecursionlimit(limit)


def _load(args: argparse.Namespace) -> CompiledSpec:
    bindings = parse_network_bindings(args.network)
    compiled = compile_spec(args.spec, bindings, args.property or None)
    if not compiled.properties:
        print(
            f"{args.spec}: warning: specification declares no properties "
            "[NoPropertiesWarning]",
            file=sys.stderr,
        )
    return compiled


def _default_proof_file(spec: str) -> str:
    return str(Path(spec).with_suffix(".vclp").name)


def cmd_compile(args: argparse.Namespace) -> int:
    compiled = _load(args)
    if args.emit == "normalised":
        for name, expr in compiled.properties:
            print(f"{name} : Prop")
            print(f"{name} = {print_expr(expr)}")
        return EXIT_OK
    if args.emit == "queries":
        for plan in compiled.plans:
            print(f"property {plan.name}: {len(plan.queries)} queries")
            for k, query in enumerate(plan.queries, start=1):
                print(f"query {k}:")
                for c in query.constraints:
                    print(f"  {marabou.render_constraint(c)}")
                for a, (net, m, n) in enumerate(query.meta.applications):
                    print(
                        f"  # application {a + 1}: {net} "
                        f"x{query.meta.input_offsets[a]}..x{query.meta.input_offsets[a] + m - 1} "
                        f"-> y{query.meta.output_offsets[a]}..y{query.meta.output_offsets[a] + n - 1}"
                    )
        return EXIT_OK

    out = Path(args.output)
    if args.target == "marabou":
        for plan in compiled.plans:
            files = marabou.emit_property_queries(plan, out / plan.name, compiled.ctx)
            print(f"property {plan.name}: wrote {len(files)} queries to {out / plan.name}")
            if any(f.strict_warning for f in files):
                print(
                    f"{args.spec}: warning: strict inequalities emitted verbatim; "
                    "external solvers may weaken them [StrictRelationWarning]",
                    file=sys.stderr,
                )
        return EXIT_OK

    # --target agda
    proof_file = args.proof_file or _default_proof_file(args.spec)
    module_name = module_name_for(Path(args.spec).stem)
    module = emit_itp_module(compiled.program, proof_file, module_name)
    module_path = out / f"{module_name}.agda"
    try:
        out.mkdir(parents=True, exist_ok=True)
        module_path.write_text(module.text, encoding="utf-8")
    except OSError as exc:
        raise BackendError(
            "IoError", f"cannot write {module_path}: {exc}", path=str(module_path)
        ) from None
    print(f"wrote {module_path}")
    if Path(proof_file).exists():
        cache = proofcache.read_proof_file(proof_file)
        cache.itp_module_digest = module.digest
        proofcache.write_proof_file(cache, proof_file)
        print(f"recorded module hash in {proof_file}")
    return EXIT_OK


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def cmd_verify(args: argparse.Namespace) -> int:
    if args.phase_budget < 0:
        raise VspecError(
            "NegativePhaseBudget",
            f"--phase-budget must be at least 0, got {args.phase_budget}",
            path=args.spec,
        )
    compiled = _load(args)
    proof_file = args.proof_file or _default_proof_file(args.spec)

    statuses: list[tuple[str, PropertyStatus, int]] = []
    if args.solver == "emit-only":
        out = Path(args.output)
        for plan in compiled.plans:
            marabou.emit_property_queries(plan, out / plan.name, compiled.ctx)
            statuses.append((plan.name, NOT_CHECKED, len(plan.queries)))
    else:
        for plan in compiled.plans:
            # Queries are solved on demand, so none after the deciding SAT runs.
            verdicts = (
                check_query(q, compiled.ctx, phase_budget=args.phase_budget)
                for q in plan.queries
            )
            try:
                status = marabou.interpret_verdicts(plan, verdicts)
            except VerifyError as err:
                err.path = compiled.spec_path
                raise
            statuses.append((plan.name, status, len(plan.queries)))

    existing_digest = None
    if Path(proof_file).exists():
        try:
            existing_digest = proofcache.read_proof_file(proof_file).itp_module_digest
        except CacheError:
            existing_digest = None
    cache = ProofCacheFile(
        spec_path=path_for_proof_file(compiled.spec_path, proof_file),
        spec_digest=compiled.spec_digest,
        networks=[
            (name, path_for_proof_file(info.path, proof_file), info.digest)
            for name, info in compiled.ctx.items()
        ],
        properties=[
            PropertyRecord(name, status, count, VERIFIER_ID, _timestamp())
            for name, status, count in statuses
        ],
        itp_module_digest=existing_digest,
    )
    proofcache.write_proof_file(cache, proof_file)

    _report(statuses, args.format, proof_file)
    if args.solver == "emit-only":
        return EXIT_OK
    if all(status.kind == "Verified" for _, status, _ in statuses):
        return EXIT_OK
    return EXIT_FALSIFIED


def cmd_check(args: argparse.Namespace) -> int:
    cache = proofcache.check_all(args.proof_file)
    records = cache.properties
    if args.property:
        known = {rec.name for rec in records}
        for wanted in args.property:
            if wanted not in known:
                raise CacheError(
                    "UnknownProperty",
                    f"property {wanted!r} is not recorded in the proof cache",
                    path=args.proof_file,
                )
        records = [rec for rec in records if rec.name in set(args.property)]

    if args.module is not None:
        try:
            text = Path(args.module).read_text(encoding="utf-8")
        except OSError as exc:
            raise CacheError(
                "IoError", f"cannot read {args.module}: {exc}", path=args.module
            ) from None
        except UnicodeDecodeError:
            # The recorded module was written as UTF-8, so this one changed.
            raise CacheError(
                "StaleCache",
                f"prover module {args.module!r} changed (not valid UTF-8)",
                path=args.module,
            ) from None
        if cache.itp_module_digest is None:
            raise CacheError(
                "StaleCache",
                "the proof cache records no prover-module hash",
                path=args.proof_file,
            )
        actual = hash_module_text(text)
        if actual != cache.itp_module_digest:
            raise CacheError(
                "StaleCache",
                f"prover module {args.module!r} changed "
                f"(expected sha256:{cache.itp_module_digest}, found sha256:{actual})",
                path=args.proof_file,
            )

    statuses = [(rec.name, rec.status, rec.query_count) for rec in records]
    _report(statuses, args.format, args.proof_file)
    if not statuses:
        print(
            f"{args.proof_file}: warning: proof cache records no properties",
            file=sys.stderr,
        )
        return EXIT_OK
    if all(status.kind == "Verified" for _, status, _ in statuses):
        return EXIT_OK
    return EXIT_FALSIFIED


def _report(
    statuses: list[tuple[str, PropertyStatus, int]], fmt: str, proof_file: str
) -> None:
    if fmt == "json":
        payload = {
            "proof_file": proof_file,
            "properties": [
                {
                    "name": name,
                    "status": status.kind,
                    "queries": count,
                    "witness": {
                        str(var): render_ratio(value) for var, value in status.witness
                    },
                }
                for name, status, count in statuses
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for name, status, _count in statuses:
        print(f"{name}: {status.kind}")
        if status.kind == "Falsified" and status.witness:
            values = ", ".join(
                f"{var} = {render_ratio(value)}" for var, value in status.witness
            )
            print(f"  counterexample: {values}")


if __name__ == "__main__":
    sys.exit(main())
