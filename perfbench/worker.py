"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` in a fresh interpreter.  It generates the
workload's inputs, imports vspec from the checkout's ``src``, runs one
warm-up op and prints ``ready <monotonic time>``.  Unless ``--setup-only``
is given it then drives ``vspec.cli.main`` in-process, one op after the
other, and prints one JSON line with its results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Exit codes that report a diagnostic rather than an answer.
ERROR_CODES = (1, 2)


def import_vspec(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import vspec.cli

    if src not in Path(vspec.cli.__file__).resolve().parents:
        raise ImportError(f"vspec was imported from {vspec.cli.__file__}, not from {src}")
    return vspec.cli


class Runner:
    """Runs ops and keeps the per-op outcome of each."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.latencies: list[float] = []  # of successful ops
        self.attempted = 0
        self.failures: dict[str, str] = {}  # label -> first reason
        self.failed = 0
        self.wrong = 0  # failures that gave an answer, and a wrong one
        self.props: list[dict] = []

    def run(self, op: workloads.Op) -> float:
        """Run one op, check it, and return the seconds it took."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code
        except Exception as exc:  # a crash is a failed op; the run goes on
            code = type(exc).__name__
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self.props.append(op.props)
        reason = None
        if code != op.expect_code:
            reason = f"exit {code}, want {op.expect_code}"
            if code not in ERROR_CODES and isinstance(code, int):
                self.wrong += 1
            last = err.getvalue().strip().splitlines()[-1:]
            reason += f": {last[0]}" if last else ""
        else:
            try:
                op.check(out.getvalue())
            except Exception as exc:  # malformed output is a mismatch too
                reason = f"{type(exc).__name__}: {exc}"
                self.wrong += 1
        if reason is None:
            self.latencies.append(elapsed)
        else:
            self.failed += 1
            self.failures.setdefault(op.label, reason)
        return elapsed


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summarise(props: list[dict]) -> dict:
    """Instance properties of the ops run: a share for flags, a histogram otherwise."""
    out: dict = {}
    for key in sorted({k for p in props for k in p}):
        values = [p[key] for p in props if key in p]
        if all(isinstance(v, bool) for v in values):
            out[f"{key}_share"] = round(sum(values) / len(values), 4)
        else:
            hist: dict[str, int] = {}
            for v in sorted(values):
                hist[str(v)] = hist.get(str(v), 0) + 1
            out[f"{key}_histogram"] = hist
    return out


def measure(runner: Runner, wl: workloads.Workload, seconds: float) -> dict:
    """Closed loop, one client: whole blocks, in order, until ``seconds``
    have been spent inside vspec.  After the last block it starts again
    from the first."""
    spent = 0.0
    blocks = 0
    while spent < seconds or blocks == 0:
        for op in wl.blocks[blocks % len(wl.blocks)]:
            spent += runner.run(op)
        blocks += 1
    if not runner.latencies:
        raise RuntimeError(f"every op failed: {runner.failures}")
    percentile, tail_s = tail(runner.latencies)
    metrics = {
        "ops_per_s": (runner.attempted - runner.failed) / spent,
        "latency_p50_ms": 1000 * statistics.median(runner.latencies),
        "latency_tail_ms": 1000 * tail_s,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    context = {
        "blocks": blocks,
        "samples": len(runner.latencies),
        "tail_percentile": round(percentile, 2),
        "failed_frac": runner.failed / runner.attempted,
    }
    return {"metrics": metrics, "context": context}


def traced(runner: Runner, wl: workloads.Workload, seconds: float) -> dict:
    """Run the first block untraced, then traced, until ``seconds`` have passed.

    Self times are the medians over the traced repetitions; counts are
    those of one traced block, which repeat exactly.
    """
    block = wl.blocks[0]
    plain: list[float] = []
    with_trace: list[float] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not layers:
        plain.append(sum(runner.run(op) for op in block))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            took = 0.0
            for i, op in enumerate(block):
                tracer.op = f"{len(layers)}:{i}"
                took += runner.run(op)
        finally:
            tracer.uninstall()
        tracing.check_complete(tracer, wl.spans, wl.name)
        with_trace.append(took)
        layers.append(tracer.layer_metrics())
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.overhead_frac"] = statistics.median(with_trace) / statistics.median(plain) - 1
    context = {
        "repetitions": len(layers),
        "spans_per_block": len(tracer.spans),
        "free_relu_histogram": tracer.free_relu_histogram(),
    }
    return {"metrics": out, "context": context}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="small instances, for self-tests")
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.workdir, tiny=args.tiny)
    cli = import_vspec(args.root.resolve())
    os.chdir(args.workdir)
    runner = Runner(cli)
    runner.run(wl.warmup)
    if runner.failed:
        print(f"warm-up op failed: {runner.failures}", file=sys.stderr)
        return 1
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(cli)
    result = (traced if args.trace else measure)(runner, wl, args.seconds)
    result["context"].update(
        failures=runner.failures,
        instances=summarise(runner.props),
    )
    result.update(correct=runner.wrong == 0, attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
