"""Benchmark of the vspec command line: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

Workloads: prove, falsify, many-queries, emit (see perfbench/README.md).
With ``--trace 0`` the last line of output holds the end-to-end metrics,
with ``--trace 1`` the per-layer ones; the line before it records the
machine, the instances run and any failures.  ``--workload all`` runs
every workload in turn and prints one table.

Set-up (generating the inputs, starting a fresh interpreter that imports
vspec, one warm-up op) is repeated in fresh processes and its median is
``setup_s``; the last of those processes goes on to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("prove", "falsify", "many-queries", "emit")
SETUPS = 5  # set-ups per measured run; a traced run sets up once
DEADLINE_S = 170  # a whole run, set-ups included


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _commit() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    """The CPU model the kernel reports; the one file read outside the checkout."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _worker(args, workdir: Path, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start one worker; return its set-up seconds and its stdout after ``ready``."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), "--root", str(ROOT),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {DEADLINE_S} s") from None
    except BaseException:  # interrupted or terminated: take the worker down too
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    first, _, rest = out.partition("\n")
    if not first.startswith("ready "):
        raise BenchError(f"worker printed {first!r} instead of ready")
    return float(first.split()[1]) - started, rest


def run(args) -> tuple[dict, dict]:
    """Set up, measure, and return (result, context)."""
    deadline = time.monotonic() + DEADLINE_S
    setups: list[float] = []
    WORK.mkdir(exist_ok=True)
    count = 1 if args.trace else SETUPS
    workdirs = [WORK / f"{os.getpid()}-{i}" for i in range(count)]
    try:
        for i, workdir in enumerate(workdirs):
            workdir.mkdir()
            seconds, rest = _worker(args, workdir, i < count - 1, deadline)
            setups.append(seconds)
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            WORK.rmdir()
    result = json.loads(rest.strip().splitlines()[-1])
    context = result.pop("context")
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        context["setup_s_each"] = setups
    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(result["metrics"]):
        raise BenchError(
            f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(units)}"
        )
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    context.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        commit=_commit(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        cpu_model=_cpu_model(),
        why={w["name"]: w["why"] for w in spec["workloads"]}.get(
            args.workload, "not listed in BENCHMARK.json; run by hand"
        ),
    )
    return result, context


def run_all(args) -> int:
    """Every workload in turn, as one table of the end-to-end metrics."""
    rows = []
    for name in WORKLOADS:
        result, context = run(argparse.Namespace(**{**vars(args), "workload": name, "trace": 0}))
        rows.append((name, result, context))
    names = list(rows[0][1]["metrics"]) + ["failed_frac"]
    print(f"{'workload':14}" + "".join(f"{n:>18}" for n in names))
    for name, result, context in rows:
        cells = [f"{m['value']:.4g} {m['unit']}" for m in result["metrics"].values()]
        cells.append(f"{context['failed_frac']:.4g} ratio")
        print(f"{name:14}" + "".join(f"{c:>18}" for c in cells))
    for name, result, context in rows:
        print(f"{name}: tail is p{context['tail_percentile']} of {context['samples']} "
              f"samples; failures {context['failures'] or 'none'}")  # fmt: skip
    return 0 if all(r["correct"] for _, r, _ in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for self-tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload == "all":
            return run_all(args)
        result, context = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
