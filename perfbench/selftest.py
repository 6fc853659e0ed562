"""Self-tests of the benchmark: its oracles, its trace guard, and a smoke
run of every workload at tiny size.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

F = Fraction


def scratch() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout."""
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def net(*units, out_bias=F(0)):
    """units: (w0, w1, b, c) for c * relu(w0 x0 + w1 x1 + b)."""
    return (
        [(F(w0), F(w1)) for w0, w1, _, _ in units],
        [F(b) for _, _, b, _ in units],
        [F(c) for _, _, _, c in units],
        F(out_bias),
    )


class Oracles(unittest.TestCase):
    def test_float32_bit_patterns(self):
        self.assertEqual(oracles.f32_value(0x3F800000), 1)
        self.assertEqual(oracles.f32_value(0xBF000000), F(-1, 2))
        self.assertEqual(oracles.f32_value(0x00000001), F(1, 2**149))
        self.assertEqual(oracles.f32_value(0x3DCCCCCD), F(13421773, 2**27))  # 0.1f
        self.assertEqual(oracles.f32_bits(0.1), 0x3DCCCCCD)

    def test_exact_max_hand_cases(self):
        lo, hi = F(-1), F(1)
        # relu(x0): largest at x0 = 1.
        self.assertEqual(oracles.exact_max_over_box(net((1, 0, 0, 1)), lo, hi)[0], 1)
        # relu(x0) - 2 relu(x0 - 1/2): a peak of 1/2 on the line x0 = 1/2.
        top, point = oracles.exact_max_over_box(net((1, 0, 0, 1), (1, 0, F(-1, 2), -2)), lo, hi)
        self.assertEqual((top, point[0]), (F(1, 2), F(1, 2)))
        # 1 - relu(x0 + x1) - relu(-x0 - x1): a ridge of height 1 on x0 = -x1.
        ridge = net((1, 1, 0, -1), (-1, -1, 0, -1), out_bias=1)
        top, point = oracles.exact_max_over_box(ridge, lo, hi)
        self.assertEqual((top, point[0] + point[1]), (1, 0))

    def test_exact_max_bounds_a_grid(self):
        rng = random.Random(7)
        for _ in range(20):
            units = [
                (F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 2), F(rng.randint(-2, 2), 4),
                 F(rng.randint(-3, 3), 2))
                for _ in range(4)
            ]  # fmt: skip
            n = net(*units)
            top, point = oracles.exact_max_over_box(n, F(-1), F(1))
            self.assertEqual(oracles.relu_net_value(n, point), top)
            grid = [F(i, 20) for i in range(-20, 21)]
            best = max(oracles.relu_net_value(n, (a, b)) for a in grid for b in grid)
            self.assertLessEqual(best, top)

    def test_controller_counterexample(self):
        # The controller fixture's documented counterexample for the zero
        # net: x0 = -9/8, x1 = 0 gives 2 x0 - x1 = -9/4, outside [-5/4, 5/4].
        x = (F(-9, 8), F(0))
        self.assertEqual(workloads.relu_net_value(workloads.ZERO_NET, x), 0)
        self.assertEqual(workloads.relu_net_value(workloads.CONTROLLER_NET, x), F(9, 4))
        self.assertTrue(workloads._controller_falsifiable(workloads.ZERO_NET, []))
        self.assertFalse(workloads._controller_falsifiable(workloads.CONTROLLER_NET, []))
        # Confining x to [0, 1/4]^2 keeps 2 x0 - x1 within [-1/4, 1/2].
        confine = [((v, rel, c), (v, rel, c)) for v in (0, 1)
                   for rel, c in ((">=", F(0)), ("<=", F(1, 4)))]  # fmt: skip
        self.assertFalse(workloads._controller_falsifiable(workloads.ZERO_NET, confine))

    def test_render_number(self):
        cases = {F(13, 4): "3.25", F(2): "2", F(1, 3): "1/3", F(-1, 2): "-0.5",
                 F(1, 1024): "0.0009765625", F(-7, 20): "-0.35"}  # fmt: skip
        for q, text in cases.items():
            self.assertEqual(oracles.render_number(q), text)

    def test_read_vclp(self):
        with scratch() as tmp:
            path = Path(tmp) / "p.vclp"
            path.write_text(
                "vclp 1\nspec s.vcl sha256:ab\nnetwork controller c.vnet sha256:cd\n"
                "property safe Falsified queries=2 verifier=builtin time=T\n"
                "witness safe x0=-9/8 x1=0/1 y0=0/1\nitp-module sha256:ef\n"
            )
            cache = oracles.read_vclp(path)
        self.assertEqual(cache["spec"], ("s.vcl", "ab"))
        self.assertEqual(cache["networks"], {"controller": ("c.vnet", "cd")})
        self.assertEqual(cache["properties"], {"safe": ("Falsified", 2)})
        self.assertEqual(cache["witness"]["safe"], {"x0": F(-9, 8), "x1": 0, "y0": 0})
        self.assertEqual(cache["itp"], "ef")

    def test_tail_has_ten_samples_beyond(self):
        percentile, value = worker.tail([float(i) for i in range(1, 101)])
        self.assertEqual((percentile, value), (90.0, 90.0))


class TraceGuard(unittest.TestCase):
    def setUp(self):
        worker.import_vspec(ROOT)

    def test_missing_name_fails(self):
        import vspec.pipeline

        original = vspec.pipeline.typecheck
        saved = tracing.TARGETS
        tracing.TARGETS = saved + (("vspec.pipeline", "no_such_stage", "nothing", None),)
        try:
            with self.assertRaises(tracing.TraceError):
                tracing.Tracer().install()
        finally:
            tracing.TARGETS = saved
        # The wrappers installed before the failure are taken out again.
        self.assertIs(vspec.pipeline.typecheck, original)

    def test_layer_that_never_fires_fails(self):
        tracer = tracing.Tracer()
        with self.assertRaises(tracing.TraceError):
            tracing.check_complete(tracer, ("verifier.lp",), "prove")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


class Smoke(unittest.TestCase):
    """Every workload at tiny size, measured and traced."""

    def run_one(self, workload: str, trace: int) -> dict:
        done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny")  # fmt: skip
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        return result

    def test_measured(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.run_one(workload, 0)
                # The 600-conjunct chain, one op per emit block, is the only
                # op expected to fail today.
                with scratch() as tmp:
                    block = len(workloads.build(workload, 3, Path(tmp), tiny=True).blocks[0])
                expected = result["attempted"] // block if workload == "emit" else 0
                self.assertEqual(result["failed"], expected)

    def test_traced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_one(workload, 1)["metrics"]
                calls = metrics["verifier.lp.calls"]["value"]
                self.assertEqual(calls == 0, workload == "emit")

    def test_fails_without_the_program(self):
        with scratch() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))  # fmt: skip
            done = bench("--workload", "prove", "--seconds", "0.2", "--tiny", cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
