"""The benchmark's tracer (``perfbench/tracing.py``) wraps vspec functions
by module attribute; these tests keep a refactor from silently breaking
``perfbench/run.py --trace 1``."""

import importlib.util
import random
import shutil
from collections import Counter
from pathlib import Path

from test_verifier import random_search_instance
from vspec import cli
from vspec.verifier import engine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # Loaded by path under its own name: perfbench/ has an oracles.py of its
    # own, so it must not go on sys.path next to tests/.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_sees_every_solver_layer(
    tmp_path, monkeypatch, controller_spec, controller_net
):
    tracing = load_tracing()
    monkeypatch.chdir(tmp_path)
    shutil.copy(controller_spec, "controller-spec.vcl")
    shutil.copy(controller_net, "controller.vnet")
    check_query, feasible = cli.check_query, engine.feasible

    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(
            [
                "verify",
                "--spec",
                "controller-spec.vcl",
                "--network",
                "controller:controller.vnet",
                "--proof-file",
                "p.vclp",
            ]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    layers = ("cli", "surface", "lexer", "typecheck", "networks", "normalise", "queries",
              "verifier.engine", "verifier.lp", "proofcache.write")  # fmt: skip
    tracing.check_complete(tracer, layers, "controller")
    assert tracer.counts["verifier.lp.calls"] > 0
    assert cli.check_query is check_query
    assert engine.feasible is feasible


def test_tracer_sees_every_emit_layer(tmp_path, monkeypatch, controller_spec, controller_net):
    tracing = load_tracing()
    monkeypatch.chdir(tmp_path)
    shutil.copy(controller_spec, "controller-spec.vcl")
    shutil.copy(controller_net, "controller.vnet")
    spec = ["--spec", "controller-spec.vcl", "--network", "controller:controller.vnet"]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        codes = [
            cli.main(["verify", *spec, "--solver", "emit-only", "--proof-file", "p.vclp"]),
            cli.main(["compile", *spec, "--target", "agda", "--proof-file", "p.vclp"]),
            cli.main(["check", "--proof-file", "p.vclp", "--module", "out/ControllerSpec.agda"]),
        ]
    finally:
        tracer.uninstall()
    # The check reports the emit-only run's NotChecked statuses: exit 3.
    assert codes == [0, 0, 3]
    layers = ("normalise", "marabou", "agda", "proofcache.write", "proofcache.check")
    tracing.check_complete(tracer, layers, "controller")


def test_tracer_counts_every_warm_lp(tmp_path, monkeypatch, four_relu_spec, four_relu_net):
    # An all-UNSAT query with four free ReLUs: the root LP and the two warm
    # LPs of the search must all go through ``engine.feasible``, or the
    # benchmark's ``verifier.lp`` counters undercount them.
    tracing = load_tracing()
    monkeypatch.chdir(tmp_path)
    shutil.copy(four_relu_spec, "four-relu-spec.vcl")
    shutil.copy(four_relu_net, "four-relu.vnet")
    argv = ["verify", "--spec", "four-relu-spec.vcl", "--network", "net:four-relu.vnet",
            "--proof-file", "p.vclp"]  # fmt: skip

    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    tracing.check_complete(tracer, ("verifier.engine", "verifier.lp"), "four-relu")
    assert tracer.counts["verifier.engine.free_relus"] == 4
    assert tracer.counts["verifier.lp.calls"] == 3
    assert tracer.counts["verifier.lp.feasible"] == 1


def test_tracer_counts_the_free_relus_of_the_forward_pass():
    # The tracer counts free ReLUs through ``engine.unroll_meta_network``
    # and ``engine.propagate_bounds``, which are kept for it alone: they
    # must count the ReLUs that the engine's forward pass leaves free.
    tracing = load_tracing()
    rng = random.Random(20261024)
    seen = Counter()
    for _ in range(100):
        ctx, query = random_search_instance(rng)
        counts = Counter()
        tracing._count_engine(counts, (query, ctx), None)
        run = engine._forward(query.meta, ctx, engine._input_box(query))
        assert counts["verifier.engine.queries"] == 1
        assert counts["verifier.engine.free_relus"] == len(run.free)
        seen["free"] += len(run.free)
        seen["fixed and free"] += 0 < len(run.free) < len(run.phases)
    assert seen["free"] >= 100 and seen["fixed and free"] >= 10, seen


def test_tracer_counts_the_queries_solved(
    tmp_path, monkeypatch, controller_spec, controller_zero_net
):
    # The zero controller falsifies the first of the two queries, so the
    # second is never solved and the tracer must not count it.
    tracing = load_tracing()
    monkeypatch.chdir(tmp_path)
    shutil.copy(controller_spec, "controller-spec.vcl")
    shutil.copy(controller_zero_net, "controller-zero.vnet")
    argv = ["verify", "--spec", "controller-spec.vcl", "--network",
            "controller:controller-zero.vnet", "--proof-file", "p.vclp"]  # fmt: skip

    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 3
    assert tracer.counts["queries.linear_queries"] == 2
    assert tracer.counts["verifier.engine.queries"] == 1
