"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py``)."""

import random
import shutil
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from generators import close_over, disjunction_agrees, tractable_formula
from oracles import constraint_holds, grid_oracle, run_network_by_hand
from vspec import cli, core
from vspec.agda import emit_itp_module
from vspec.networks import (
    Affine,
    NetworkInfo,
    NetworkModel,
    Relu,
    analyze_network_types,
)
from vspec.normalise import prune_non_prop
from vspec.pipeline import load_program
from vspec.proofcache import read_proof_file
from vspec.queries import (
    LinearConstraint,
    LinearQuery,
    MetaNetwork,
    QVar,
    compile_property,
    to_dnf,
)
from vspec.surface import parse
from vspec.typecheck import typecheck
from vspec.types import RAT, FunT, TensorT
from vspec.verdicts import Sat, Unsat
from vspec.verifier import check_query

GOLDEN = Path(__file__).parent / "golden" / "ControllerSpec.agda"


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def compiled_controller(controller_spec, controller_net):
    program = load_program(str(controller_spec))
    analysed, ctx = analyze_network_types(program, {"controller": str(controller_net)})
    [(name, prop)] = prune_non_prop(analysed)
    return name, prop, ctx


@pytest.fixture
def workspace(tmp_path, monkeypatch, controller_spec, controller_net, controller_zero_net):
    monkeypatch.chdir(tmp_path)
    shutil.copy(controller_spec, tmp_path / "controller-spec.vcl")
    shutil.copy(controller_net, tmp_path / "controller.vnet")
    shutil.copy(controller_zero_net, tmp_path / "controller-zero.vnet")
    return tmp_path


# -- criterion 1 ---------------------------------------------------------------


def test_c1_golden_pipeline_reproduction(controller_spec, controller_net):
    with criterion(1, "golden pipeline reproduction", 1.0):
        name, prop, ctx = compiled_controller(controller_spec, controller_net)

        # Stage 1: normalised form, compared as constraint sets with exact
        # rational equality (bounds read as -3.25 <= p <= 3.25).
        body, binders = prop, []
        while isinstance(body, core.Quant):
            binders.append(body.binder)
            body = body.body
        assert binders == ["x_0", "x_1"]
        assert isinstance(body, core.Builtin) and body.op == "implies"

        def atoms_of(e):
            if isinstance(e, core.Builtin) and e.op == "and":
                return atoms_of(e.args[0]) + atoms_of(e.args[1])
            return [e]

        p0, p1 = core.Var(1), core.Var(0)
        bound = Fraction(13, 4)
        net_term = core.Index(
            core.NetworkApp("controller", core.TensorLit((p0, p1))), core.NatLit(0)
        )
        response = core.Builtin(
            "sub",
            (
                core.Builtin(
                    "add",
                    (net_term, core.Builtin("mul", (core.RatLit(Fraction(2)), p0))),
                ),
                p1,
            ),
        )

        def le(a, b):
            return core.Builtin("le", (a, b), "prop")

        expected_antecedent = {
            le(core.RatLit(-bound), p0),
            le(p0, core.RatLit(bound)),
            le(core.RatLit(-bound), p1),
            le(p1, core.RatLit(bound)),
        }
        expected_consequent = {
            le(core.RatLit(Fraction(-5, 4)), response),
            le(response, core.RatLit(Fraction(5, 4))),
        }
        assert set(atoms_of(body.args[0])) == expected_antecedent
        assert set(atoms_of(body.args[1])) == expected_consequent

        # Stage 2: exactly two existential queries, one per side of the
        # negated response bound (... < -1.25 and ... > 1.25).
        plan = compile_property(name, prop, ctx)
        assert plan.negated and plan.polarity == "AllForall"
        assert len(plan.queries) == 2

        # Stage 3: relational form over x0, x1, y0 with exact rationals.
        box = {
            LinearConstraint(((QVar("x", 0), Fraction(1)),), ">=", -bound),
            LinearConstraint(((QVar("x", 0), Fraction(1)),), "<=", bound),
            LinearConstraint(((QVar("x", 1), Fraction(1)),), ">=", -bound),
            LinearConstraint(((QVar("x", 1), Fraction(1)),), "<=", bound),
        }
        mixed = (
            (QVar("y", 0), Fraction(1)),
            (QVar("x", 0), Fraction(2)),
            (QVar("x", 1), Fraction(-1)),
        )
        q1, q2 = plan.queries
        assert set(q1.constraints) == box | {
            LinearConstraint(mixed, "<", Fraction(-5, 4))
        }
        assert set(q2.constraints) == box | {
            LinearConstraint(mixed, ">", Fraction(5, 4))
        }


# -- criterion 2 ---------------------------------------------------------------


def test_c2_end_to_end_verified_run(workspace, monkeypatch, capsys):
    with criterion(2, "end-to-end verified run", 5.0):
        from vspec.verifier import engine

        lp_calls = []
        original = engine.feasible

        def counting(problem):
            lp_calls.append(1)
            return original(problem)

        monkeypatch.setattr(engine, "feasible", counting)
        code = cli.main(
            [
                "verify",
                "--spec",
                "controller-spec.vcl",
                "--network",
                "controller:controller.vnet",
                "--proof-file",
                "controller-spec.vclp",
            ]
        )
        assert code == 0
        assert len(lp_calls) <= 256
        cache = read_proof_file("controller-spec.vclp")
        assert cache.properties[0].status.kind == "Verified"

        def banned(*args, **kwargs):
            raise AssertionError("check must not re-verify")

        monkeypatch.setattr(cli, "check_query", banned)
        capsys.readouterr()
        assert cli.main(["check", "--proof-file", "controller-spec.vclp"]) == 0
        assert "safe: Verified" in capsys.readouterr().out


# -- criterion 3 ---------------------------------------------------------------


def test_c3_end_to_end_falsified_run(workspace, capsys, controller_spec, controller_zero_net):
    with criterion(3, "end-to-end falsified run", 5.0):
        code = cli.main(
            [
                "verify",
                "--spec",
                "controller-spec.vcl",
                "--network",
                "controller:controller-zero.vnet",
                "--proof-file",
                "zero.vclp",
            ]
        )
        assert code == 3
        cache = read_proof_file("zero.vclp")
        record = cache.properties[0]
        assert record.status.kind == "Falsified"

        # The recorded witness satisfies every constraint of one query under
        # exact rational substitution.
        name, prop, ctx = compiled_controller(controller_spec, controller_zero_net)
        plan = compile_property(name, prop, ctx)
        values = dict(record.status.witness)
        model = ctx["controller"].model
        inputs = [values[QVar("x", 0)], values[QVar("x", 1)]]
        assert run_network_by_hand(model.layers, inputs) == [values[QVar("y", 0)]]
        assert any(
            all(constraint_holds(c, values) for c in q.constraints)
            for q in plan.queries
        )

        # Independently confirmed by the grid oracle, which finds a witness
        # such as x = 13/4, y = -13/4 where 2x - y = 39/4 > 5/4.
        oracle_hits = [grid_oracle(q, ctx, resolution=2) for q in plan.queries]
        assert any(hit is not None for hit in oracle_hits)
        hit = next(h for h in oracle_hits if h is not None)
        hit_values = dict(hit.witness)
        two_x_minus_y = 2 * hit_values[QVar("x", 0)] - hit_values[QVar("x", 1)]
        assert abs(two_x_minus_y) > Fraction(5, 4)


# -- criterion 4 ---------------------------------------------------------------


def test_c4_verifier_oracle_agreement():
    with criterion(4, "verifier/oracle agreement (200 instances)", 60.0):
        rng = random.Random(20260809)
        disagreements = 0
        sat_checked = 0
        for _ in range(200):
            n_in = rng.randint(1, 2)
            hidden = rng.randint(1, 6)
            w1 = tuple(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(n_in))
                for _ in range(hidden)
            )
            b1 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(hidden))
            w2 = (tuple(Fraction(rng.randint(-3, 3)) for _ in range(hidden)),)
            b2 = (Fraction(rng.randint(-3, 3)),)
            model = NetworkModel(
                "f", n_in, 1, (Affine(w1, b1), Relu(hidden), Affine(w2, b2))
            )
            ctx = {
                "f": NetworkInfo(
                    model,
                    FunT(TensorT(RAT, (n_in,)), TensorT(RAT, (1,))),
                    "<memory>",
                    "0" * 64,
                )
            }
            meta = MetaNetwork((("f", n_in, 1),))
            constraints = []
            for i in range(n_in):
                lo = rng.randint(-4, 2)
                hi = lo + rng.randint(1, 5)
                constraints.append(
                    LinearConstraint(((QVar("x", i), Fraction(1)),), ">=", Fraction(lo))
                )
                constraints.append(
                    LinearConstraint(((QVar("x", i), Fraction(1)),), "<=", Fraction(hi))
                )
            terms = {QVar("y", 0): Fraction(rng.choice((-2, -1, 1, 2)))}
            if rng.random() < 0.5:
                coeff = rng.randint(-2, 2)
                if coeff:
                    terms[QVar("x", 0)] = Fraction(coeff)
            rel = rng.choice(["<=", "<", ">=", ">"])
            ordered = tuple(sorted(terms.items(), key=lambda t: (t[0].kind, t[0].index)))
            constraints.append(
                LinearConstraint(ordered, rel, Fraction(rng.randint(-8, 8)))
            )
            query = LinearQuery(constraints, meta)

            verdict = check_query(query, ctx)
            oracle = grid_oracle(query, ctx, resolution=5)
            if isinstance(verdict, Unsat) and oracle is not None:
                disagreements += 1
            if isinstance(verdict, Sat):
                sat_checked += 1
                values = dict(verdict.witness)
                assert all(constraint_holds(c, values) for c in query.constraints)
                inputs = [values[QVar("x", i)] for i in range(n_in)]
                assert run_network_by_hand(model.layers, inputs) == [values[QVar("y", 0)]]
        assert disagreements == 0
        assert sat_checked > 0  # the sweep exercises both verdicts


# -- criterion 5 ---------------------------------------------------------------


def test_c5_semantic_preservation_suite():
    with criterion(5, "semantic preservation (500 properties)", 30.0):
        rng = random.Random(2026)
        mismatches = 0
        for _ in range(500):
            n_vars = rng.randint(1, 4)
            matrix = tractable_formula(rng, n_vars, rng.randint(1, 5), cap=800, negate=True)
            disjuncts = to_dnf(close_over(matrix, n_vars), True)
            if not disjunction_agrees(disjuncts, matrix, rng, n_vars, 200, negate=True):
                mismatches += 1
        assert mismatches == 0


# -- criterion 6 ---------------------------------------------------------------


def test_c6_metanetwork_labelling(tmp_path):
    with criterion(6, "metanetwork labelling", 5.0):
        f_net = tmp_path / "f.vnet"
        f_net.write_text("vnet 1\ninput 2\naffine 1 2\n1 1\n0\n")
        g_net = tmp_path / "g.vnet"
        g_net.write_text("vnet 1\ninput 3\naffine 2 3\n1 0 0\n0 0 1\n0 0\n")
        source = (
            "network f : Tensor Rat [2] -> Tensor Rat [1]\n\n"
            "network g : Tensor Rat [3] -> Tensor Rat [2]\n\n"
            "p : Prop\n"
            "p = exists (a : Tensor Rat [2]) (b : Tensor Rat [2]) (c : Tensor Rat [3]) . "
            "f a ! 0 <= f b ! 0 and g c ! 0 <= g c ! 1"
        )
        program = typecheck(parse(source))
        analysed, ctx = analyze_network_types(
            program, {"f": str(f_net), "g": str(g_net)}
        )
        [(name, prop)] = prune_non_prop(analysed)
        plan = compile_property(name, prop, ctx)
        [query] = plan.queries
        m_f, n_f = 2, 1
        assert query.meta.applications == (("f", 2, 1), ("f", 2, 1), ("g", 3, 2))
        assert query.meta.input_offsets == (0, m_f, 2 * m_f)
        assert query.meta.output_offsets == (0, n_f, 2 * n_f)

        # Monotonicity: forall x1 x2 . x1 <= x2 => f [x1] ! 0 <= f [x2] ! 0
        mono_net = tmp_path / "mono.vnet"
        mono_net.write_text("vnet 1\ninput 1\naffine 1 1\n1\n0\n")
        mono_source = (
            "network h : Tensor Rat [1] -> Tensor Rat [1]\n\n"
            "mono : Prop\nmono = forall x1 x2 . x1 <= x2 => h [x1] ! 0 <= h [x2] ! 0"
        )
        mono_program = typecheck(parse(mono_source))
        mono_analysed, mono_ctx = analyze_network_types(
            mono_program, {"h": str(mono_net)}
        )
        [(mono_name, mono_prop)] = prune_non_prop(mono_analysed)
        mono_plan = compile_property(mono_name, mono_prop, mono_ctx)
        [mono_query] = mono_plan.queries
        assert len(mono_query.meta.applications) == 2
        used = {var for c in mono_query.constraints for var, _ in c.terms}
        assert used == {QVar("x", 0), QVar("x", 1), QVar("y", 0), QVar("y", 1)}


# -- criterion 7 ---------------------------------------------------------------


def test_c7_hash_integrity_under_mutation(workspace):
    with criterion(7, "hash integrity (100 mutations)", 30.0):
        code = cli.main(
            [
                "verify",
                "--spec",
                "controller-spec.vcl",
                "--network",
                "controller:controller.vnet",
                "--proof-file",
                "controller-spec.vclp",
            ]
        )
        assert code == 0
        original = (workspace / "controller.vnet").read_bytes()
        rng = random.Random(7)
        stale = 0
        for _ in range(100):
            data = bytearray(original)
            index = rng.randrange(len(data))
            data[index] ^= 1 << rng.randrange(8)
            (workspace / "controller.vnet").write_bytes(bytes(data))
            if cli.main(["check", "--proof-file", "controller-spec.vclp"]) == 4:
                stale += 1
        (workspace / "controller.vnet").write_bytes(original)
        assert stale == 100


# -- criterion 8 ---------------------------------------------------------------


def test_c8_itp_golden_file(controller_spec):
    with criterion(8, "prover module golden file", 5.0):
        program = load_program(str(controller_spec))
        module = emit_itp_module(program, "out/controller-spec.vclp", "ControllerSpec")
        golden = GOLDEN.read_text(encoding="utf-8")
        assert module.text == golden
        assert "postulate controller : InputVector → ℚ" in module.text
        assert "abstract" in module.text
        assert 'propertyFile = "out/controller-spec.vclp"' in module.text
        assert 'propertyName = "safe"' in module.text
        assert "ℤ.+ 13 ℚ./ 4" in module.text
