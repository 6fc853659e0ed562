import shlex
from fractions import Fraction

import pytest

from oracles import read_query_file_by_hand
from vspec.cli import main
from vspec.errors import BackendError
from vspec.marabou import (
    emit_property_queries,
    emit_query,
    interpret_verdicts,
    render_constraint,
)
from vspec.networks import analyze_network_types
from vspec.normalise import prune_non_prop
from vspec.queries import (
    LinearQuery,
    MetaNetwork,
    PropertyPlan,
    QVar,
    compile_property,
)
from vspec.surface import parse
from vspec.typecheck import typecheck
from vspec.verdicts import Sat, Unsat


def lc(terms, rel, rhs):
    from vspec.queries import canonical_constraint

    return canonical_constraint(
        {QVar(k, i): Fraction(v) for (k, i), v in terms}, rel, Fraction(rhs)
    )


def by_hand(query: LinearQuery) -> list[tuple[dict, str, Fraction]]:
    """The constraints of ``query`` in the form ``read_query_file_by_hand``
    gives them."""
    return [
        ({(v.kind, v.index): coeff for v, coeff in c.terms}, c.relation, c.constant)
        for c in query.constraints
    ]


def controller_plan(controller_spec, controller_net):
    program = typecheck(parse(controller_spec.read_text()))
    analysed, ctx = analyze_network_types(program, {"controller": str(controller_net)})
    [(name, prop)] = prune_non_prop(analysed)
    return compile_property(name, prop, ctx), ctx


def test_running_example_query_file_lines(tmp_path, controller_spec, controller_net):
    plan, ctx = controller_plan(controller_spec, controller_net)
    files = emit_property_queries(plan, tmp_path, ctx)
    assert (tmp_path / "query1.txt").read_text().splitlines() == [
        "x0 >= -3.25",
        "x0 <= 3.25",
        "x1 >= -3.25",
        "x1 <= 3.25",
        "y0 +2x0 -1x1 < -1.25",
    ]
    assert (tmp_path / "query2.txt").read_text().splitlines() == [
        "x0 >= -3.25",
        "x0 <= 3.25",
        "x1 >= -3.25",
        "x1 <= 3.25",
        "y0 +2x0 -1x1 > 1.25",
    ]
    assert all(f.strict_warning for f in files)


def test_manifest_lists_applications_in_order(tmp_path, controller_spec, controller_net):
    plan, ctx = controller_plan(controller_spec, controller_net)
    emit_property_queries(plan, tmp_path, ctx)
    lines = (tmp_path / "queries.manifest").read_text(encoding="utf-8").splitlines()
    assert [shlex.split(line) for line in lines] == [
        ["controller", str(controller_net), ctx["controller"].digest]
    ]


def test_non_decimal_coefficient_renders_as_ratio():
    constraint = lc([(("x", 0), Fraction(1, 3))], "<=", 1)
    assert render_constraint(constraint) == "1/3x0 <= 1"


def test_leading_unit_coefficient_is_omitted():
    constraint = lc([(("y", 0), 1), (("x", 0), 1), (("x", 1), -1)], "=", 0)
    assert render_constraint(constraint) == "y0 +1x0 -1x1 = 0"


def test_emission_is_deterministic(tmp_path, controller_spec, controller_net):
    plan, ctx = controller_plan(controller_spec, controller_net)
    first = emit_query(plan.queries[0], tmp_path / "a.txt")
    second = emit_query(plan.queries[0], tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert first.lines == second.lines


def test_round_trip_preserves_constraints(tmp_path, controller_spec, controller_net):
    plan, ctx = controller_plan(controller_spec, controller_net)
    for k, query in enumerate(plan.queries, start=1):
        emit_query(query, tmp_path / f"query{k}.txt")
        assert read_query_file_by_hand(tmp_path / f"query{k}.txt") == by_hand(query)


def test_independent_reader_reconstructs_constraint_sets(
    tmp_path, controller_spec, controller_net
):
    from vspec.queries import canonical_constraint

    plan, ctx = controller_plan(controller_spec, controller_net)
    for k, query in enumerate(plan.queries, start=1):
        emit_query(query, tmp_path / f"query{k}.txt")
        rebuilt = tuple(
            canonical_constraint(
                {QVar(kind, index): coeff for (kind, index), coeff in terms.items()},
                relation,
                constant,
            )
            for terms, relation, constant in read_query_file_by_hand(
                tmp_path / f"query{k}.txt"
            )
        )
        assert rebuilt == tuple(query.constraints)


def test_load_query_dir_reconstructs_queries(tmp_path, controller_spec, controller_net):
    plan, ctx = controller_plan(controller_spec, controller_net)
    emit_property_queries(plan, tmp_path, ctx)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "queries.manifest", "query1.txt", "query2.txt"
    ]
    manifest = (tmp_path / "queries.manifest").read_text(encoding="utf-8").splitlines()
    meta = MetaNetwork(
        tuple(
            (name, ctx[name].input_size, ctx[name].output_size)
            for name, _path, _digest in map(shlex.split, manifest)
        )
    )
    for k, original in enumerate(plan.queries, start=1):
        assert read_query_file_by_hand(tmp_path / f"query{k}.txt") == by_hand(original)
        assert meta == original.meta


def test_round_trip_of_awkward_coefficients(tmp_path):
    query = LinearQuery(
        [
            lc([(("x", 0), Fraction(1, 3)), (("y", 1), Fraction(-7, 2))], "<", Fraction(22, 7)),
            lc([(("y", 0), 1)], "=", Fraction(-3, 8)),
            lc([(("x", 1), Fraction(5, 4))], ">=", 2),
        ],
        MetaNetwork((("f", 2, 2),)),
    )
    emit_query(query, tmp_path / "query1.txt")
    assert read_query_file_by_hand(tmp_path / "query1.txt") == by_hand(query)


def test_variable_indices_stay_inside_metanetwork(tmp_path, controller_spec, controller_net):
    plan, ctx = controller_plan(controller_spec, controller_net)
    for query in plan.queries:
        for constraint in query.constraints:
            for var, _ in constraint.terms:
                limit = (
                    query.meta.total_inputs if var.kind == "x" else query.meta.total_outputs
                )
                assert var.index < limit


def test_reemission_removes_query_files_of_the_old_spec(tmp_path, capsys):
    net = tmp_path / "net.vnet"
    net.write_text("vnet 1\ninput 1\naffine 1 1\n1\n0\n")
    spec = tmp_path / "spec.vcl"
    head = "network net : Rat -> Rat\n\np : Prop\np = forall x . -1 <= x <= 1 => "
    out = tmp_path / "q"
    argv = ["compile", "--spec", str(spec), "--network", f"net:{net}",
            "--target", "marabou", "--output", str(out)]  # fmt: skip
    spec.write_text(head + "-3 <= net x <= 3\n")
    assert main(argv) == 0
    assert sorted(f.name for f in (out / "p").iterdir()) == [
        "queries.manifest", "query1.txt", "query2.txt"
    ]
    # Names the emitter never writes are left alone.
    kept = ["notes.txt", "query.txt", "query0.txt", "query02.txt", "query3.txt.bak", "queryx.txt"]
    for name in kept:
        (out / "p" / name).write_text("y0 <= 0\n")
    capsys.readouterr()
    spec.write_text(head + "net x <= 3\n")
    assert main(argv) == 0
    assert capsys.readouterr().out == f"property p: wrote 1 queries to {out / 'p'}\n"
    assert sorted(f.name for f in (out / "p").iterdir()) == sorted(
        kept + ["queries.manifest", "query1.txt"]
    )
    assert (out / "p" / "query1.txt").read_text() == "x0 >= -1\nx0 <= 1\ny0 > 3\n"


def test_emitting_no_queries_removes_every_query_file(tmp_path, controller_spec, controller_net):
    plan, ctx = controller_plan(controller_spec, controller_net)
    emit_property_queries(plan, tmp_path, ctx)
    (tmp_path / "query10.txt").write_text("y0 <= 0\n")
    empty = PropertyPlan(plan.name, plan.polarity, plan.negated, [], plan.disjunct_count)
    assert emit_property_queries(empty, tmp_path, ctx) == []
    assert sorted(f.name for f in tmp_path.iterdir()) == ["queries.manifest"]
    assert (tmp_path / "queries.manifest").read_text() == ""


# -- verdict interpretation ----------------------------------------------------


def plan_with(negated: bool, n: int) -> PropertyPlan:
    meta = MetaNetwork((("f", 1, 1),))
    queries = [LinearQuery([lc([(("x", 0), 1)], "<=", 0)], meta) for _ in range(n)]
    return PropertyPlan(
        "p", "AllForall" if negated else "AllExists", negated, queries, n
    )


def w(value):
    return Sat(((QVar("x", 0), Fraction(value)),))


def test_all_unsat_verifies_negated_plan():
    assert interpret_verdicts(plan_with(True, 2), [Unsat(), Unsat()]).kind == "Verified"


def test_any_sat_falsifies_negated_plan_with_witness():
    status = interpret_verdicts(plan_with(True, 2), [Unsat(), w(7)])
    assert status.kind == "Falsified"
    assert status.witness == ((QVar("x", 0), Fraction(7)),)


def test_existential_plan_all_unsat_is_falsified():
    assert interpret_verdicts(plan_with(False, 1), [Unsat()]).kind == "Falsified"


def test_existential_plan_some_sat_is_verified():
    status = interpret_verdicts(plan_with(False, 2), [Unsat(), w(1)])
    assert status.kind == "Verified"
    assert status.witness


def test_verdict_count_mismatch():
    with pytest.raises(BackendError) as err:
        interpret_verdicts(plan_with(True, 2), [Unsat()])
    assert err.value.code == "VerdictCountMismatch"
