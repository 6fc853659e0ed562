import hashlib
import random
import sys
from fractions import Fraction

import pytest

from generators import close_over, random_assignment, random_formula
from oracles import eval_core, run_network_by_hand
from vspec import core
from vspec.errors import QueryError
from vspec.networks import NetworkInfo, NetworkModel, analyze_network_types
from vspec.normalise import prune_non_prop
from vspec.queries import (
    Binder,
    Disjunct,
    LinearConstraint,
    LinearQuery,
    MetaNetwork,
    QVar,
    analyse_quantifiers,
    compile_disjunct,
    compile_property,
    to_dnf,
)
from vspec.surface import parse
from vspec.typecheck import typecheck
from vspec.types import RAT, FunT, TensorT


def compile_props(source, bindings):
    program = typecheck(parse(source))
    ctx = analyze_network_types(program, bindings)
    return [(name, expr, ctx) for name, expr in prune_non_prop(program)]


def q(kind, body, name="v"):
    return core.Quant(kind, name, RAT, body)


def cmp(op, lhs, rhs):
    return core.Builtin(op, (lhs, rhs), "prop")


def lit(x):
    return core.RatLit(Fraction(x))


X = core.Var(0)


# -- quantifier analysis --------------------------------------------------------


def test_forall_only_is_all_forall():
    assert analyse_quantifiers(q("forall", cmp("le", X, lit(1)))) == "AllForall"


def test_exists_only_is_all_exists():
    assert analyse_quantifiers(q("exists", cmp("le", X, lit(1)))) == "AllExists"


def test_quantifier_free_counts_as_all_exists():
    assert analyse_quantifiers(cmp("le", lit(0), lit(1))) == "AllExists"


def test_mixed_quantifiers_error():
    mixed = q("forall", q("exists", cmp("le", X, core.Var(1)), "w"))
    with pytest.raises(QueryError) as err:
        analyse_quantifiers(mixed)
    assert err.value.code == "MixedQuantifiers"


def test_negated_exists_counts_as_forall():
    # not (exists x . P) is a universal property: its negation is exists x . P.
    atom = cmp("le", X, lit(1))
    negated = core.Builtin("not", (q("exists", atom),), "prop")
    assert analyse_quantifiers(negated) == "AllForall"
    assert repr(to_dnf(negated, True)) == repr([Disjunct(binders("v"), [atom])])


def test_implication_antecedent_flips_polarity():
    prop = core.Builtin(
        "implies",
        (q("exists", cmp("le", X, lit(1))), cmp("le", lit(0), lit(1))),
        "prop",
    )
    assert analyse_quantifiers(prop) == "AllForall"


# -- negation normal form --------------------------------------------------------


def atoms_of(disjuncts):
    return [d.atoms for d in disjuncts]


def test_negate_forall_implication():
    prop = q("forall", core.Builtin("implies", (cmp("le", X, lit(1)), cmp("le", X, lit(2))), "prop"))
    [d] = to_dnf(prop, True)
    assert [b.name for b in d.binders] == ["v"]
    assert d.atoms == [cmp("le", X, lit(1)), cmp("gt", X, lit(2))]


def test_negate_strict_comparison():
    assert atoms_of(to_dnf(cmp("lt", X, lit("1.25")), True)) == [[cmp("ge", X, lit("1.25"))]]


def test_negate_equality_splits():
    assert atoms_of(to_dnf(cmp("eq", X, lit(0)), True)) == [
        [cmp("lt", X, lit(0))],
        [cmp("gt", X, lit(0))],
    ]


def _only_comparisons(disjuncts):
    """Every atom is a comparison whose operands hold no formula node."""
    for d in disjuncts:
        for atom in d.atoms:
            assert isinstance(atom, core.Builtin) and atom.op in core.CMP_OPS
            for sub in core.subterms(atom):
                assert not isinstance(sub, core.Quant)
                if sub is not atom and isinstance(sub, core.Builtin):
                    assert sub.op not in core.LOGIC_OPS + core.CMP_OPS


def test_nnf_output_has_no_not_nodes():
    rng = random.Random(5)
    for _ in range(100):
        formula = random_formula(rng, 3, 4)
        for negate in (False, True):
            _only_comparisons(to_dnf(formula, negate))


def test_nnf_output_has_no_implications():
    rng = random.Random(9)
    for _ in range(100):
        formula = random_formula(rng, 3, 4, nested_conditions=True)
        for negate in (False, True):
            _only_comparisons(to_dnf(formula, negate))
    a, b = cmp("le", X, lit(1)), cmp("eq", X, lit(2))
    implication = core.Builtin("implies", (a, b), "prop")
    assert atoms_of(to_dnf(implication, False)) == [[cmp("gt", X, lit(1))], [b]]
    assert atoms_of(to_dnf(implication, True)) == [[a, cmp("lt", X, lit(2))], [a, cmp("gt", X, lit(2))]]


def test_nnf_semantics():
    from generators import disjunction_agrees

    rng = random.Random(6)
    for _ in range(60):
        formula = random_formula(rng, 3, 3)
        for negate in (False, True):
            disjuncts = to_dnf(formula, negate)
            assert disjunction_agrees(disjuncts, formula, rng, 3, 40, negate=negate)


def test_to_dnf_truth_tables_with_rich_if_conditions():
    # If conditions hold `not`, `=>`, `==` under negation and nested `if`s;
    # to_dnf negates the source condition, so both polarities must still
    # agree with the formula on every sampled assignment.
    from generators import disjunction_agrees, dnf_size

    rng = random.Random(17)
    checked = 0
    while checked < 150:
        n_vars = rng.randint(1, 3)
        formula = random_formula(rng, n_vars, 3, nested_conditions=True)
        if max(dnf_size(formula, False), dnf_size(formula, True)) > 400:
            continue
        checked += 1
        for negate in (False, True):
            disjuncts = to_dnf(formula, negate)
            assert len(disjuncts) == dnf_size(formula, negate)
            assert disjunction_agrees(disjuncts, formula, rng, n_vars, 40, negate=negate)


# -- if elimination ---------------------------------------------------------------


def test_spec_example_numeric_if_lifting():
    # exists x . (if a then x else x + 2) >= 8
    a = core.Builtin("le", (core.Var(0), lit(0)), "bool")
    prop = q(
        "exists",
        cmp(
            "ge",
            core.Builtin("if", (a, X, core.Builtin("add", (X, lit(2))))),
            lit(8),
        ),
        "x",
    )
    left, right = to_dnf(prop, False)
    assert [b.name for b in left.binders] == [b.name for b in right.binders] == ["x"]
    assert left.atoms == [a, cmp("ge", X, lit(8))]
    assert right.atoms == [
        core.Builtin("gt", (core.Var(0), lit(0)), "bool"),
        cmp("ge", core.Builtin("add", (X, lit(2))), lit(8)),
    ]


def test_formula_level_if_becomes_a_disjunction():
    a = core.Builtin("le", (lit(0), lit(1)), "bool")
    b = cmp("le", X, lit(1))
    c = cmp("ge", X, lit(1))
    result = to_dnf(core.Builtin("if", (a, b, c), "prop"), False)
    assert atoms_of(result) == [[a, b], [core.Builtin("gt", (lit(0), lit(1)), "bool"), c]]
    # Negation selects within the branches; the condition keeps its sign.
    result = to_dnf(core.Builtin("if", (a, b, c), "prop"), True)
    assert atoms_of(result) == [
        [a, cmp("gt", X, lit(1))],
        [core.Builtin("gt", (lit(0), lit(1)), "bool"), cmp("lt", X, lit(1))],
    ]


def test_if_free_input_unchanged():
    atom = cmp("le", X, lit(1))
    assert repr(to_dnf(q("exists", atom), False)) == repr([Disjunct(binders("v"), [atom])])


def test_if_condition_with_network_is_rejected():
    cond = core.Builtin(
        "le",
        (core.Index(core.NetworkApp("f", core.TensorLit((X,))), core.NatLit(0)), lit(0)),
        "bool",
    )
    body = core.Builtin("if", (cond, cmp("le", X, lit(1)), cmp("ge", X, lit(1))), "prop")
    for kind, negate in (("exists", False), ("forall", True)):
        with pytest.raises(QueryError) as err:
            to_dnf(q(kind, body), negate)
        assert err.value.code == "IfConditionContainsNetwork"
    # A numeric `if` lifted out of an atom is checked too.
    numeric = core.Builtin("if", (cond, X, lit(0)))
    with pytest.raises(QueryError) as err:
        to_dnf(q("exists", cmp("le", numeric, lit(1))), False)
    assert err.value.code == "IfConditionContainsNetwork"


def test_eliminate_if_semantics():
    from generators import disjunction_agrees

    rng = random.Random(7)
    for _ in range(60):
        formula = random_formula(rng, 3, 4)
        disjuncts = to_dnf(formula, False)
        _only_comparisons(disjuncts)
        assert disjunction_agrees(disjuncts, formula, rng, 3, 40, negate=False)


# -- DNF ---------------------------------------------------------------------------


def test_distribution_example():
    a = cmp("le", X, lit(0))
    b = cmp("ge", X, lit(10))
    c = cmp("eq", X, lit(5))
    prop = q("exists", core.Builtin("and", (core.Builtin("or", (a, b), "prop"), c), "prop"))
    disjuncts = to_dnf(prop, False)
    assert len(disjuncts) == 2
    assert disjuncts[0].atoms == [a, c]
    assert disjuncts[1].atoms == [b, c]


def test_single_conjunction_single_query():
    a = cmp("le", X, lit(0))
    b = cmp("ge", X, lit(-1))
    prop = q("exists", core.Builtin("and", (a, b), "prop"))
    disjuncts = to_dnf(prop, False)
    assert len(disjuncts) == 1
    assert disjuncts[0].atoms == [a, b]


def test_dnf_invariants_on_running_example(controller_spec, controller_net):
    [(name, prop, ctx)] = compile_props(
        controller_spec.read_text(), {"controller": str(controller_net)}
    )
    disjuncts = to_dnf(prop, True)
    assert len(disjuncts) == 2
    for d in disjuncts:
        assert [b.name for b in d.binders] == ["x_0", "x_1"]
        for atom in d.atoms:
            for sub in core.subterms(atom):
                if isinstance(sub, core.Builtin):
                    assert sub.op not in ("not", "if", "implies")
                assert not isinstance(sub, core.Quant)
    # One disjunct ends E < -1.25 (as -1.25 > E: negation keeps operand
    # order), the other E > 1.25.
    first, second = (d.atoms[-1] for d in disjuncts)
    assert first.op == "gt" and first.args[0] == lit("-1.25")
    assert second.op == "gt" and second.args[1] == lit("1.25")
    assert first.args[1] == second.args[0]  # the same network expression


def test_dnf_semantics_against_truth_tables():
    from generators import disjunction_agrees

    rng = random.Random(8)
    for _ in range(60):
        n_vars = rng.randint(1, 3)
        formula = random_formula(rng, n_vars, 3)
        disjuncts = to_dnf(close_over(formula, n_vars, kind="exists"), False)
        assert all(len(d.binders) == n_vars for d in disjuncts)
        assert disjunction_agrees(disjuncts, formula, rng, n_vars, 40, negate=False)


def test_nested_exists_under_and_is_prenexed():
    inner = q("exists", cmp("le", core.Var(0), core.Var(1)), "w")
    prop = q("exists", core.Builtin("and", (cmp("ge", X, lit(0)), inner), "prop"), "v")
    disjuncts = to_dnf(prop, False)
    assert len(disjuncts) == 1
    d = disjuncts[0]
    assert [b.name for b in d.binders] == ["v", "w"]
    # First atom referenced v (outer); after prenexing it is Var(1).
    assert d.atoms[0] == cmp("ge", core.Var(1), lit(0))
    assert d.atoms[1] == cmp("le", core.Var(0), core.Var(1))
    # Under negation the universal on the right becomes an existential too.
    inner = q("forall", cmp("le", core.Var(0), core.Var(1)), "w")
    prop = q("forall", core.Builtin("and", (cmp("ge", X, lit(0)), inner), "prop"), "v")
    assert atoms_of(to_dnf(prop, True)) == [
        [cmp("lt", core.Var(0), lit(0))],
        [cmp("gt", core.Var(0), core.Var(1))],
    ]


def ctx_of(**sizes):
    """A network context giving each named network (inputs, outputs)."""
    return {
        name: NetworkInfo(
            NetworkModel(name, m, n, ()), FunT(TensorT(RAT, (m,)), TensorT(RAT, (n,))), "", ""
        )
        for name, (m, n) in sizes.items()
    }


def napp(name, *args):
    return core.NetworkApp(name, core.TensorLit(tuple(args)))


def out(app, k=0):
    return core.Index(app, core.NatLit(k))


def binders(*names):
    return [Binder(name, RAT) for name in names]


def lc(terms, relation, constant):
    return LinearConstraint(
        tuple((QVar(v[0], int(v[1:])), Fraction(k)) for v, k in terms), relation, Fraction(constant)
    )


def test_unused_binders_are_dropped():
    # exists v w . f v <= 1 with w unused: w quantifies nothing and needs no
    # equation; the same w used in an atom must be resolved.
    ctx = ctx_of(f=(1, 1))
    d = Disjunct(binders("v", "w"), [cmp("le", out(napp("f", core.Var(1))), lit(1))])
    lq = compile_disjunct(d, ctx)
    assert lq == LinearQuery([lc([("y0", 1)], "<=", 1)], MetaNetwork((("f", 1, 1),)))
    d.atoms.append(cmp("le", core.Var(0), lit(1)))
    with pytest.raises(QueryError, match="'w'") as err:
        compile_disjunct(d, ctx)
    assert err.value.code == "UnresolvableUserVariable"


# -- shared applications ---------------------------------------------------------------


def test_duplicate_applications_share_one_binding():
    f_a = out(napp("f", core.Var(0)))
    d = Disjunct(binders("a"), [cmp("le", f_a, lit(0)), cmp("ge", f_a, lit(-1))])
    lq = compile_disjunct(d, ctx_of(f=(1, 1)))
    assert lq.meta.applications == (("f", 1, 1),)
    assert lq.constraints == [lc([("y0", 1)], "<=", 0), lc([("y0", 1)], ">=", -1)]


def test_distinct_arguments_get_two_bindings_in_order():
    f_x1 = out(napp("f", core.Var(1)))
    f_x2 = out(napp("f", core.Var(0)))
    d = Disjunct(
        binders("x1", "x2"), [cmp("le", f_x1, f_x2), cmp("le", core.Var(1), lit(5))]
    )
    lq = compile_disjunct(d, ctx_of(f=(1, 1)))
    assert lq.meta.applications == (("f", 1, 1), ("f", 1, 1))
    # x1 is the argument of the first application, x2 of the second.
    assert lq.constraints == [lc([("y0", 1), ("y1", -1)], "<=", 0), lc([("x0", 1)], "<=", 5)]


def test_nested_application_binds_inner_first():
    inner = out(napp("g", core.Var(0)))
    outer = out(napp("f", inner))
    d = Disjunct(binders("v"), [cmp("le", outer, lit(0))])
    lq = compile_disjunct(d, ctx_of(f=(1, 1), g=(1, 1)))
    assert lq.meta.applications == (("g", 1, 1), ("f", 1, 1))
    # f's argument element is g's output: y0 == x1.
    assert lq.constraints == [lc([("y0", 1), ("x1", -1)], "=", 0), lc([("y1", 1)], "<=", 0)]


def test_no_applications_unchanged():
    # Without applications there is no equation and no metanetwork: the
    # atoms are flattened as they are.
    d = Disjunct([], [cmp("le", lit(0), lit(1)), cmp("lt", lit(2), lit(3))])
    assert compile_disjunct(d, {}) == LinearQuery([], MetaNetwork(()))
    d = Disjunct([], [cmp("gt", lit(0), lit(1))])
    assert compile_disjunct(d, {}) is None
    # ... and a quantified variable has nothing to be equated with.
    with pytest.raises(QueryError) as err:
        compile_disjunct(Disjunct(binders("v"), [cmp("le", X, lit(0))]), {})
    assert err.value.code == "UnresolvableUserVariable"


def test_no_uses_unchanged():
    # A quantified variable that no atom uses needs no equation: it is
    # skipped, and the atoms are flattened as they are.
    d = Disjunct(binders("u", "v"), [cmp("le", lit(0), lit(1))])
    assert compile_disjunct(d, {}) == LinearQuery([], MetaNetwork(()))
    d = Disjunct(binders("u", "v"), [cmp("eq", lit(1), lit(2))])
    assert compile_disjunct(d, {}) is None


def _eval_with_network(e, env, model):
    def go(e):
        if isinstance(e, core.NetworkApp):
            return tuple(run_network_by_hand(model.layers, list(go(e.arg))))
        if isinstance(e, core.Var):
            return env[len(env) - 1 - e.index]
        if isinstance(e, core.RatLit):
            return e.value
        if isinstance(e, core.NatLit):
            return Fraction(e.value)
        if isinstance(e, core.TensorLit):
            return tuple(go(x) for x in e.items)
        if isinstance(e, core.Index):
            return go(e.tensor)[int(go(e.index))]
        if isinstance(e, core.Builtin):
            args = [go(a) for a in e.args]
            table = {
                "add": lambda a, b: a + b,
                "sub": lambda a, b: a - b,
                "mul": lambda a, b: a * b,
                "neg": lambda a: -a,
                "le": lambda a, b: a <= b,
                "lt": lambda a, b: a < b,
                "ge": lambda a, b: a >= b,
                "gt": lambda a, b: a > b,
                "eq": lambda a, b: a == b,
                "and": lambda a, b: a and b,
                "or": lambda a, b: a or b,
            }
            return table[e.op](*args)
        raise AssertionError(e)

    return go(e)


def _holds(c: LinearConstraint, values) -> bool:
    total = sum(k * values[v] for v, k in c.terms)
    return {
        "<=": total <= c.constant,
        "<": total < c.constant,
        ">=": total >= c.constant,
        ">": total > c.constant,
        "=": total == c.constant,
    }[c.relation]


def test_cse_is_sound_under_network_evaluation():
    # On random inputs with a random small network, the compiled
    # constraints hold under the network's own input/output values exactly
    # when the disjunct's atoms hold; sharing leaves two of the four
    # applications.
    from vspec.networks import Affine, Relu

    rng = random.Random(21)
    for _ in range(40):
        hidden = rng.randint(1, 3)
        w1 = tuple((Fraction(rng.randint(-2, 2)),) for _ in range(hidden))
        b1 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(hidden))
        w2 = (tuple(Fraction(rng.randint(-2, 2)) for _ in range(hidden)),)
        model = NetworkModel(
            "f", 1, 1, (Affine(w1, b1), Relu(hidden), Affine(w2, (Fraction(0),)))
        )

        def app(arg):
            return out(napp("f", arg))

        arg_a = core.Var(0)
        arg_b = core.Builtin("add", (core.Var(0), lit(1)))
        atoms = [
            cmp("le", app(arg_a), lit(rng.randint(-3, 3))),
            cmp("ge", core.Builtin("add", (app(arg_a), app(arg_b))), lit(0)),
            cmp("lt", app(arg_b), core.Builtin("mul", (lit(2), core.Var(0)))),
        ]
        d = Disjunct(binders("v"), atoms)
        lq = compile_disjunct(d, ctx_of(f=(1, 1)))

        count_before = sum(
            isinstance(s, core.NetworkApp) for a in d.atoms for s in core.subterms(a)
        )
        assert count_before == 4
        assert len(lq.meta.applications) == 2  # f v and f (v + 1), shared

        for _ in range(25):
            v = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
            values = {QVar("x", 0): v, QVar("x", 1): v + 1}
            values[QVar("y", 0)] = _eval_with_network(app(arg_a), [v], model)
            values[QVar("y", 1)] = _eval_with_network(app(arg_b), [v], model)
            before = all(_eval_with_network(a, [v], model) for a in d.atoms)
            after = all(_holds(c, values) for c in lq.constraints)
            assert before == after


# -- relational form ----------------------------------------------------------------------


def test_box_rule_by_hand():
    # y = f [a, b]: a == x0 and b == x1 come first, then y ! 0 >= 0 as y0 >= 0.
    ctx = ctx_of(f=(2, 1))
    d = Disjunct([], [cmp("ge", out(napp("f", lit(1), lit(2))), lit(0))])
    assert compile_disjunct(d, ctx).constraints == [
        lc([("x0", 1)], "=", 1),
        lc([("x1", 1)], "=", 2),
        lc([("y0", 1)], ">=", 0),
    ]
    # The equations of quantified arguments resolve a and b and are removed.
    f_ab = out(napp("f", core.Var(1), core.Var(0)))
    d = Disjunct(binders("a", "b"), [cmp("ge", f_ab, lit(0)), cmp("le", core.Var(1), core.Var(0))])
    assert compile_disjunct(d, ctx).constraints == [
        lc([("y0", 1)], ">=", 0),
        lc([("x0", 1), ("x1", -1)], "<=", 0),
    ]


def test_chained_resolution_through_resolved_variables():
    # exists u v . u == v and v == f 1 and u >= 0: v resolves to y0 first,
    # then u through v.
    d = Disjunct(
        binders("u", "v"),
        [
            cmp("eq", core.Var(1), core.Var(0)),
            cmp("eq", core.Var(0), out(napp("f", lit(1)))),
            cmp("ge", core.Var(1), lit(0)),
        ],
    )
    lq = compile_disjunct(d, ctx_of(f=(1, 1)))
    assert lq.constraints == [lc([("x0", 1)], "=", 1), lc([("y0", 1)], ">=", 0)]


def test_error_precedence():
    # A non-literal argument is reported before an unresolvable variable,
    # which is reported before the atom errors, which come in atom order.
    ctx = ctx_of(f=(1, 1), g=(1, 1))
    v, w = core.Var(1), core.Var(0)
    product = cmp("le", core.Builtin("mul", (v, v)), lit(0))
    division = cmp("le", core.Builtin("div", (lit(1), v)), lit(0))
    resolve_v = cmp("ge", out(napp("f", v)), lit(0))
    non_literal = cmp("le", out(core.NetworkApp("g", w)), lit(0))
    w_unresolved = cmp("le", w, lit(0))
    w_resolved = cmp("eq", w, out(napp("f", v)))
    cases = [
        ([resolve_v, product, w_unresolved, non_literal], "non-literal"),
        ([resolve_v, division, product, w_unresolved], "'w'"),
        ([resolve_v, division, product, w_resolved], "division by a variable"),
        ([resolve_v, product, division, w_resolved], "product of two variables"),
    ]
    for atoms, message in cases:
        with pytest.raises(QueryError, match=message):
            compile_disjunct(Disjunct(binders("v", "w"), atoms), ctx)


# -- user-variable elimination ---------------------------------------------------------


def test_direct_equations_are_substituted():
    d = Disjunct(
        binders("p0", "p1"),
        [
            cmp("le", core.Var(1), lit("3.25")),
            cmp("lt", out(napp("f", core.Var(1), core.Var(0))), core.Var(0)),
        ],
    )
    lq = compile_disjunct(d, ctx_of(f=(2, 1)))
    assert lq is not None
    assert lq.constraints[0] == LinearConstraint(
        ((QVar("x", 0), Fraction(1)),), "<=", Fraction(13, 4)
    )
    assert lq.constraints[1] == LinearConstraint(
        ((QVar("y", 0), Fraction(1)), (QVar("x", 1), Fraction(-1))), "<", Fraction(0)
    )


def test_nonlinear_atom():
    fv = out(napp("f", X))
    d = Disjunct(binders("v"), [cmp("le", fv, core.Builtin("mul", (X, X)))])
    with pytest.raises(QueryError) as err:
        compile_disjunct(d, ctx_of(f=(1, 1)))
    assert err.value.code == "NonLinearAtom"


def test_constant_false_atom_drops_disjunct():
    fv = out(napp("f", X))
    d = Disjunct(binders("v"), [cmp("ge", fv, lit(0)), cmp("lt", X, X)])  # v < v
    assert compile_disjunct(d, ctx_of(f=(1, 1))) is None
    # The disjunct is dropped as soon as the contradiction is reached: a
    # non-linear atom after it is never flattened.
    d.atoms.append(cmp("le", fv, core.Builtin("mul", (X, X))))
    assert compile_disjunct(d, ctx_of(f=(1, 1))) is None


def test_constant_true_atom_is_dropped():
    fv = out(napp("f", X))
    d = Disjunct(binders("v"), [cmp("le", lit(1), lit(2)), cmp("le", fv, fv)])
    lq = compile_disjunct(d, ctx_of(f=(1, 1)))
    assert lq is not None
    assert lq.constraints == []
    assert lq.meta.applications == (("f", 1, 1),)


# -- metanetwork --------------------------------------------------------------------


def test_meta_network_offsets_match_fig3_labelling():
    meta = MetaNetwork((("f", 2, 1), ("f", 2, 1), ("g", 3, 2)))
    assert meta.input_offsets == (0, 2, 4)
    assert meta.output_offsets == (0, 1, 2)
    assert meta.total_inputs == 7
    assert meta.total_outputs == 4


def test_meta_network_offsets_are_contiguous():
    meta = MetaNetwork((("a", 3, 2), ("b", 1, 4), ("c", 5, 1)))
    for i in range(len(meta.applications) - 1):
        assert meta.input_offsets[i] + meta.applications[i][1] == meta.input_offsets[i + 1]
        assert (
            meta.output_offsets[i] + meta.applications[i][2] == meta.output_offsets[i + 1]
        )
    assert meta.total_inputs == sum(m for _, m, _ in meta.applications)
    assert meta.total_outputs == sum(n for _, _, n in meta.applications)


def test_empty_meta_network():
    meta = MetaNetwork(())
    assert meta.total_inputs == 0
    assert meta.total_outputs == 0


# -- full pipeline ----------------------------------------------------------------------


def one_input_net(tmp_path):
    path = tmp_path / "one.vnet"
    path.write_text("vnet 1\ninput 1\naffine 1 1\n1\n0\n")
    return str(path)


def test_unresolvable_user_variable_full_pipeline(tmp_path):
    source = "network f : Rat -> Rat\n\np : Prop\np = exists v . f (v + 2) <= 0"
    program = typecheck(parse(source))
    ctx = analyze_network_types(program, {"f": one_input_net(tmp_path)})
    [(name, prop)] = prune_non_prop(program)
    with pytest.raises(QueryError) as err:
        compile_property(name, prop, ctx)
    assert err.value.code == "UnresolvableUserVariable"


def _rendered_queries(body, tmp_path):
    from vspec.marabou import render_constraint

    source = f"network f : Rat -> Rat\n\np : Prop\np = {body}\n"
    program = typecheck(parse(source))
    ctx = analyze_network_types(program, {"f": one_input_net(tmp_path)})
    [(name, prop)] = prune_non_prop(program)
    plan = compile_property(name, prop, ctx)
    return [
        ([render_constraint(c) for c in query.constraints], query.meta.applications)
        for query in plan.queries
    ]


def test_formula_level_if_compiles_to_one_query_per_branch(tmp_path):
    # (c => A) and (not c => B) used to give a `c and not c` disjunct that
    # holds no network, so x could not be resolved.
    body = "forall x . -1 <= x <= 1 => f x <= (if x >= 0 then 10 else 5)"
    f = (("f", 1, 1),)
    assert _rendered_queries(body, tmp_path) == [
        (["x0 >= -1", "x0 <= 1", "x0 >= 0", "y0 > 10"], f),
        (["x0 >= -1", "x0 <= 1", "x0 < 0", "y0 > 5"], f),
    ]


def test_if_in_an_antecedent_keeps_its_queries(tmp_path):
    # An implication that survives NNF negates its antecedent, so the `if`
    # there splits into one disjunct per branch, as it did before
    # implications were removed in NNF.
    body = "exists x . x == f 0 and ((if x >= 0 then x <= 1 else x >= -1) => f x <= 2)"
    f = (("f", 1, 1),)
    assert _rendered_queries(body, tmp_path) == [
        (["x0 = 0", "y0 >= 0", "y0 > 1"], f),
        (["x0 = 0", "y0 < 0", "y0 < -1"], f),
        (["x0 = 0", "y0 -1x1 = 0", "y1 <= 2"], f + f),
    ]


def test_negated_if_condition_compiles_to_an_equation(tmp_path):
    # Under the negation of the property the else branch needs `not c`,
    # which is `x == 1` for c = `not (x == 1)`: one equation, where the
    # negation of c's normal form gave `x >= 1 and x <= 1`.
    body = "forall x . -1 <= x <= 2 => (if not (x == 1) then f x >= 0 else f x <= 5)"
    f = (("f", 1, 1),)
    assert _rendered_queries(body, tmp_path) == [
        (["x0 >= -1", "x0 <= 2", "x0 < 1", "y0 < 0"], f),
        (["x0 >= -1", "x0 <= 2", "x0 > 1", "y0 < 0"], f),
        (["x0 >= -1", "x0 <= 2", "x0 = 1", "y0 > 5"], f),
    ]


def _front_end_calls(conjuncts, net_path):
    """Function calls made from source text to the query plan of an
    n-conjunct chain (parse, type-check, network analysis, pruning and
    query compilation): ``call`` counts calls of Python functions and
    ``c_call`` those of builtins, such as ``isinstance``."""
    atoms = " and ".join(f"x ! {k % 2} <= {k}" for k in range(conjuncts))
    source = (
        "type InputVector = Tensor Rat [2]\n\nnetwork net : InputVector -> Rat\n\n"
        f"chain : Prop\nchain = forall (x : InputVector) . {atoms} => net x <= 0\n"
    )
    calls = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in calls:
            calls[event] += 1

    sys.setprofile(count)
    try:
        program = typecheck(parse(source))
        ctx = analyze_network_types(program, {"net": net_path})
        plans = [compile_property(name, prop, ctx) for name, prop in prune_non_prop(program)]
    finally:
        sys.setprofile(None)
    [plan] = plans
    assert len(plan.queries) == 1 and len(plan.queries[0].constraints) == conjuncts + 1
    return calls


@pytest.fixture(scope="module")
def chain_calls(tmp_path_factory):
    """The front end's calls on chains of 150 and of 300 conjuncts."""
    net = tmp_path_factory.mktemp("chain") / "net.vnet"
    net.write_text("vnet 1\ninput 2\naffine 1 2\n1 1\n0\n")
    return _front_end_calls(150, str(net)), _front_end_calls(300, str(net))


def test_front_end_scales_linearly_with_the_chain_length(chain_calls):
    # Deterministic: counts calls, not time.  Doubling the chain must at
    # most double the work of the whole front end, give or take the fixed
    # cost of the header and the network file.
    small, large = chain_calls
    for event in ("call", "c_call"):
        assert large[event] / small[event] <= 2.2, (event, small, large)


# Calls per conjunct on CPython 3.11, measured from the 150- to the
# 300-conjunct chain (193 Python and 129 builtin calls), plus about 5%.
# Before the type checker's program was the only one (network applications
# rewritten by a pass of their own, and a type and a Prop flag recorded for
# every node): 213 and 133.  Before comparisons and arithmetic marked their
# operand numeric in place, not by unifying it with a fresh numeric
# variable: 221 and 170.
CALLS_PER_CONJUNCT = {"call": 203, "c_call": 136}


def test_front_end_calls_per_conjunct_are_bounded(chain_calls):
    small, large = chain_calls
    per_conjunct = {event: (large[event] - small[event]) / 150 for event in small}
    over = {e: n for e, n in per_conjunct.items() if n > CALLS_PER_CONJUNCT[e]}
    assert over == {}, (per_conjunct, CALLS_PER_CONJUNCT)


def test_running_example_compiles_to_two_queries(controller_spec, controller_net):
    [(name, prop, ctx)] = compile_props(
        controller_spec.read_text(), {"controller": str(controller_net)}
    )
    plan = compile_property(name, prop, ctx)
    assert plan.polarity == "AllForall"
    assert plan.negated
    assert len(plan.queries) == 2
    bound = Fraction(13, 4)
    expected_box = [
        LinearConstraint(((QVar("x", 0), Fraction(1)),), ">=", -bound),
        LinearConstraint(((QVar("x", 0), Fraction(1)),), "<=", bound),
        LinearConstraint(((QVar("x", 1), Fraction(1)),), ">=", -bound),
        LinearConstraint(((QVar("x", 1), Fraction(1)),), "<=", bound),
    ]
    mixed = (
        (QVar("y", 0), Fraction(1)),
        (QVar("x", 0), Fraction(2)),
        (QVar("x", 1), Fraction(-1)),
    )
    q1, q2 = plan.queries
    assert q1.constraints[:4] == expected_box
    assert q1.constraints[4] == LinearConstraint(mixed, "<", Fraction(-5, 4))
    assert q2.constraints[:4] == expected_box
    assert q2.constraints[4] == LinearConstraint(mixed, ">", Fraction(5, 4))
    assert q1.meta.applications == (("controller", 2, 1),)


def test_monotonicity_property_compiles_with_two_applications(tmp_path):
    path = tmp_path / "mono.vnet"
    path.write_text("vnet 1\ninput 1\naffine 1 1\n1\n0\n")
    source = (
        "network f : Tensor Rat [1] -> Tensor Rat [1]\n\n"
        "mono : Prop\nmono = forall x1 x2 . x1 <= x2 => f [x1] ! 0 <= f [x2] ! 0"
    )
    program = typecheck(parse(source))
    ctx = analyze_network_types(program, {"f": str(path)})
    [(name, prop)] = prune_non_prop(program)
    plan = compile_property(name, prop, ctx)
    assert len(plan.queries) == 1
    query = plan.queries[0]
    assert query.meta.applications == (("f", 1, 1), ("f", 1, 1))
    assert query.constraints == [
        LinearConstraint(
            ((QVar("x", 0), Fraction(1)), (QVar("x", 1), Fraction(-1))), "<=", Fraction(0)
        ),
        LinearConstraint(
            ((QVar("y", 0), Fraction(1)), (QVar("y", 1), Fraction(-1))), ">", Fraction(0)
        ),
    ]


def test_semantic_preservation_of_negated_pipeline():
    from generators import disjunction_agrees, tractable_formula

    rng = random.Random(11)
    for _ in range(60):
        n_vars = rng.randint(1, 4)
        matrix = tractable_formula(rng, n_vars, 4, cap=1500, negate=True)
        disjuncts = to_dnf(close_over(matrix, n_vars), True)
        assert disjunction_agrees(disjuncts, matrix, rng, n_vars, 40, negate=True)


def test_compiled_evaluator_agrees_with_direct_oracle():
    from oracles import compile_eval

    rng = random.Random(12)
    for _ in range(80):
        n_vars = rng.randint(1, 4)
        formula = random_formula(rng, n_vars, 3)
        fn = compile_eval(formula, n_vars)
        for _ in range(20):
            env = random_assignment(rng, n_vars)
            assert fn(env) == eval_core(formula, env)


# -- pinned compiler output ---------------------------------------------------------------

# sha256 of repr() of the plans of test_pinned_query_output; see its docstring.
PINNED_QUERY_DIGEST = "265defdc88f977b7e178bd8f1ef178ecda12fc8d567fd305028a36be35e038e2"


def pinned_property(rng: random.Random, index: int) -> str:
    """A seeded property over ``f : Rat -> Rat`` and ``g : Tensor Rat [2] ->
    Tensor Rat [2]``: shared and nested applications, tensor binders, unused
    binders, user ``exists`` variables with direct equations (some chained
    through another variable), ``or``, ``not``, ``==`` (negated under
    ``forall``), constant-false atoms and products."""
    kind = "exists" if index % 4 == 3 else "forall"
    tensor = index % 5 == 2
    scalars = ["t ! 0", "t ! 1"] if tensor else [f"v{k}" for k in range(rng.randint(1, 3))]

    def leaf():
        return str(rng.randint(-4, 4)) if rng.random() < 0.3 else rng.choice(scalars)

    def app(depth):
        r = rng.random()
        if tensor and r < 0.3:
            return f"g t ! {rng.randrange(2)}"
        arg = num(depth - 1) if depth > 0 and rng.random() < 0.1 else rng.choice(scalars)
        if r < 0.65:
            return f"f ({arg})"
        return f"g [{arg}, {leaf()}] ! {rng.randrange(2)}"

    def num(depth):
        r = rng.random()
        if depth <= 0 or r < 0.35:
            return app(depth) if rng.random() < 0.5 else leaf()
        if r < 0.55:
            return f"({num(depth - 1)} + {num(depth - 1)})"
        if r < 0.7:
            return f"({num(depth - 1)} - {num(depth - 1)})"
        if r < 0.85:
            return f"{rng.randint(-3, 3)} * {num(depth - 1)}"
        if r < 0.87:
            return f"({num(depth - 1)} * {num(depth - 1)})"
        return app(depth)

    def atom():
        if rng.random() < 0.08:
            s = rng.choice(scalars)
            return f"{s} < {s}"
        op = rng.choice(["<=", "<", ">=", ">", "==", "<=", ">="])
        return f"{num(2)} {op} {num(2)}"

    def formula(depth):
        r = rng.random()
        if depth <= 0 or r < 0.4:
            return atom()
        if r < 0.65:
            return f"({formula(depth - 1)} or {formula(depth - 1)})"
        if r < 0.85:
            return f"({formula(depth - 1)} and {formula(depth - 1)})"
        return f"not ({formula(depth - 1)})"

    binders = "(t : Tensor Rat [2])" if tensor else " ".join(scalars)
    if kind == "forall":
        box = " and ".join(f"-2 <= {s} <= 2" for s in scalars)
        body = f"{box} and {formula(1)} => {formula(2)}"
    else:
        eqs = [
            f"{s} == {app(0)}" if rng.random() < 0.5 else f"{app(0)} == {s}"
            for s in scalars
            if rng.random() < 0.8
        ]
        if len(scalars) > 1 and rng.random() < 0.5:
            a, b = rng.sample(scalars, 2)
            eqs.insert(rng.randrange(len(eqs) + 1), f"{a} == {b}")
        body = " and ".join(eqs + [formula(2)])
    if index % 6 == 1 and not tensor:
        binders += " u"
    if index % 37 == 5:
        return f"forall {binders} . exists w . {body} and w == f w"
    return f"{kind} {binders} . {body}"


def test_pinned_query_output(tmp_path):
    """The query compiler's output on a seeded corpus is pinned to a digest.

    320 properties from ``pinned_property`` go through the whole front end;
    each contributes its polarity, disjunct count, and the ``repr`` of every
    query's constraints and metanetwork, or its error code.  Two hand-built
    core terms add the codes no source program reaches: an ``if`` condition
    that applies a network, and a network applied to a non-literal tensor.
    The digest was recorded by running this corpus on the five-stage query
    compiler that ``compile_disjunct`` replaced (dd404e2), before
    ``queries.py`` changed, so it gates "same plans": numbering, equation
    order, binder resolution and flattening that differ anywhere show up
    as a different digest.
    """
    one = tmp_path / "one.vnet"
    one.write_text("vnet 1\ninput 1\naffine 1 1\n2\n-1\n")
    two = tmp_path / "two.vnet"
    two.write_text("vnet 1\ninput 2\naffine 2 2\n1 -1\n3 1\n0 1\n")
    header = "network f : Rat -> Rat\n\nnetwork g : Tensor Rat [2] -> Tensor Rat [2]\n\n"
    bindings = {"f": str(one), "g": str(two)}
    rng = random.Random(20261018)
    props = []
    for index in range(320):
        source = header + f"p : Prop\np = {pinned_property(rng, index)}\n"
        program = typecheck(parse(source))
        ctx = analyze_network_types(program, bindings)
        props += prune_non_prop(program)
    g_v = core.Index(core.NetworkApp("g", core.TensorLit((X, X))), core.NatLit(0))
    branches = (cmp("le", X, lit(1)), cmp("ge", X, lit(1)))
    props.append(("if", q("forall", core.Builtin("if", (cmp("ge", g_v, lit(0)), *branches), "prop"))))
    g_of_scalar = core.Index(core.NetworkApp("g", X), core.NatLit(0))
    props.append(("arg", q("exists", cmp("le", g_of_scalar, X))))
    rendered = []
    codes = []
    for name, prop in props:
        try:
            plan = compile_property(name, prop, ctx)
        except QueryError as err:
            rendered.append(err.code)
            codes.append(err.code)
            continue
        rendered.append(
            (plan.polarity, plan.disjunct_count, [(q.constraints, q.meta) for q in plan.queries])
        )
    assert set(codes) == {
        "MixedQuantifiers", "IfConditionContainsNetwork", "UnresolvableUserVariable",
        "NonLinearAtom",
    }  # fmt: skip
    assert 200 <= len(rendered) - len(codes) <= 260
    digest = hashlib.sha256(repr(rendered).encode()).hexdigest()
    assert digest == PINNED_QUERY_DIGEST
