import sys
from fractions import Fraction

import pytest

from vspec import core
from vspec.errors import TypeCheckError
from vspec.surface import parse
from vspec.typecheck import typecheck
from vspec.types import PROP, RAT, FunT, TensorT


def check(source):
    return typecheck(parse(source))


def test_controller_spec_types(controller_spec):
    program = check(controller_spec.read_text())
    assert program.synonyms["InputVector"] == TensorT(RAT, (2,))
    assert program.networks["controller"] == FunT(TensorT(RAT, (2,)), RAT)
    assert program.def_types["safe"] == PROP
    assert program.def_types["safeInput"] == FunT(TensorT(RAT, (2,)), PROP)


def test_safe_elaborates_to_prop_quantifier(controller_spec):
    program = check(controller_spec.read_text())
    body = program.definitions["safe"]
    assert isinstance(body, core.Quant)
    assert body.kind == "forall"
    assert body.binder_type == TensorT(RAT, (2,))  # inferred from safeInput
    assert isinstance(body.body, core.Builtin)
    assert body.body.op == "implies"
    assert body.body.level == "prop"


def test_decimal_literal_elaborates_to_exact_rational():
    program = check("v : Rat\nv = 3.25")
    assert program.definitions["v"] == core.RatLit(Fraction(13, 4))


def test_quantifier_under_if_condition_is_rejected():
    with pytest.raises(TypeCheckError) as err:
        check("p : Rat\np = if (forall x . x >= 0) then 1 else 2")
    assert err.value.code == "IfConditionNotBool"


def test_network_forces_prop_instantiation():
    program = check(
        "network f : Rat -> Rat\n\np : Prop\np = exists v . f v <= 0"
    )
    quant = program.definitions["p"]
    cmp = quant.body
    assert cmp.op == "le"
    assert cmp.level == "prop"


def test_declared_bool_body_with_quantifier_is_rejected():
    with pytest.raises(TypeCheckError) as err:
        check("b : Bool\nb = forall x . x >= 0")
    assert err.value.code == "PropInBoolPosition"


def test_bool_instantiation_inside_if_condition():
    program = check("f : Rat -> Rat\nf x = if x <= 0 then 0 - x else x")
    body = program.definitions["f"].body
    assert body.op == "if"
    assert body.args[0].level == "bool"


def test_prop_signature_forces_prop_comparisons(controller_spec):
    program = check(controller_spec.read_text())
    body = program.definitions["safeInput"].body
    for sub in core.subterms(body):
        if isinstance(sub, core.Builtin) and sub.op in core.CMP_OPS:
            assert sub.level == "prop"


def test_unknown_identifier():
    with pytest.raises(TypeCheckError) as err:
        check("p : Prop\np = mystery <= 0")
    assert err.value.code == "UnknownIdentifier"


def test_unknown_type_name():
    with pytest.raises(TypeCheckError) as err:
        check("p : Vector\np = 0")
    assert err.value.code == "UnknownIdentifier"


def test_type_mismatch_reports_both_types():
    with pytest.raises(TypeCheckError) as err:
        check("f : Rat -> Rat\nf x = x\n\np : Prop\np = f 1 and f 2")
    assert err.value.code == "TypeMismatch"


def test_applying_non_function():
    with pytest.raises(TypeCheckError) as err:
        check("v : Rat\nv = 1\n\np : Rat\np = v 2")
    assert err.value.code == "TypeMismatch"


def test_tensor_literal_against_network_domain():
    program = check(
        "network f : Tensor Rat [2] -> Tensor Rat [1]\n\n"
        "p : Prop\np = forall a b . f [a, b] ! 0 >= 0"
    )
    quant = program.definitions["p"]
    assert quant.binder_type == RAT  # inferred through the tensor literal


def test_real_is_treated_as_rat():
    program = check("v : Real\nv = 1.5")
    assert program.def_types["v"] == RAT


def test_index_type_must_be_resolvable():
    with pytest.raises(TypeCheckError) as err:
        check("p : Prop\np = forall x . x ! 0 <= 1")
    assert err.value.code == "TypeMismatch"


def test_typechecking_is_deterministic(controller_spec):
    source = controller_spec.read_text()
    first = check(source)
    second = check(source)
    assert first.definitions == second.definitions


def test_every_quant_is_prop_and_every_if_condition_bool():
    source = (
        "network f : Rat -> Rat\n\n"
        "g : Rat -> Rat\ng x = if x <= 0 and x >= 0 - 1 then x else 2 * x\n\n"
        "p : Prop\np = forall v . g v <= 1 => f v <= 1\n\n"
        "q : Prop\nq = exists v . (if v <= 0 then v else f v) >= 0"
    )
    program = check(source)

    def walk(e):
        if isinstance(e, core.Quant):
            # A quantifier body is always checked at the Prop level.
            for sub in core.subterms(e.body):
                if isinstance(sub, core.Builtin) and sub.op in ("and", "or", "implies"):
                    assert sub.level == "prop"
        if isinstance(e, core.Builtin) and e.op == "if":
            cond = e.args[0]
            for sub in core.subterms(cond):
                if isinstance(sub, core.Builtin) and sub.level is not None:
                    assert sub.level == "bool"
        for child in core.children(e):
            walk(child)

    for body in program.definitions.values():
        walk(body)


NET = "network f : Rat -> Rat\n\n"
POS = "pos : Prop\npos = forall x . x >= 0\n\n"
SMALL = "small : Rat -> Bool\nsmall v = v <= 1 and v >= 0\n\n"


@pytest.mark.parametrize(
    "source, expected",
    [
        (POS + "g : Rat -> Rat\ng v = if pos then v else 0", "IfConditionNotBool"),
        (POS + "b : Bool\nb = pos", "PropInBoolPosition"),
        (NET + "g : Rat -> Rat\ng v = if f v >= 0 then v else 0", "IfConditionNotBool"),
        (
            NET + "h : Rat -> Rat\nh v = f v + 1\n\nb : Rat -> Bool\nb v = h v >= 0",
            "PropInBoolPosition",
        ),
        (NET + "b : Rat -> Bool\nb f = f >= 0", {"b": [("ge", "bool")]}),
        (
            SMALL
            + "p : Prop\np = forall x . small x => x <= 1\n\n"
            + "g : Rat -> Rat\ng v = if small v then v else 0",
            {
                "small": [("and", "bool"), ("le", "bool"), ("ge", "bool")],
                "p": [("implies", "prop"), ("le", "prop")],
                "g": [("if", None)],
            },
        ),
    ],
    ids=[
        "prop-definition-in-if-condition",
        "prop-definition-as-bool-body",
        "network-in-if-condition",
        "network-through-numeric-helper-in-bool-definition",
        "binder-shadowing-a-network-stays-bool",
        "bool-helper-keeps-its-levels",
    ],
)
def test_levels_through_definitions(source, expected):
    if isinstance(expected, str):
        with pytest.raises(TypeCheckError) as err:
            check(source)
        assert err.value.code == expected
        return
    program = check(source)
    for name, want in expected.items():
        got = [
            (sub.op, sub.level)
            for sub in core.subterms(program.definitions[name])
            if isinstance(sub, core.Builtin)
        ]
        assert got == want, name


def test_if_of_bool_variables_in_an_operand_is_tagged_prop():
    # An operand of an application takes the Prop level when its inferred
    # type is a formula, so this `if` of two Bool parameters is tagged
    # "prop"; no backend reads the level of an `if` node.
    program = check(
        "g : Bool -> Rat\ng c = 0\n\nh : Bool -> Bool -> Rat\nh a b = g (if a then b else a)"
    )
    app = program.definitions["h"].body.body
    assert isinstance(app, core.App)
    assert app.arg == core.Builtin(
        "if", (core.Var(1), core.Var(0), core.Var(1)), "prop"
    )


def _typecheck_calls(conjuncts):
    """Python function calls made while type-checking an n-conjunct chain."""
    atoms = " and ".join(f"x ! {k % 2} <= {k}" for k in range(conjuncts))
    decls = parse(
        "type InputVector = Tensor Rat [2]\n\nnetwork net : InputVector -> Rat\n\n"
        f"chain : Prop\nchain = forall (x : InputVector) . {atoms} => net x <= 0\n"
    )
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        typecheck(decls)
    finally:
        sys.setprofile(None)
    return calls


def test_typechecking_scales_linearly_with_the_chain_length():
    # Deterministic: counts calls, not time.  Doubling the chain must at
    # most double the work, give or take the fixed cost of the header.
    small, large = _typecheck_calls(150), _typecheck_calls(300)
    assert large / small <= 2.2, (small, large)
