import hashlib
import random
from fractions import Fraction

import pytest

from generators import close_over, random_formula, random_assignment, strip_quantifiers
from oracles import eval_core
from vspec import core
from vspec.errors import NormaliseError
from vspec.networks import analyze_network_types
from vspec.normalise import normalise, prune_non_prop
from vspec.surface import parse
from vspec.typecheck import typecheck
from vspec.types import RAT


def check(source):
    return typecheck(parse(source))


def analysed_controller(controller_spec, controller_net):
    program = check(controller_spec.read_text())
    analyze_network_types(program, {"controller": str(controller_net)})
    return program


# -- tensor quantifier expansion ----------------------------------------------


def test_vector_quantifier_expands_to_scalars():
    program = check("p : Prop\np = forall (x : Tensor Rat [2]) . x ! 0 <= x ! 1")
    norm = normalise(program.definitions["p"], program.definitions)
    assert isinstance(norm, core.Quant) and norm.binder == "x_0"
    assert norm.binder_type == RAT
    inner = norm.body
    assert isinstance(inner, core.Quant) and inner.binder == "x_1"
    atom = inner.body
    # x ! 0 is the outer binder: de Bruijn index 1; x ! 1 is index 0.
    assert atom == core.Builtin("le", (core.Var(1), core.Var(0)), "prop")


def test_matrix_quantifier_expansion_count_and_names():
    program = check(
        "p : Prop\np = forall (x : Tensor Rat [2, 2]) . x ! 0 ! 0 <= x ! 1 ! 1"
    )
    norm = normalise(program.definitions["p"], program.definitions)
    names = []
    node = norm
    while isinstance(node, core.Quant):
        names.append(node.binder)
        node = node.body
    assert names == ["x_0_0", "x_0_1", "x_1_0", "x_1_1"]


@pytest.mark.parametrize("dims,count", [((3,), 3), ((2, 2), 4), ((2, 3, 2), 12)])
def test_expansion_count_is_product_of_dims(dims, count):
    dims_text = ", ".join(str(d) for d in dims)
    index_text = " ! 0" * len(dims)
    program = check(
        f"p : Prop\np = forall (x : Tensor Rat [{dims_text}]) . x{index_text} >= 0"
    )
    norm = normalise(program.definitions["p"], program.definitions)
    _, n = strip_quantifiers(norm)
    assert n == count


# -- the running example -------------------------------------------------------


def test_controller_property_normal_form(controller_spec, controller_net):
    analysed = analysed_controller(controller_spec, controller_net)
    props = prune_non_prop(analysed)
    assert [name for name, _ in props] == ["safe"]
    norm = props[0][1]

    p0, p1 = core.Var(1), core.Var(0)  # x_0 outer, x_1 inner
    bound = Fraction(13, 4)
    net = core.Index(
        core.NetworkApp("controller", core.TensorLit((p0, p1))), core.NatLit(0)
    )
    e = core.Builtin(
        "sub",
        (
            core.Builtin("add", (net, core.Builtin("mul", (core.RatLit(Fraction(2)), p0)))),
            p1,
        ),
    )

    def le(a, b):
        return core.Builtin("le", (a, b), "prop")

    expected = core.Quant(
        "forall",
        "x_0",
        RAT,
        core.Quant(
            "forall",
            "x_1",
            RAT,
            core.Builtin(
                "implies",
                (
                    core.Builtin(
                        "and",
                        (
                            core.Builtin(
                                "and",
                                (le(core.RatLit(-bound), p0), le(p0, core.RatLit(bound))),
                                "prop",
                            ),
                            core.Builtin(
                                "and",
                                (le(core.RatLit(-bound), p1), le(p1, core.RatLit(bound))),
                                "prop",
                            ),
                        ),
                        "prop",
                    ),
                    core.Builtin(
                        "and",
                        (
                            le(core.RatLit(Fraction(-5, 4)), e),
                            le(e, core.RatLit(Fraction(5, 4))),
                        ),
                        "prop",
                    ),
                ),
                "prop",
            ),
        ),
    )
    assert norm == expected


# -- folding -------------------------------------------------------------------


def test_constant_folding_is_exact():
    program = check("v : Rat\nv = (1 / 3 + 1 / 6) * 2")
    assert normalise(program.definitions["v"], {}) == core.RatLit(Fraction(1))


def test_unbound_variable_subterm_is_preserved():
    program = check("f : Rat -> Rat\nf x = 2 + 3 * x\n\np : Prop\np = forall x . f x >= 0")
    norm = normalise(program.definitions["p"], program.definitions)
    atom = norm.body
    assert atom.args[0] == core.Builtin(
        "add",
        (core.RatLit(Fraction(2)), core.Builtin("mul", (core.RatLit(Fraction(3)), core.Var(0)))),
    )


def test_tensor_literal_indexing_folds():
    program = check("t : Tensor Rat [3]\nt = [10, 20, 30]\n\nv : Rat\nv = t ! 1")
    assert normalise(program.definitions["v"], program.definitions) == core.RatLit(
        Fraction(20)
    )


def test_index_out_of_bounds():
    program = check("t : Tensor Rat [2]\nt = [1, 2]\n\nv : Rat\nv = t ! 5")
    with pytest.raises(NormaliseError) as err:
        normalise(program.definitions["v"], program.definitions)
    assert err.value.code == "IndexOutOfBounds"


def test_division_by_zero():
    program = check("v : Rat\nv = 1 / (2 - 2)")
    with pytest.raises(NormaliseError) as err:
        normalise(program.definitions["v"], {})
    assert err.value.code == "DivisionByZero"


# -- properties ---------------------------------------------------------------


def test_idempotence_on_random_expressions():
    rng = random.Random(20260809)
    for _ in range(150):
        n_vars = rng.randint(0, 4)
        expr = close_over(random_formula(rng, n_vars, rng.randint(0, 4)), n_vars)
        once = normalise(expr, {})
        twice = normalise(once, {})
        assert once == twice


def test_semantic_preservation_on_random_expressions():
    rng = random.Random(97)
    for _ in range(60):
        n_vars = rng.randint(1, 4)
        matrix = random_formula(rng, n_vars, rng.randint(1, 4))
        norm_matrix, stripped = strip_quantifiers(
            normalise(close_over(matrix, n_vars), {})
        )
        assert stripped == n_vars
        for _ in range(100):
            env = random_assignment(rng, n_vars)
            assert eval_core(matrix, env) == eval_core(norm_matrix, env)


def test_no_lambdas_and_only_network_frees_remain(controller_spec, controller_net):
    analysed = analysed_controller(controller_spec, controller_net)
    for name, norm in prune_non_prop(analysed):
        for sub in core.subterms(norm):
            assert not isinstance(sub, core.Lam)
            assert not isinstance(sub, core.TopRef)
            if isinstance(sub, core.NetworkApp):
                assert sub.network == "controller"


# -- pruning -------------------------------------------------------------------


def test_prune_keeps_only_prop_declarations(controller_spec, controller_net):
    analysed = analysed_controller(controller_spec, controller_net)
    assert [name for name, _ in prune_non_prop(analysed)] == ["safe"]


def test_prune_preserves_declaration_order():
    program = check(
        "a : Prop\na = 1 <= 2\n\nhelper : Rat\nhelper = 5\n\nb : Prop\nb = helper >= 0"
    )
    assert [name for name, _ in prune_non_prop(program)] == ["a", "b"]


def test_prune_of_property_free_program_is_empty():
    program = check("v : Rat\nv = 1")
    assert prune_non_prop(program) == []


# -- pinned normal forms ----------------------------------------------------------

# sha256 of repr() of the normal forms of test_pinned_normal_forms; see its docstring.
PINNED_NORMAL_FORM_DIGEST = "8d6837de66751f60de29659f748b2b0b07622e214cbcd71d0a5cb51a444d3b20"

PINNED_HEADER = """network f : Rat -> Rat -> Rat

network g : Tensor Rat [2] -> Tensor Rat [2]

h : Rat -> Rat -> Rat
h a b = 2 * a - b / 3

s : Tensor Rat [2] -> Rat
s v = v ! 0 - 2 * v ! 1

near : Rat -> Rat -> Bool
near a b = a - b <= 1 and b - a <= 1

pick : Bool -> Rat -> Rat
pick c = if c then h 1 else h 0

w : Tensor Rat [2, 2]
w = [[1, 2], [3, 1 / 2]]

flag : Bool
flag = 1 / 2 < 2 / 3

"""


def pinned_spec(rng: random.Random, index: int) -> str:
    """A seeded program over ``PINNED_HEADER``: scalar, vector and matrix
    binders; a local definition ``k`` with a parameter, referenced under
    the binders; curried (``f``) and tensor (``g``) network applications;
    numeric, formula and function-typed (``pick``) ``if``s; closed
    properties and constant atoms that fold to True or False; Nat
    arithmetic in indices; and, at fixed indices, a division by zero, an
    index out of bounds and a non-literal index, some in one property."""
    shape = index % 5
    binders = ""
    if shape == 0:
        scalars = [f"x{i}" for i in range(rng.randint(1, 2))]
        binders = " ".join(scalars)
    elif shape == 1:
        scalars = ["t ! 0", "t ! 1"]
        binders = "(t : Tensor Rat [2])"
    elif shape == 2:
        scalars = [f"m ! {i} ! {j}" for i in range(2) for j in range(2)]
        binders = "(m : Tensor Rat [2, 2])"
    elif shape == 3:
        scalars = ["x", "t ! 1"]
        binders = "x (t : Tensor Rat [2])"
    else:
        scalars = ["w ! 0 ! 1", "1 / 3"]  # closed
    vector = "t" if "t ! 1" in scalars else None

    def leaf(names):
        r = rng.random()
        if r < 0.2:
            return str(rng.randint(-3, 3))
        if r < 0.3:
            return f"{rng.randint(-3, 3)} / {rng.randint(1, 4)}"
        if r < 0.4:
            i, j = rng.randrange(2), rng.randrange(2)
            return f"w ! {rng.choice([i, f'({i} + 0)', f'({i + 1} - 1)'])} ! {j}"
        return rng.choice(names)

    def num(depth, names=scalars, nets=True, local=True):
        r = rng.random()
        if depth <= 0 or r < 0.25:
            return leaf(names)
        vec = vector if names is scalars else None
        a, b = num(depth - 1, names, nets, local), num(depth - 1, names, nets, local)
        if r < 0.4:
            return f"({a} + {b})"
        if r < 0.5:
            return f"({a} - {b})"
        if r < 0.55:
            return f"-({leaf(names)})"
        if r < 0.62:
            return f"{rng.randint(-3, 3)} * {a}"
        if r < 0.67:
            return f"h ({a}) ({b})"
        if r < 0.72:
            return f"(if {cond(depth - 1, names, local)} then {a} else {b})"
        if r < 0.77:
            c = rng.choice(["flag", "not flag", "1 <= 2", "near 0 3"])
            return f"pick ({c}) ({a})"
        if r < 0.82 and local:
            return f"k ({a})"
        if r < 0.88 and nets:
            return f"f ({a}) ({b})"
        if r < 0.94 and nets:
            arg = vec if vec and rng.random() < 0.5 else f"[{a}, {b}]"
            return f"g {arg} ! {rng.randrange(2)}"
        return f"s {vec}" if vec and rng.random() < 0.5 else f"s [{a}, {b}]"

    def cond(depth, names=scalars, local=True):
        r = rng.random()
        if depth > 0 and r < 0.15:
            return f"not ({cond(depth - 1, names, local)})"
        if depth > 0 and r < 0.3:
            return f"({cond(depth - 1, names, local)} and {cond(depth - 1, names, local)})"
        a, b = num(1, names, False, local), num(1, names, False, local)
        if r < 0.45:
            return f"near ({a}) ({b})"
        return f"{a} {rng.choice(['<=', '<', '>=', '>', '=='])} {b}"

    def formula(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if rng.random() < 0.15:
                return f"{rng.randint(0, 3)} {rng.choice(['<=', '>'])} {rng.randint(0, 3)}"
            return f"{num(2)} {rng.choice(['<=', '<', '>=', '>', '=='])} {num(2)}"
        a, b = formula(depth - 1), formula(depth - 1)
        if r < 0.45:
            return f"({a} and {b})"
        if r < 0.6:
            return f"({a} or {b})"
        if r < 0.7:
            return f"({a} => {b})"
        if r < 0.8:
            return f"not ({a})"
        if r < 0.9:
            return f"(if {cond(1)} then {a} else {b})"
        return f"(exists y . y == {num(1)} and {a})"

    k_def = f"k : Rat -> Rat\nk z = {num(2, ['z'], False, False)}\n\n"
    body = formula(2)
    if index % 29 == 3:
        body += f" and {num(1)} / (h 1 3 - 1) >= 0"
    if index % 31 == 4:
        body = f"w ! 2 ! 0 <= {num(1)} or {body}"
    if index % 37 == 5:
        binders += " (n : Nat)"
        body = f"w ! n ! 1 >= {num(1)} and {body}"
    if index % 41 == 9:
        body = f"w ! (0 - 1) ! 0 <= {num(1)} and {body}"
    if binders:
        body = f"{'exists' if index % 7 == 2 else 'forall'} {binders.strip()} . {body}"
    if index % 23 == 8:  # two errors: the one outside the binders comes first
        body = f"({body} and 1 / (h 1 3 - 1) >= 0) and w ! 2 ! 0 >= 0"
    return k_def + f"p : Prop\np = {body}\n"


def test_pinned_normal_forms(tmp_path):
    """The normaliser's output on a seeded corpus is pinned to a digest.

    240 programs from ``pinned_spec`` go through parsing, type checking and
    network analysis; each contributes the ``repr`` of ``prune_non_prop``'s
    output and of ``normalise`` of its function-valued definition ``k``, or
    the error code of either.  The header's own function-valued definitions
    (``pick`` quotes to a ``Lam`` whose ``if`` holds two more) are
    normalised once.  The digest was recorded by running this corpus on
    the normaliser whose semantic values were classes of their own, before
    the values became core nodes, so it gates "same normal forms": binder
    names, de Bruijn indices, folding, levels and error precedence that
    differ anywhere show up as a different digest.
    """
    curried = tmp_path / "f.vnet"
    curried.write_text("vnet 1\ninput 2\naffine 1 2\n2 -1\n1/2\n")
    tensor = tmp_path / "g.vnet"
    tensor.write_text("vnet 1\ninput 2\naffine 2 2\n1 -1\n3 1\n0 1\n")
    bindings = {"f": str(curried), "g": str(tensor)}
    header = check(PINNED_HEADER)
    analyze_network_types(header, bindings)
    rendered = [normalise(header.definitions[name], header.definitions, header.networks)
                for name in ("h", "s", "near", "pick", "w", "flag")]  # fmt: skip
    rng = random.Random(20261018)
    codes = []
    for index in range(240):
        analysed = check(PINNED_HEADER + pinned_spec(rng, index))
        analyze_network_types(analysed, bindings)
        for run in (
            lambda: prune_non_prop(analysed),
            lambda: normalise(analysed.definitions["k"], analysed.definitions, analysed.networks),
        ):
            try:
                rendered.append(run())
            except NormaliseError as err:
                rendered.append(err.code)
                codes.append(err.code)
    assert set(codes) == {"DivisionByZero", "IndexOutOfBounds", "NonLiteralIndex"}
    folded = [r for r in rendered if isinstance(r, list) and isinstance(r[0][1], core.BoolLit)]
    assert {r[0][1].value for r in folded} == {True, False}
    digest = hashlib.sha256(repr(rendered).encode()).hexdigest()
    assert digest == PINNED_NORMAL_FORM_DIGEST
