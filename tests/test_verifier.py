import hashlib
import random
import sys
from fractions import Fraction

import pytest

from oracles import (
    UnboundedInput,
    constraint_holds,
    evaluate_networks,
    flat_phase_search,
    grid_oracle,
    least_feasible_leaf,
    network_equalities,
    phase_rows,
    propagate_bounds,
    run_network_by_hand,
    unroll,
)
from vspec import cli, verifier
from vspec.errors import VerifyError
from vspec.networks import Affine, NetworkInfo, NetworkModel, Relu, parse_vnet
from vspec.queries import LinearConstraint, LinearQuery, MetaNetwork, QVar
from vspec.types import RAT, FunT, TensorT
from vspec.verdicts import Sat, Unsat
from vspec.verifier import LPProblem, check_query, engine

IDENTITY_VNET = """\
vnet 1
input 1
affine 2 1
1
-1
0 0
relu
affine 1 2
1 -1
0
"""


def make_ctx(**models: NetworkModel):
    ctx = {}
    for name, model in models.items():
        declared = FunT(
            TensorT(RAT, (model.input_size,)), TensorT(RAT, (model.output_size,))
        )
        ctx[name] = NetworkInfo(model, declared, f"<memory:{name}>", "0" * 64)
    return ctx


def identity_model(name="f"):
    return parse_vnet(IDENTITY_VNET, name)


def affine_model(weights, bias, name="f"):
    w = tuple(tuple(Fraction(x) for x in row) for row in weights)
    b = tuple(Fraction(x) for x in bias)
    return NetworkModel(name, len(w[0]), len(w), (Affine(w, b),))


def constraint(terms, rel, rhs):
    ordered = tuple(
        sorted(((QVar(k, i), Fraction(v)) for (k, i), v in terms.items())),
    )
    return LinearConstraint(ordered, rel, Fraction(rhs))


def box_query(meta, bounds, extra):
    constraints = []
    for i, (lo, hi) in enumerate(bounds):
        constraints.append(constraint({("x", i): 1}, ">=", lo))
        constraints.append(constraint({("x", i): 1}, "<=", hi))
    constraints.extend(extra)
    return LinearQuery(constraints, meta)


# -- the forward pass -----------------------------------------------------------


def forward(query, ctx):
    """The engine's forward pass over ``query``'s input box."""
    return engine._forward(query.meta, ctx, engine._input_box(query))


def fixed_phases(run) -> dict[int, str]:
    """The phases a forward pass fixed, by ReLU node."""
    return {node: phase for node, phase in enumerate(run.phases) if phase}


def free_nodes(run) -> list[int]:
    """The ReLU nodes a forward pass left free, in node order."""
    return [node for node, phase in enumerate(run.phases) if phase is None]


def test_unroll_identity_trick_network_counts():
    ctx = make_ctx(f=identity_model())
    meta = MetaNetwork((("f", 1, 1),))
    run = engine._forward(meta, ctx, [(None, None)])
    # An unbounded input fixes neither of the 2 ReLU nodes.  The coordinates
    # are the input and both ReLU outputs, and y = relu(x) - relu(-x).
    assert run.phases == [None, None]
    assert run.num_coords == 3
    assert run.free == [(({0: 1}, 0), (None, None), 1), (({0: -1}, 0), (None, None), 2)]
    assert run.outputs == [({1: 1, 2: -1}, 0)]
    # Numbered: 2 affine rows (first layer) + 1 affine row writing the output.
    assert len(network_equalities(unroll(meta, ctx))) == 3


def test_unroll_affine_only_network_is_purely_linear():
    ctx = make_ctx(f=affine_model([[2, -1]], [3]))
    run = engine._forward(MetaNetwork((("f", 2, 1),)), ctx, [(None, None)] * 2)
    assert run.phases == []
    assert run.outputs == [({0: 2, 1: -1}, 3)]


def test_unroll_two_applications_doubles_relu_nodes():
    layers = (
        Affine(tuple((Fraction(1),) for _ in range(8)) , tuple(Fraction(0) for _ in range(8))),
        Relu(8),
        Affine((tuple(Fraction(1) for _ in range(8)),), (Fraction(0),)),
    )
    model = NetworkModel("f", 1, 1, layers)
    ctx = make_ctx(f=model)
    meta = MetaNetwork((("f", 1, 1), ("f", 1, 1)))
    run = engine._forward(meta, ctx, [(None, None)] * 2)
    assert len(run.phases) == 16


# -- bound propagation -----------------------------------------------------------


def test_positive_input_fixes_relu_active():
    model = NetworkModel(
        "f", 1, 1, (Affine(((Fraction(1),),), (Fraction(0),)), Relu(1))
    )
    ctx = make_ctx(f=model)
    meta = MetaNetwork((("f", 1, 1),))
    query = box_query(meta, [(1, 2)], [])
    assert fixed_phases(forward(query, ctx)) == {0: "active"}


def test_interval_endpoint_arithmetic():
    # z = -2x + y over x, y in [-3.25, 3.25] lies in [-9.75, 9.75].
    model = NetworkModel(
        "f",
        2,
        1,
        (Affine(((Fraction(-2), Fraction(1)),), (Fraction(0),)), Relu(1)),
    )
    ctx = make_ctx(f=model)
    meta = MetaNetwork((("f", 2, 1),))
    bound = Fraction(13, 4)
    query = box_query(meta, [(-bound, bound), (-bound, bound)], [])
    run = forward(query, ctx)
    assert [bounds for _, bounds, _ in run.free] == [(Fraction(-39, 4), Fraction(39, 4))]
    assert fixed_phases(run) == {}


def test_unbounded_inputs_fix_nothing():
    model = NetworkModel(
        "f", 1, 1, (Affine(((Fraction(1),),), (Fraction(0),)), Relu(1))
    )
    ctx = make_ctx(f=model)
    meta = MetaNetwork((("f", 1, 1),))
    query = LinearQuery([], meta)
    assert fixed_phases(forward(query, ctx)) == {}


# -- check_query ------------------------------------------------------------------


def test_identity_network_unsat_query():
    ctx = make_ctx(f=identity_model())
    meta = MetaNetwork((("f", 1, 1),))
    query = LinearQuery(
        [constraint({("x", 0): 1}, ">=", 1), constraint({("y", 0): 1}, "<=", 0)], meta
    )
    assert isinstance(check_query(query, ctx), Unsat)


def test_identity_network_sat_query_with_witness():
    ctx = make_ctx(f=identity_model())
    meta = MetaNetwork((("f", 1, 1),))
    query = LinearQuery(
        [constraint({("x", 0): 1}, ">=", 1), constraint({("y", 0): 1}, ">=", 1)], meta
    )
    verdict = check_query(query, ctx)
    assert isinstance(verdict, Sat)
    values = dict(verdict.witness)
    assert values[QVar("y", 0)] == values[QVar("x", 0)]
    assert values[QVar("x", 0)] >= 1


def controller_queries(model):
    ctx = make_ctx(controller=model)
    meta = MetaNetwork((("controller", 2, 1),))
    bound = Fraction(13, 4)
    e = {("y", 0): 1, ("x", 0): 2, ("x", 1): -1}
    q1 = box_query(
        meta,
        [(-bound, bound), (-bound, bound)],
        [constraint(e, "<", Fraction(-5, 4))],
    )
    q2 = box_query(
        meta,
        [(-bound, bound), (-bound, bound)],
        [constraint(e, ">", Fraction(5, 4))],
    )
    return ctx, q1, q2


def test_handcrafted_controller_is_safe(controller_net):
    model = parse_vnet(controller_net.read_text(), "controller")
    ctx, q1, q2 = controller_queries(model)
    assert isinstance(check_query(q1, ctx), Unsat)
    assert isinstance(check_query(q2, ctx), Unsat)


def test_zero_controller_is_falsified_and_witness_checks(controller_zero_net):
    model = parse_vnet(controller_zero_net.read_text(), "controller")
    ctx, q1, q2 = controller_queries(model)
    sat_any = False
    for query in (q1, q2):
        verdict = check_query(query, ctx)
        if isinstance(verdict, Sat):
            sat_any = True
            values = dict(verdict.witness)
            assert all(constraint_holds(c, values) for c in query.constraints)
            inputs = [values[QVar("x", 0)], values[QVar("x", 1)]]
            assert run_network_by_hand(model.layers, inputs) == [values[QVar("y", 0)]]
    assert sat_any


# -- oracle agreement ---------------------------------------------------------------


def random_relu_model(rng: random.Random, name="f"):
    n_in = rng.randint(1, 2)
    hidden = rng.randint(1, 6)
    w1 = tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(n_in)) for _ in range(hidden)
    )
    b1 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(hidden))
    w2 = tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(hidden)) for _ in range(1)
    )
    b2 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(1))
    return NetworkModel(name, n_in, 1, (Affine(w1, b1), Relu(hidden), Affine(w2, b2)))


def random_instance(rng: random.Random):
    model = random_relu_model(rng)
    ctx = make_ctx(f=model)
    meta = MetaNetwork((("f", model.input_size, 1),))
    bounds = []
    for _ in range(model.input_size):
        lo = rng.randint(-4, 2)
        bounds.append((Fraction(lo), Fraction(lo + rng.randint(1, 5))))
    terms = {("y", 0): Fraction(rng.randint(-2, 2)) or Fraction(1)}
    if rng.random() < 0.5:
        terms[("x", 0)] = Fraction(rng.randint(-2, 2))
    rel = rng.choice(["<=", "<", ">=", ">"])
    extra = [constraint(terms, rel, rng.randint(-8, 8))]
    return ctx, box_query(meta, bounds, extra)


def test_agreement_with_grid_oracle():
    rng = random.Random(424242)
    for _ in range(120):
        ctx, query = random_instance(rng)
        verdict = check_query(query, ctx)
        oracle = grid_oracle(query, ctx, resolution=6)
        if oracle is not None:
            assert isinstance(verdict, Sat), "oracle found a witness but solver said UNSAT"
        if isinstance(verdict, Sat):
            values = dict(verdict.witness)
            assert all(constraint_holds(c, values) for c in query.constraints)
            model = ctx["f"].model
            inputs = [values[QVar("x", i)] for i in range(model.input_size)]
            assert run_network_by_hand(model.layers, inputs) == [values[QVar("y", 0)]]


# Layer stacks, A an affine layer and R a ReLU layer: one or two hidden
# layers, affine after affine, ReLU after ReLU (the second is fixed Active
# by bounds and feeds the last layer), a final ReLU, and ReLUs on the inputs.
SHAPES = ("ARA", "ARARA", "AARA", "ARRA", "ARAR", "RA")


def random_deep_model(rng: random.Random, n_in: int, name: str):
    """A stack of one of ``SHAPES`` with hidden widths 1-3 and one output,
    or now and then a layerless net (y = x).  A quarter of the nets have
    float32-style weights (dyadic, 23 fraction bits) and a fifth an
    all-zero last affine layer."""
    if rng.random() < 0.2:
        return NetworkModel(name, n_in, n_in, ())
    dyadic = rng.random() < 0.25
    zero_out = rng.random() < 0.2

    def weight():
        if dyadic:
            return Fraction(rng.randint(-3 << 23, 3 << 23), 1 << 23)
        return Fraction(rng.randint(-3, 3))

    shape = rng.choice(SHAPES)
    last_affine = shape.rindex("A")
    layers = []
    width = n_in
    for i, kind in enumerate(shape):
        if kind == "R":
            layers.append(Relu(width))
            continue
        out = 1 if i == last_affine else rng.randint(1, 3)
        zero = zero_out and i == last_affine
        w = tuple(tuple(Fraction(0) if zero else weight() for _ in range(width)) for _ in range(out))
        b = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(out))
        layers.append(Affine(w, b))
        width = out
    return NetworkModel(name, n_in, 1, tuple(layers))


def random_search_instance(rng: random.Random):
    """A query over one or two applications of random nets.  Inputs are
    boxed, half-bounded or free; one or two extra rows over inputs and
    outputs use every relation, ``=`` included."""
    models = {name: random_deep_model(rng, rng.randint(1, 2), name) for name in ("f", "g")}
    apps = rng.choice(("f", "g", "fg", "gf", "ff"))
    meta = MetaNetwork(
        tuple((a, models[a].input_size, models[a].output_size) for a in apps)
    )
    constraints = []
    for i in range(meta.total_inputs):
        lo = rng.randint(-3, 1)
        kind = rng.random()
        if kind < 0.7:
            constraints.append(constraint({("x", i): 1}, ">=", lo))
        if kind < 0.6 or kind >= 0.85:
            constraints.append(constraint({("x", i): 1}, "<=", lo + rng.randint(1, 4)))
    for _ in range(rng.randint(1, 2)):
        terms = {("y", j): rng.choice((-2, -1, 1, 2)) for j in range(meta.total_outputs)}
        if rng.random() < 0.5:
            terms[("x", rng.randrange(meta.total_inputs))] = rng.choice((-1, 1))
        rel = rng.choice(["<=", "<", ">=", ">", "="])
        constraints.append(constraint(terms, rel, Fraction(rng.randint(-6, 6), 2)))
    return make_ctx(**models), LinearQuery(constraints, meta)


def search_instances(seed: int, count: int, free=range(8)):
    """``count`` seeded ``random_search_instance``s with their forward
    passes, skipping those whose number of free ReLUs is not in ``free``
    (the flat search solves 2^k LPs: by default at most 7, to keep it
    quick)."""
    rng = random.Random(seed)
    for _ in range(count):
        while True:
            ctx, query = random_search_instance(rng)
            run = forward(query, ctx)
            if len(run.free) in free:
                break
        yield ctx, query, run


def test_search_matches_the_flat_phase_search():
    """Verdict and witness equal those of one LP per leaf in order.  The
    shapes the free-coordinate forms must handle are counted only when
    the search runs, that is when some ReLU is free."""
    seen = dict.fromkeys(("sat", "unsat", "strict", "=", "no upper triangle row",
                          "two hidden layers", "two applications", "layerless",
                          "all-zero layer", "query row with no terms", "affine after affine",
                          "relu after relu", "final relu", "fixed relu feeding a layer",
                          "dyadic weights"), 0)  # fmt: skip
    for ctx, query, run in search_instances(20261018, 400):
        verdict = check_query(query, ctx)
        assert repr(verdict) == repr(flat_phase_search(query, ctx))
        relations = {c.relation for c in query.constraints}
        seen["sat" if isinstance(verdict, Sat) else "unsat"] += 1
        seen["strict"] += bool(relations & {"<", ">"})
        seen["="] += "=" in relations
        seen["no upper triangle row"] += any(None in bounds for _, bounds, _ in run.free)
        seen["two hidden layers"] += any(
            len(ctx[name].model.layers) == 5 for name, _, _ in query.meta.applications
        )
        seen["two applications"] += len(query.meta.applications) == 2
        if not run.free:
            continue
        models = [ctx[name].model for name, _, _ in query.meta.applications]
        shapes = {"".join("R" if isinstance(x, Relu) else "A" for x in m.layers) for m in models}
        affine = [x for m in models for x in m.layers if isinstance(x, Affine)]
        rows = engine._rows(query, run)
        skeleton = unroll(query.meta, ctx)  # numbered: which ReLUs write an output
        outputs = {vid for qv, vid in skeleton.qvar_ids.items() if qv.kind == "y"}
        seen["layerless"] += "" in shapes
        seen["all-zero layer"] += any(not any(map(any, x.weights)) for x in affine)
        seen["query row with no terms"] += any(not c.terms for c in rows)
        seen["affine after affine"] += any("AA" in shape for shape in shapes)
        seen["relu after relu"] += any("RR" in shape for shape in shapes)
        seen["final relu"] += any(shape.endswith("R") for shape in shapes)
        seen["fixed relu feeding a layer"] += any(
            skeleton.relu_nodes[i].post_var not in outputs for i in fixed_phases(run)
        )
        seen["dyadic weights"] += any(
            w.denominator == 1 << 23 for x in affine for row in x.weights for w in row
        )
    assert min(seen.values()) >= 25, seen


def sample_box(rng: random.Random, box) -> list[Fraction]:
    """A point of ``box``, in steps of 1/8 of a bounded side and of 1/4
    elsewhere."""
    point = []
    for lo, hi in box:
        if lo is not None and hi is not None:
            point.append(lo + (hi - lo) * Fraction(rng.randint(0, 8), 8))
        elif lo is not None:
            point.append(lo + Fraction(rng.randint(0, 16), 4))
        elif hi is not None:
            point.append(hi - Fraction(rng.randint(0, 16), 4))
        else:
            point.append(Fraction(rng.randint(-16, 16), 4))
    return point


def assert_pass_agrees(query, ctx, rng: random.Random, seen: dict) -> None:
    """The forward pass fixes the phases that the oracle's numbered
    unroller and interval propagation fix, leaves the same ReLUs free, in
    node order, with the same pre-activation intervals, and gives their
    outputs the coordinates after the inputs.  At seeded points of the
    input box, run through the networks by hand, each free pre form is the
    pre-activation (its ReLU's output is ``max(pre, 0)``) and each
    relational variable's form its value."""
    box = engine._input_box(query)
    run = engine._forward(query.meta, ctx, box)
    skeleton = unroll(query.meta, ctx)
    intervals, fixed = propagate_bounds(skeleton, query)
    assert fixed_phases(run) == fixed
    assert len(run.phases) == len(skeleton.relu_nodes)
    free = [node for node in skeleton.relu_nodes if node.node_id not in fixed]
    assert free_nodes(run) == [node.node_id for node in free]
    assert [bounds for _, bounds, _ in run.free] == [intervals[node.pre_var] for node in free]
    num_inputs = query.meta.total_inputs
    assert [post for _, _, post in run.free] == list(range(num_inputs, run.num_coords))

    def value(form, point):
        coeffs, constant = form
        return constant + sum(k * point[c] for c, k in coeffs.items())

    for _ in range(3):
        inputs = sample_box(rng, box)
        outputs, values = run_by_hand(query, ctx, inputs)
        point = [x - (lo or 0) for x, (lo, _) in zip(inputs, box)]
        point += [outputs[node] for node in free_nodes(run)]
        for (pre, _, _), node in zip(run.free, free_nodes(run)):
            assert max(value(pre, point), 0) == outputs[node]
        relational = [QVar("x", i) for i in range(num_inputs)]
        relational += [QVar("y", j) for j in range(query.meta.total_outputs)]
        assert [value(form, point) for form in run.inputs + run.outputs] == [
            values[qv] for qv in relational
        ]
    seen["free"] += len(run.free)
    seen["fixed inactive"] += list(fixed.values()).count("inactive")
    seen["fixed active"] += list(fixed.values()).count("active")
    seen["half-bounded or free input"] += any(None in side for side in box)


def test_forward_pass_agrees_with_the_numbered_unroller():
    """Over the 400 instances of ``test_search_matches_the_flat_phase_search``
    and the six deep nets of ``test_lp_count_of_deep_verified_nets``."""
    rng = random.Random(20261023)
    seen = dict.fromkeys(("free", "fixed inactive", "fixed active",
                          "half-bounded or free input"), 0)  # fmt: skip
    for ctx, query, _ in search_instances(20261018, 400):
        assert_pass_agrees(query, ctx, rng, seen)
    assert min(seen.values()) >= 25, seen
    nets = random.Random(7)
    meta = MetaNetwork((("f", 2, 1),))
    query = box_query(meta, [(-1, 1), (-1, 1)], [constraint({("y", 0): 1}, ">", 0)])
    shallow = seen["free"]
    for widths in [(8, 8)] * 3 + [(6, 6, 6)] * 3:
        assert_pass_agrees(query, make_ctx(f=random_layered_model(nets, widths)), rng, seen)
    assert seen["free"] - shallow >= 60, seen


def random_layered_model(rng: random.Random, widths, name="f"):
    """A net of 2 inputs, ReLU layers of ``widths`` and one output, with
    weights and biases in steps of 1/4 in [-2, 2]."""

    def quarter():
        return Fraction(rng.randint(-8, 8), 4)

    layers, width = [], 2
    for out in widths:
        w = tuple(tuple(quarter() for _ in range(width)) for _ in range(out))
        layers += [Affine(w, tuple(quarter() for _ in range(out))), Relu(out)]
        width = out
    last = Affine((tuple(quarter() for _ in range(width)),), (quarter(),))
    return NetworkModel(name, 2, 1, tuple(layers) + (last,))


def random_layered_instance(rng: random.Random):
    """A random two- or three-hidden-layer net over [-1, 1]^2, with one
    output row of any relation or a strict band ``c < y < c + d``."""
    model = random_layered_model(rng, [rng.randint(2, 4) for _ in range(rng.randint(2, 3))])
    c = Fraction(rng.randint(-12, 12), 4)
    rows = [constraint({("y", 0): 1}, rng.choice(["<=", "<", ">=", ">", "="]), c)]
    if rng.random() < 0.5:
        d = Fraction(rng.randint(1, 4), 8)
        rows = [constraint({("y", 0): 1}, ">", c), constraint({("y", 0): 1}, "<", c + d)]
    meta = MetaNetwork((("f", 2, 1),))
    return make_ctx(f=model), box_query(meta, [(-1, 1), (-1, 1)], rows)


def run_by_hand(query, ctx, inputs: list[Fraction]) -> tuple[list[Fraction], dict]:
    """One pass through the networks: the output of every ReLU unit,
    application by application and layer by layer (the order in which
    unrolling numbers the ReLU nodes), and the value of every relational
    variable, as ``evaluate_networks`` gives it."""
    outputs = []
    variables = {QVar("x", i): v for i, v in enumerate(inputs)}
    in_off, out_off = query.meta.input_offsets, query.meta.output_offsets
    for a, (name, m, n) in enumerate(query.meta.applications):
        values = inputs[in_off[a] : in_off[a] + m]
        for layer in ctx[name].model.layers:
            values = run_network_by_hand((layer,), values)
            if isinstance(layer, Relu):
                outputs += values
        variables.update((QVar("y", out_off[a] + t), values[t]) for t in range(n))
    return outputs, variables


def test_refutation_search_agrees_with_the_ordered_search(monkeypatch):
    """The walk fixes the phases of the lexicographically least feasible
    leaf, which a depth-first search in node order over flat prefix LPs
    finds (``least_feasible_leaf``), and a query the search refutes runs
    no walk.  Every point ``_search`` returns, from the root or from a walk
    step, is a network point: the ReLU outputs computed from the point's
    inputs are its free ReLU coordinates, and the query holds there."""
    search, walk = engine._search, engine._walk
    depth = 0
    nodes = []  # one per search node
    tops = []  # whether a point was found, per search from the root or a walk step
    points = {}  # id -> (point, ReLUs left unbranched at the node that found it)
    walks = []

    def recording_search(problem, relus, unbranched):
        nonlocal depth
        nodes.append(problem)
        depth += 1
        found = search(problem, relus, unbranched)
        depth -= 1
        if found is not None and id(found) not in points:
            points[id(found)] = found, unbranched
        if not depth:
            tops.append(found is not None)
        return found

    def recording_walk(root, point, relus):
        walks.append(walk(root, point, relus))
        return walks[-1]

    monkeypatch.setattr(engine, "_search", recording_search)
    monkeypatch.setattr(engine, "_walk", recording_walk)
    rng = random.Random(20261019)
    generators = (random_instance, random_search_instance) * 2 + (random_layered_instance,)
    seen = dict.fromkeys(("refuted by the search", "sat by no positive gap", "sat at a leaf",
                          "walk step found", "walk step refuted", "two hidden layers",
                          "three hidden layers", "9-12 free"), 0)  # fmt: skip
    for n in range(2_000):
        while True:
            ctx, query = generators[n % 5](rng)
            run = forward(query, ctx)
            if 0 < len(run.free) <= 12:
                break
        nodes.clear()
        tops.clear()
        points.clear()
        walks.clear()
        verdict = check_query(query, ctx)
        oracle = least_feasible_leaf(query, ctx)
        if isinstance(verdict, Unsat):
            assert oracle is None
            assert tops == [False] and not walks
            seen["refuted by the search"] += len(nodes) > 1
        else:
            phases, witness = oracle
            assert walks == [phases]
            assert repr(verdict) == repr(witness)
            assert tops[0]
            seen["walk step found"] += tops[1:].count(True)
            seen["walk step refuted"] += tops[1:].count(False)
            num_inputs = query.meta.total_inputs
            for point, unbranched in points.values():
                seen["sat by no positive gap" if unbranched else "sat at a leaf"] += 1
                # An input with a lower bound is searched as its offset from it.
                inputs = [p + offset for p, (_, offset) in zip(point, run.inputs)]
                outputs, values = run_by_hand(query, ctx, inputs)
                for j, node in enumerate(free_nodes(run)):
                    assert point[num_inputs + j] == outputs[node]
                assert all(constraint_holds(c, values) for c in query.constraints)
        depths = {sum(isinstance(x, Relu) for x in ctx[name].model.layers)
                  for name, _, _ in query.meta.applications}  # fmt: skip
        seen["two hidden layers"] += 2 in depths
        seen["three hidden layers"] += 3 in depths
        seen["9-12 free"] += len(run.free) >= 9
    assert min(seen.values()) >= 25, seen


def test_pinned_search_outputs(monkeypatch):
    """The outputs of 400 seeded search instances, pinned by digest so that
    a refactor of the engine or the LP cannot move them unseen: the verdicts
    and witnesses, the LP that gives each witness (its variables and its
    rows in order, which fix the witness under Bland's rule), and the LP
    counts.  The first two are outputs; the counts are search facts, which
    a change to the search may move.  Under the two-phase primal simplex
    the verdict digest was 4c7437dc... and the LP-count digest 6836d502...:
    warm points, which the search reads, and 24 of the 225 witnesses
    moved, but no witness LP did.  With the witness LP over all network
    variables, all free, the digests were d7e7cd35..., 56d95ad0... and
    d5c3c1da...; over the inputs alone, a query with no free ReLU takes
    its witness from the root and solves one LP fewer."""
    calls = count_lp_calls(monkeypatch)
    verdicts, witness_lps, counts = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    shapes = dict.fromkeys(("no free relu", "layerless", "sat with free", "sat without"), 0)
    for ctx, query, run in search_instances(20261020, 400):
        free = len(run.free)
        calls.clear()
        verdict = check_query(query, ctx)
        verdicts.update(f"{verdict!r}\n".encode())
        counts.update(f"{len(calls)}\n".encode())
        shapes["no free relu"] += not free
        shapes["layerless"] += any(
            not ctx[name].model.layers for name, _, _ in query.meta.applications
        )
        if isinstance(verdict, Sat):
            shapes["sat with free" if free else "sat without"] += 1
            witness_lps.update(f"{calls[-1].num_vars} {calls[-1].constraints!r}\n".encode())
    assert shapes == {"no free relu": 132, "layerless": 122, "sat with free": 163, "sat without": 62}
    assert verdicts.hexdigest() == "21015bd272fa10a4853ee4d3518fe8203fcee910374cf4c14b8dd320c7572ea4"
    assert witness_lps.hexdigest() == "9b9efb8ac104679a3b16eb6d5a289051750c2642b1ef02a8754dab90128352b3"
    assert counts.hexdigest() == "a4b90cce33cd8d5c3950784897f007813eb9a72fe880f1a845e579622a3a5811"


def test_pruning_neutrality(monkeypatch):
    rng = random.Random(7777)
    instances = [random_instance(rng) for _ in range(40)]
    with_pruning = [isinstance(check_query(query, ctx), Sat) for ctx, query in instances]
    # A pass over an input box with no bounds, a rule that fixes no phase
    # and triangles without their upper face leave every ReLU to the search
    # with no bound used: a row whose weights are all 0 still has the
    # interval (b, b), which would otherwise fix its ReLU and add an upper
    # face.  The query's rows still bound the inputs.
    triangle_rows = engine._triangle_rows
    monkeypatch.setattr(
        engine, "_input_box", lambda query: [(None, None)] * query.meta.total_inputs
    )
    monkeypatch.setattr(engine, "_fixed_phase", lambda lo, hi: None)
    monkeypatch.setattr(
        engine, "_triangle_rows", lambda pre, post, bounds: triangle_rows(pre, post, (None, None))
    )
    without = [isinstance(check_query(query, ctx), Sat) for ctx, query in instances]
    assert with_pruning == without


def test_witness_does_not_depend_on_the_phases_bounds_fix(monkeypatch):
    """With the inputs' lower bounds kept and no phase fixed by bounds,
    every ReLU is left to the search and the walk, and the verdict and
    witness do not move: the walk fixes each phase that bounds fixed, and
    the witness LP has one sign row per ReLU either way.  (The triangles
    keep only their lower face: the upper one, over bounds that do not
    straddle 0, would cut off points of the network.)  The exception is a
    ReLU fixed Active at a pre-activation bound of exactly 0, where the
    walk fixes Inactive, also feasible at ``pre = 0``: a different leaf."""
    rng = random.Random(20261022)
    instances = []
    while len(instances) < 150:
        ctx, query = random_search_instance(rng)
        skeleton = unroll(query.meta, ctx)
        intervals, fixed = propagate_bounds(skeleton, query)
        boundary = any(
            phase == "active" and intervals[skeleton.relu_nodes[i].pre_var][0] == 0
            for i, phase in fixed.items()
        )
        if fixed and not boundary and len(skeleton.relu_nodes) <= 8:
            instances.append((ctx, query))
    verdicts = [repr(check_query(query, ctx)) for ctx, query in instances]
    triangle_rows = engine._triangle_rows
    monkeypatch.setattr(engine, "_fixed_phase", lambda lo, hi: None)
    monkeypatch.setattr(
        engine, "_triangle_rows", lambda pre, post, bounds: triangle_rows(pre, post, (None, None))
    )
    assert [repr(check_query(query, ctx)) for ctx, query in instances] == verdicts
    assert sum(verdict.startswith("Sat(") for verdict in verdicts) >= 50


def count_lp_calls(monkeypatch) -> list:
    """Record every LP the engine solves, warm or cold."""
    calls = []
    original = engine.feasible

    def counting(problem):
        calls.append(problem)
        return original(problem)

    monkeypatch.setattr(engine, "feasible", counting)
    return calls


def test_phase_exhaustiveness_in_unsat_case(monkeypatch):
    ctx = make_ctx(f=identity_model())
    meta = MetaNetwork((("f", 1, 1),))
    # Unbounded input: neither relu phase can be fixed.  The root relaxation
    # is feasible; both children of the first ReLU are infeasible, so the
    # search prunes them and never branches on the second: 3 LPs, where the
    # 2^2 leaves would be 4.
    query = LinearQuery(
        [constraint({("y", 0): 1, ("x", 0): -1}, ">", 0)], meta  # y > x is impossible
    )
    calls = count_lp_calls(monkeypatch)
    verdict = check_query(query, ctx)
    assert isinstance(verdict, Unsat)
    assert len(calls) == 3


def count_pivots(monkeypatch) -> list:
    """Record every simplex pivot, cold or warm."""
    from vspec.verifier import lp

    pivots = []
    original = lp._pivot

    def counting(*args, **kwargs):
        pivots.append(args[3])  # the entering column
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "_pivot", counting)
    return pivots


def count_row_operations(monkeypatch) -> list:
    """Record every tableau row operation (``lp._eliminate``): one per row
    a pivot changes, and one per basic column cleared from an added row or
    from a new cost row."""
    from vspec.verifier import lp

    operations = []
    original = lp._eliminate

    def counting(*args):
        operations.append(args[1])  # the factor of the pivot row
        return original(*args)

    monkeypatch.setattr(lp, "_eliminate", counting)
    return operations


def test_lp_count_of_the_controller_fixture(monkeypatch, controller_net):
    # Each of the two UNSAT queries has four free ReLUs: one root LP without
    # a parent and 6 warm ones, branching on the loosest ReLU first.  The
    # flat search solves 16 leaf LPs per query.
    model = parse_vnet(controller_net.read_text(), "controller")
    ctx, q1, q2 = controller_queries(model)
    calls = count_lp_calls(monkeypatch)
    pivots = count_pivots(monkeypatch)
    operations = count_row_operations(monkeypatch)
    assert isinstance(check_query(q1, ctx), Unsat)
    assert isinstance(check_query(q2, ctx), Unsat)
    assert len(calls) == 14
    assert sum(problem.parent is None for problem in calls) == 2
    # The search runs over 2 inputs and 4 free ReLU outputs, not the
    # network's 11 variables.  With a +/- column pair per coordinate it made
    # 40 pivots, and with the two-phase primal simplex for the roots 28.
    roots = [problem for problem in calls if problem.parent is None]
    assert [root.num_vars for root in roots] == [6, 6]
    assert all(c.relation != "=" for root in roots for c in root.constraints)
    assert [sorted(root.nonneg) for root in roots] == [[0, 1, 2, 3, 4, 5]] * 2
    assert len(pivots) == 22
    # A child adds one branch row; with column pairs it made 246 row
    # operations, and with the two-phase primal simplex 197.
    assert len(operations) == 150


def four_relu_query(four_relu_net):
    ctx = make_ctx(net=parse_vnet(four_relu_net.read_text(), "net"))
    meta = MetaNetwork((("net", 2, 1),))
    query = box_query(meta, [(-1, 1), (-1, 1)], [constraint({("y", 0): 1}, ">", Fraction(21, 2))])
    return ctx, query


def test_lp_count_of_a_four_free_relu_unsat_net(monkeypatch, four_relu_net):
    ctx, query = four_relu_query(four_relu_net)
    assert forward(query, ctx).phases == [None] * 4
    calls = count_lp_calls(monkeypatch)
    pivots = count_pivots(monkeypatch)
    operations = count_row_operations(monkeypatch)
    assert isinstance(check_query(query, ctx), Unsat)
    # One root LP without a parent, then 2 warm ones: both phases of the
    # loosest ReLU are infeasible.  The flat search solves 16 leaf LPs.
    assert len(calls) == 3
    assert [problem.parent is None for problem in calls] == [True, False, False]
    # Over 2 inputs and 4 free ReLU outputs, not the network's 11
    # variables.  With a +/- column pair per coordinate: 14 pivots and 121
    # row operations; with the two-phase primal simplex for the root: 12
    # and 79.
    assert calls[0].num_vars == 6
    assert all(c.relation != "=" for c in calls[0].constraints)
    assert len(pivots) == 7
    assert len(operations) == 39


def test_one_branch_row_agrees_with_the_three_phase_rows(
    monkeypatch, controller_net, four_relu_net
):
    """At every search node, the child LP, whose branch rows are one row
    per ReLU (``post <= 0`` or ``post <= pre``) on top of the root's
    triangle lower faces, is feasible exactly when the LP with each branch
    row replaced by the phase's sign row and ``post = 0`` or ``post = pre``
    is.  Over both fixtures and seeded nets with one or two hidden layers."""
    three_rows_of = {}
    branch_row = engine._branch_row

    def recording(pre, post, phase):
        row = branch_row(pre, post, phase)
        three_rows_of[row] = phase, phase_rows(pre, post, phase)
        return row

    monkeypatch.setattr(engine, "_branch_row", recording)
    ctx, q1, q2 = controller_queries(parse_vnet(controller_net.read_text(), "controller"))
    instances = [(ctx, q1), (ctx, q2), four_relu_query(four_relu_net)]
    instances += [(ctx, query) for ctx, query, _ in search_instances(20261021, 117, range(1, 8))]
    calls = count_lp_calls(monkeypatch)
    seen = dict.fromkeys(("feasible", "infeasible", "inactive", "active", "one hidden layer",
                          "two hidden layers"), 0)  # fmt: skip
    for ctx, query in instances:
        calls.clear()
        check_query(query, ctx)
        children = [problem for problem in calls if problem.parent is not None]
        if not children:
            continue
        root = children[0].parent
        for child in children:
            rows = list(root.constraints)
            for row in child.constraints[len(root.constraints) :]:
                phase, three_rows = three_rows_of[row]
                rows += three_rows
            three = verifier.feasible(LPProblem(child.num_vars, rows, nonneg=child.nonneg))
            assert (three is not None) == (child.tableau is not None)
            seen["feasible" if three is not None else "infeasible"] += 1
            seen[phase] += 1  # the phase of the child's own row
        models = [ctx[name].model for name, _, _ in query.meta.applications]
        depths = {sum(isinstance(x, Relu) for x in model.layers) for model in models}
        seen["one hidden layer"] += 1 in depths
        seen["two hidden layers"] += 2 in depths
    assert min(seen.values()) >= 20, seen


def verify_calls(argv) -> int:
    """Python function calls made by one ``vspec verify`` run.  The
    process's parser (1,933 calls to build) is built first, so the count
    does not depend on whether an earlier test built it."""
    cli._parser()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    assert code == 0
    return calls


@pytest.mark.parametrize(
    "spec, net, binding, bound",
    [
        # 3 LPs: 3,572 calls (3,713 with the numbered skeleton and numeric
        # checks by unification, 4,024 with the two-phase primal simplex,
        # 4,153 with a +/- column pair per coordinate); a tableau of
        # Fractions made 68,325.
        ("four_relu_spec", "four_relu_net", "net", 16_000),
        # 14 LPs: 6,907 calls (7,179 with the numbered skeleton and numeric
        # checks by unification, 7,703 with the two-phase primal simplex,
        # 7,940 with column pairs); a tableau of Fractions made 190,219.
        ("controller_spec", "controller_net", "controller", 34_000),
    ],
)
def test_verify_work_is_bounded(request, tmp_path, monkeypatch, spec, net, binding, bound):
    # Deterministic: counts calls, not time.  A simplex loop that built a
    # rational per tableau entry would make several calls per entry.
    spec_path, net_path = request.getfixturevalue(spec), request.getfixturevalue(net)
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--spec", str(spec_path), "--network", f"{binding}:{net_path}",
            "--proof-file", "p.vclp"]  # fmt: skip
    assert verify_calls(argv) <= bound


def calls_in(function, *args, **kwargs) -> int:
    """Python function calls made by one call of ``function``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        function(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls - 1  # ``function`` itself


def test_engine_work_on_a_query_bounds_fix_is_bounded(controller_net):
    """A query of the controller whose every ReLU bounds fix, like most
    ``many-queries`` queries: the box, a hypothesis atom per disjunction
    (k = 3) and the negated conclusion.  One forward pass and one LP:
    1,038 calls, most of them in ``fractions``; with the numbered skeleton
    and its three passes, 1,147.  Deterministic: counts calls, not
    time."""
    ctx = make_ctx(controller=parse_vnet(controller_net.read_text(), "controller"))
    meta = MetaNetwork((("controller", 2, 1),))
    bound = Fraction(13, 4)
    atoms = [constraint({("x", 0): 1}, ">=", Fraction(3, 4)),
             constraint({("x", 1): 1}, "<=", Fraction(-1, 2)),
             constraint({("x", 1): 1}, "<=", Fraction(-3, 2))]  # fmt: skip
    e = {("y", 0): 1, ("x", 0): 2, ("x", 1): -1}
    query = box_query(meta, [(-bound, bound)] * 2, atoms + [constraint(e, ">", Fraction(5, 4))])
    assert forward(query, ctx).free == []
    assert isinstance(check_query(query, ctx), Unsat)
    assert calls_in(check_query, query, ctx) <= 1_140


def test_lp_count_of_deep_verified_nets(monkeypatch):
    """Verified queries on nets of two and three hidden layers, 14, 14 and
    15 free ReLUs, at a bound 1/100 above the net's maximum over a 41 x 41
    grid of the box: the search runs close to the true maximum.  With a
    +/- column pair per coordinate the search took 21, 37 and 19 LPs and
    782, 1,439 and 683 pivots.  With the two-phase primal simplex for the
    root it took 25, 25 and 35 LPs and 310, 275 and 410 pivots: the root's
    point, which the loosest-gap rule reads, moved."""
    rng = random.Random(7)
    nets = [random_layered_model(rng, widths) for widths in [(8, 8)] * 3 + [(6, 6, 6)] * 3]
    calls = count_lp_calls(monkeypatch)
    pivots = count_pivots(monkeypatch)
    meta = MetaNetwork((("f", 2, 1),))
    for net, bound, lps, pivot_count in [
        (nets[0], Fraction(1479, 400), 25, 300),
        (nets[2], Fraction(7483, 800), 25, 272),
        (nets[5], Fraction(-767, 800), 23, 211),
    ]:
        query = box_query(meta, [(-1, 1), (-1, 1)], [constraint({("y", 0): 1}, ">", bound)])
        calls.clear()
        pivots.clear()
        assert isinstance(check_query(query, make_ctx(f=net), phase_budget=64), Unsat)
        assert len(calls) == lps
        assert len(pivots) == pivot_count


def test_lp_count_of_deep_falsified_nets(monkeypatch):
    """Falsified queries on three nets of ``test_lp_count_of_deep_verified_nets``
    at a bound 1/1000 below the net's maximum over the 41 x 41 grid: the
    search finds a network point, and the walk then fixes the phases of
    the least feasible leaf, whose LP over the inputs alone gives the
    witness.  The refutation search followed by a second, node-order
    search from the root took 39, 137 and 49 LPs and 380, 920 and 476
    pivots.  The walk with the two-phase primal simplex for every LP
    without a parent took 28, 33 and 41 LPs and 380, 396 and 470 pivots,
    and with the witness LP over all network variables 400, 456 and 270
    pivots."""
    rng = random.Random(7)
    nets = [random_layered_model(rng, widths) for widths in [(8, 8)] * 3 + [(6, 6, 6)] * 3]
    calls = count_lp_calls(monkeypatch)
    pivots = count_pivots(monkeypatch)
    meta = MetaNetwork((("f", 2, 1),))
    for net, bound, lps, pivot_count in [
        (nets[0], Fraction(7373, 2000), 29, 318),
        (nets[2], Fraction(37371, 4000), 29, 343),
        (nets[5], Fraction(-3879, 4000), 22, 167),
    ]:
        query = box_query(meta, [(-1, 1), (-1, 1)], [constraint({("y", 0): 1}, ">", bound)])
        calls.clear()
        pivots.clear()
        verdict = check_query(query, make_ctx(f=net), phase_budget=64)
        assert isinstance(verdict, Sat)
        assert dict(verdict.witness)[QVar("y", 0)] > bound
        assert len(calls) == lps
        assert len(pivots) == pivot_count


def test_phase_budget_exceeded():
    ctx = make_ctx(f=identity_model())
    meta = MetaNetwork((("f", 1, 1),))
    query = LinearQuery([], meta)
    with pytest.raises(VerifyError) as err:
        check_query(query, ctx, phase_budget=1)
    assert err.value.code == "PhaseBudgetExceeded"


def test_determinism_of_witnesses():
    rng = random.Random(31337)
    for _ in range(20):
        ctx, query = random_instance(rng)
        first = check_query(query, ctx)
        second = check_query(query, ctx)
        assert first == second


# -- grid oracle -------------------------------------------------------------------


def test_grid_oracle_is_one_sided(controller_net):
    model = parse_vnet(controller_net.read_text(), "controller")
    ctx, q1, q2 = controller_queries(model)
    assert grid_oracle(q1, ctx) is None
    assert grid_oracle(q2, ctx) is None


def test_grid_oracle_finds_seeded_witness():
    ctx = make_ctx(f=identity_model())
    meta = MetaNetwork((("f", 1, 1),))
    query = box_query(meta, [(0, 4)], [constraint({("y", 0): 1}, ">=", 3)])
    oracle = grid_oracle(query, ctx, resolution=4)
    assert oracle is not None
    values = dict(oracle.witness)
    assert all(constraint_holds(c, values) for c in query.constraints)
    assert isinstance(check_query(query, ctx), Sat)


def test_grid_oracle_requires_bounded_inputs():
    ctx = make_ctx(f=identity_model())
    meta = MetaNetwork((("f", 1, 1),))
    query = LinearQuery([constraint({("y", 0): 1}, ">=", 3)], meta)
    with pytest.raises(UnboundedInput) as err:
        grid_oracle(query, ctx)
    assert err.value.code == "UnboundedInput"


def test_evaluate_networks_assigns_all_variables():
    ctx = make_ctx(f=identity_model(), g=affine_model([[1, 1], [1, -1]], [0, 1], name="g"))
    meta = MetaNetwork((("f", 1, 1), ("g", 2, 2)))
    values = evaluate_networks(
        LinearQuery([], meta), ctx, [Fraction(2), Fraction(3), Fraction(5)]
    )
    assert values[QVar("y", 0)] == Fraction(2)  # identity on x0
    assert values[QVar("y", 1)] == Fraction(8)  # 3 + 5
    assert values[QVar("y", 2)] == Fraction(-1)  # 3 - 5 + 1
