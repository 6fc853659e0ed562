"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against the intended
semantics, not by calling the code under test: a direct core-expression
evaluator, a Fourier-Motzkin feasibility decider (exact, strict-aware), a
layer-by-layer network interpreter, a one-sided grid search over a query's
input box, and a hand-rolled protobuf writer for ONNX model files.  The
one exception is the flat phase search, the reference for the verifier's
branch-and-bound: it shares the verifier's unrolling, bounds and LP, and
builds its own rows.
"""

from __future__ import annotations

import itertools
import struct
from fractions import Fraction
from pathlib import Path

from vspec import core
from vspec.queries import QVar
from vspec.verdicts import Sat, Unsat, Verdict
from vspec.verifier import engine, lp

# ---------------------------------------------------------------------------
# Direct expression evaluation
# ---------------------------------------------------------------------------


def eval_core(e: core.Expr, env: list):
    """Evaluate a core expression; env[-1] is de Bruijn index 0.

    Values are Fraction (numeric), bool (formula), or tuple (tensor).
    Quantifiers are not supported; callers strip them first.
    """
    if isinstance(e, core.Var):
        return env[len(env) - 1 - e.index]
    if isinstance(e, core.RatLit):
        return e.value
    if isinstance(e, core.NatLit):
        return Fraction(e.value)
    if isinstance(e, core.BoolLit):
        return e.value
    if isinstance(e, core.TensorLit):
        return tuple(eval_core(x, env) for x in e.items)
    if isinstance(e, core.Index):
        tensor = eval_core(e.tensor, env)
        index = eval_core(e.index, env)
        return tensor[int(index)]
    if isinstance(e, core.Builtin):
        op = e.op
        if op == "if":
            return eval_core(e.args[1] if eval_core(e.args[0], env) else e.args[2], env)
        if op == "and":
            return eval_core(e.args[0], env) and eval_core(e.args[1], env)
        if op == "or":
            return eval_core(e.args[0], env) or eval_core(e.args[1], env)
        if op == "implies":
            return (not eval_core(e.args[0], env)) or eval_core(e.args[1], env)
        if op == "not":
            return not eval_core(e.args[0], env)
        args = [eval_core(a, env) for a in e.args]
        if op == "neg":
            return -args[0]
        lhs, rhs = args
        return {
            "add": lambda: lhs + rhs,
            "sub": lambda: lhs - rhs,
            "mul": lambda: lhs * rhs,
            "div": lambda: lhs / rhs,
            "le": lambda: lhs <= rhs,
            "lt": lambda: lhs < rhs,
            "ge": lambda: lhs >= rhs,
            "gt": lambda: lhs > rhs,
            "eq": lambda: lhs == rhs,
        }[op]()
    raise AssertionError(f"oracle cannot evaluate {e!r}")


def compile_eval(e: core.Expr, depth: int):
    """Compile a quantifier-free core expression to a closure env -> value.

    Semantically identical to eval_core (cross-checked in the test suite)
    but built once and reused across many assignments; env is a list of
    length ``depth`` ordered outermost binder first.
    """
    if isinstance(e, core.Var):
        slot = depth - 1 - e.index
        return lambda env: env[slot]
    if isinstance(e, core.RatLit):
        value = e.value
        return lambda env: value
    if isinstance(e, core.NatLit):
        value = Fraction(e.value)
        return lambda env: value
    if isinstance(e, core.BoolLit):
        value = e.value
        return lambda env: value
    if isinstance(e, core.TensorLit):
        items = [compile_eval(x, depth) for x in e.items]
        return lambda env: tuple(f(env) for f in items)
    if isinstance(e, core.Index):
        tensor = compile_eval(e.tensor, depth)
        index = compile_eval(e.index, depth)
        return lambda env: tensor(env)[int(index(env))]
    if isinstance(e, core.Builtin):
        op = e.op
        fns = [compile_eval(a, depth) for a in e.args]
        if op == "if":
            c, t, u = fns
            return lambda env: t(env) if c(env) else u(env)
        if op == "and":
            a, b = fns
            return lambda env: a(env) and b(env)
        if op == "or":
            a, b = fns
            return lambda env: a(env) or b(env)
        if op == "implies":
            a, b = fns
            return lambda env: (not a(env)) or b(env)
        if op == "not":
            (a,) = fns
            return lambda env: not a(env)
        if op == "neg":
            (a,) = fns
            return lambda env: -a(env)
        a, b = fns
        table = {
            "add": lambda env: a(env) + b(env),
            "sub": lambda env: a(env) - b(env),
            "mul": lambda env: a(env) * b(env),
            "div": lambda env: a(env) / b(env),
            "le": lambda env: a(env) <= b(env),
            "lt": lambda env: a(env) < b(env),
            "ge": lambda env: a(env) >= b(env),
            "gt": lambda env: a(env) > b(env),
            "eq": lambda env: a(env) == b(env),
        }
        return table[op]
    raise AssertionError(f"cannot compile {e!r}")


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility (exact, strict-aware)
# ---------------------------------------------------------------------------


def fm_feasible(num_vars: int, constraints: list[tuple[dict[int, Fraction], str, Fraction]]) -> bool:
    """Decide feasibility of mixed strict/non-strict linear constraints over
    free rational variables by Fourier-Motzkin elimination."""
    rows: list[tuple[list[Fraction], Fraction, bool]] = []  # a.x <= b (strict flag)

    def add(coeffs: dict[int, Fraction], rhs: Fraction, strict: bool, flip: bool) -> None:
        vec = [Fraction(0)] * num_vars
        for v, c in coeffs.items():
            vec[v] = -c if flip else c
        rows.append((vec, -rhs if flip else rhs, strict))

    for coeffs, rel, rhs in constraints:
        if rel == "<=":
            add(coeffs, rhs, False, False)
        elif rel == "<":
            add(coeffs, rhs, True, False)
        elif rel == ">=":
            add(coeffs, rhs, False, True)
        elif rel == ">":
            add(coeffs, rhs, True, True)
        elif rel == "=":
            add(coeffs, rhs, False, False)
            add(coeffs, rhs, False, True)
        else:
            raise AssertionError(rel)

    for v in range(num_vars):
        lower = []  # rows with negative coeff on v:  x_v >= ...
        upper = []  # rows with positive coeff on v:  x_v <= ...
        rest = []
        for vec, rhs, strict in rows:
            if vec[v] > 0:
                upper.append((vec, rhs, strict))
            elif vec[v] < 0:
                lower.append((vec, rhs, strict))
            else:
                rest.append((vec, rhs, strict))
        combined = list(rest)
        for lvec, lrhs, lstrict in lower:
            for uvec, urhs, ustrict in upper:
                scale_l = -lvec[v]
                scale_u = uvec[v]
                vec = [lv * scale_u + uv * scale_l for lv, uv in zip(lvec, uvec)]
                rhs = lrhs * scale_u + urhs * scale_l
                combined.append((vec, rhs, lstrict or ustrict))
        rows = combined

    for vec, rhs, strict in rows:
        assert all(c == 0 for c in vec)
        if strict and not Fraction(0) < rhs:
            return False
        if not strict and not Fraction(0) <= rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Independent reader for emitted query files
# ---------------------------------------------------------------------------

_TERM_RE = __import__("re").compile(r"([+-]?)([0-9./]*)([xy])([0-9]+)")


def read_query_file_by_hand(path) -> list[tuple[dict, str, Fraction]]:
    """Parse an emitted query file with a regex-based reader, independent of
    the emitter.  Returns (terms, relation, constant) triples
    with coefficients normalised (merged, zero-free)."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        for rel in ("<=", ">=", "<", ">", "="):
            if f" {rel} " in line:
                lhs, rhs = line.split(f" {rel} ")
                break
        else:
            raise AssertionError(f"no relation in {line!r}")
        terms: dict = {}
        consumed = ""
        for sign, coeff, kind, index in _TERM_RE.findall(lhs):
            consumed += f"{sign}{coeff}{kind}{index}"
            if coeff and "/" in coeff:
                p, q = coeff.split("/")
                value = Fraction(int(p), int(q))
            elif coeff:
                value = Fraction(coeff) if "." not in coeff else Fraction(coeff)
            else:
                value = Fraction(1)
            if sign == "-":
                value = -value
            key = (kind, int(index))
            terms[key] = terms.get(key, Fraction(0)) + value
        assert consumed == lhs.replace(" ", ""), f"unparsed junk in {lhs!r}"
        constant = (
            Fraction(int(rhs.split("/")[0]), int(rhs.split("/")[1]))
            if "/" in rhs
            else Fraction(rhs)
        )
        out.append(({k: v for k, v in terms.items() if v}, rel, constant))
    return out


# ---------------------------------------------------------------------------
# Layer-by-layer network interpretation
# ---------------------------------------------------------------------------


def run_network_by_hand(layers, xs: list[Fraction]) -> list[Fraction]:
    """Independent interpreter: each layer applied by explicit loops."""
    values = list(xs)
    for layer in layers:
        if hasattr(layer, "weights"):
            next_values = []
            for row_index in range(len(layer.weights)):
                acc = Fraction(layer.bias[row_index])
                for col_index in range(len(layer.weights[row_index])):
                    acc += layer.weights[row_index][col_index] * values[col_index]
                next_values.append(acc)
            values = next_values
        else:
            values = [max(Fraction(0), v) for v in values]
    return values


# ---------------------------------------------------------------------------
# One-sided grid search over a query's input box
# ---------------------------------------------------------------------------


class UnboundedInput(Exception):
    """The grid oracle needs a finite box on every input."""

    code = "UnboundedInput"


def constraint_holds(c, values: dict) -> bool:
    total = sum((k * values[v] for v, k in c.terms), start=Fraction(0))
    return {
        "<=": total <= c.constant,
        "<": total < c.constant,
        ">=": total >= c.constant,
        ">": total > c.constant,
        "=": total == c.constant,
    }[c.relation]


def query_box(query) -> list[tuple[Fraction, Fraction]]:
    """Closed per-input bounds from the query's single-variable constraints;
    raises UnboundedInput when any input is unbounded on either side."""
    bounds: dict[int, tuple[Fraction | None, Fraction | None]] = {
        i: (None, None) for i in range(query.meta.total_inputs)
    }
    for c in query.constraints:
        if len(c.terms) != 1:
            continue
        (var, coeff), = c.terms
        if var.kind != "x":
            continue
        value = c.constant / coeff
        rel = c.relation
        if coeff < 0:
            rel = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "="}[rel]
        lo, hi = bounds[var.index]
        if rel in ("<=", "<"):
            hi = value if hi is None else min(hi, value)
        elif rel in (">=", ">"):
            lo = value if lo is None else max(lo, value)
        else:
            lo, hi = value, value
        bounds[var.index] = (lo, hi)
    box = []
    for i in range(query.meta.total_inputs):
        lo, hi = bounds[i]
        if lo is None or hi is None:
            raise UnboundedInput(f"input x{i} has no finite box bounds in the query")
        box.append((lo, hi))
    return box


def evaluate_networks(query, ctx, inputs: list[Fraction]) -> dict[QVar, Fraction]:
    """Assignment for all relational variables given metanetwork inputs,
    each application run by ``run_network_by_hand``."""
    values: dict[QVar, Fraction] = {QVar("x", i): v for i, v in enumerate(inputs)}
    in_off = query.meta.input_offsets
    out_off = query.meta.output_offsets
    for a, (name, m, n) in enumerate(query.meta.applications):
        outs = run_network_by_hand(ctx[name].model.layers, inputs[in_off[a] : in_off[a] + m])
        for t in range(n):
            values[QVar("y", out_off[a] + t)] = outs[t]
    return values


def grid_oracle(query, ctx, resolution: int = 8) -> Sat | None:
    """SAT with the first grid point satisfying every constraint, or None
    (unknown): it never reports unsatisfiability."""
    axes = []
    for lo, hi in query_box(query):
        if lo == hi:
            axes.append([lo])
        else:
            step = (hi - lo) / resolution
            axes.append([lo + step * k for k in range(resolution + 1)])
    for point in itertools.product(*axes):
        values = evaluate_networks(query, ctx, list(point))
        if all(constraint_holds(c, values) for c in query.constraints):
            return Sat(tuple(sorted(values.items())))
    return None


# ---------------------------------------------------------------------------
# Flat phase search
# ---------------------------------------------------------------------------


ONE = Fraction(1)


def network_equalities(skeleton) -> list[lp.LPConstraint]:
    """``out - sum(w * v) = bias`` per affine event of ``skeleton``."""
    return [
        lp.LPConstraint(((e[1], ONE),) + tuple((v, -w) for v, w in e[2]), "=", e[3])
        for e in skeleton.events
        if e[0] == "affine"
    ]


def phase_rows(pre: tuple[dict, Fraction], post: int, phase: str) -> list[lp.LPConstraint]:
    """A ReLU's phase over the affine form ``pre`` (coefficient per
    variable, constant) of its pre-activation and the variable ``post`` of
    its output: ``pre <= 0`` and ``post = 0`` (Inactive), or ``pre >= 0``
    and ``post = pre`` (Active)."""
    coeffs, constant = pre
    sign = lp.LPConstraint(
        tuple(coeffs.items()), "<=" if phase == "inactive" else ">=", -constant
    )
    if phase == "inactive":
        return [sign, lp.LPConstraint(((post, ONE),), "=", Fraction(0))]
    terms = ((post, ONE),) + tuple((v, -k) for v, k in coeffs.items())
    return [sign, lp.LPConstraint(terms, "=", constant)]


def _node_phase_rows(node, phase: str) -> list[lp.LPConstraint]:
    return phase_rows(({node.pre_var: ONE}, Fraction(0)), node.post_var, phase)


def _query_rows(query, skeleton) -> list[lp.LPConstraint]:
    rows = []
    for c in query.constraints:
        terms = tuple((skeleton.qvar_ids[v], k) for v, k in c.terms)
        rows.append(lp.LPConstraint(terms, c.relation, c.constant))
    return rows


def input_leaf_witness(query, skeleton, intervals, phases: dict[int, str]) -> Sat:
    """The witness of the leaf LP of ``phases``, a phase per ReLU node, over
    the network inputs alone.  An input with a lower bound ``l`` in
    ``intervals`` is the nonnegative column ``x - l``, any other input is
    free.  Every variable is an affine form over the inputs, given by the
    network's affine layers and the phases.  The rows are the query rows
    over those forms, then one sign row per ReLU in node order, but for a
    non-strict row that only bounds a shifted input below by a value
    ``<= 0``, which its column's sign already says."""
    num_inputs = query.meta.total_inputs
    lower = {v: intervals[v][0] for v in range(num_inputs) if intervals[v][0] is not None}
    forms = {v: ({v: ONE}, lower.get(v, Fraction(0))) for v in range(num_inputs)}

    def combine(terms, constant):
        coeffs: dict[int, Fraction] = {}
        for v, k in terms:
            form, offset = forms[v]
            constant += k * offset
            for c, a in form.items():
                coeffs[c] = coeffs.get(c, Fraction(0)) + k * a
        return {c: a for c, a in coeffs.items() if a}, constant

    signs = []
    for event in skeleton.events:
        if event[0] == "affine":
            forms[event[1]] = combine(event[2], event[3])
            continue
        node = skeleton.relu_nodes[event[1]]
        pre = forms[node.pre_var]
        active = phases[node.node_id] == "active"
        forms[node.post_var] = pre if active else ({}, Fraction(0))
        signs.append((pre, ">=" if active else "<="))  # events run in node order
    rows = []
    for c in query.constraints:
        coeffs, constant = combine(((skeleton.qvar_ids[v], k) for v, k in c.terms), Fraction(0))
        rows.append(lp.LPConstraint(tuple(coeffs.items()), c.relation, c.constant - constant))
    for (coeffs, constant), rel in signs:
        rows.append(lp.LPConstraint(tuple(coeffs.items()), rel, -constant))

    def restates_a_sign(row):
        if len(row.terms) != 1 or row.terms[0][0] not in lower:
            return False
        k = row.terms[0][1]
        return row.relation == (">=" if k > 0 else "<=") and row.rhs / k <= 0

    rows = [row for row in rows if not restates_a_sign(row)]
    point = lp.feasible(lp.LPProblem(num_inputs, rows, nonneg=frozenset(lower)))
    assert point is not None, "the leaf LP of a feasible leaf is infeasible"
    pairs = []
    for qv, vid in sorted(skeleton.qvar_ids.items()):
        coeffs, value = forms[vid]
        pairs.append((qv, value + sum(k * point[c] for c, k in coeffs.items())))
    return Sat(tuple(pairs))


def least_feasible_leaf(query, ctx) -> tuple[list[str], Sat] | None:
    """The phases of the ReLUs that bounds leave free at the
    lexicographically least feasible leaf (Inactive before Active, in node
    order), and the witness of that leaf's LP over the inputs
    (``input_leaf_witness``); None when no leaf is feasible.  A depth-first
    search over flat LPs over all variables: a prefix LP holds the phase
    rows of the first free ReLUs and leaves the others unconstrained, so it
    relaxes every leaf below it, and an infeasible prefix is not extended.
    Each prefix LP is solved warm from its parent prefix's.  It calls
    ``lp.feasible``, not ``engine.feasible``, so the engine's LP counters
    never see it."""
    skeleton = engine.unroll_meta_network(query.meta, ctx)
    intervals, fixed = engine.propagate_bounds(skeleton, query)
    base = network_equalities(skeleton) + _query_rows(query, skeleton)
    for node_id, phase in fixed.items():
        base.extend(_node_phase_rows(skeleton.relu_nodes[node_id], phase))
    free_nodes = [n for n in skeleton.relu_nodes if n.node_id not in fixed]

    def below(problem, phases):
        if lp.feasible(problem) is None:
            return None
        if len(phases) == len(free_nodes):
            leaf = fixed | {n.node_id: phase for n, phase in zip(free_nodes, phases)}
            return phases, input_leaf_witness(query, skeleton, intervals, leaf)
        node = free_nodes[len(phases)]
        for phase in ("inactive", "active"):
            rows = problem.constraints + _node_phase_rows(node, phase)
            found = below(lp.LPProblem(skeleton.num_vars, rows, parent=problem), phases + [phase])
            if found is not None:
                return found
        return None

    return below(lp.LPProblem(skeleton.num_vars, base), [])


def flat_phase_search(query, ctx) -> Verdict:
    """SAT with the witness of the least feasible leaf's LP, or UNSAT."""
    found = least_feasible_leaf(query, ctx)
    return Unsat() if found is None else found[1]


# ---------------------------------------------------------------------------
# Independent ONNX writer (hand-assembled protobuf)
# ---------------------------------------------------------------------------


def _varint(n: int) -> bytes:
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _tag(field: int, wire: int) -> bytes:
    return _varint((field << 3) | wire)


def _ld(field: int, payload: bytes) -> bytes:
    return _tag(field, 2) + _varint(len(payload)) + payload


def _vint(field: int, value: int) -> bytes:
    return _tag(field, 0) + _varint(value)


def _string(field: int, text: str) -> bytes:
    return _ld(field, text.encode("utf-8"))


def onnx_tensor(name: str, dims: list[int], floats: list[float], data_type: int = 1) -> bytes:
    body = b"".join(_vint(1, d) for d in dims)
    body += _vint(2, data_type)
    body += _string(8, name)
    body += _ld(9, struct.pack(f"<{len(floats)}f", *floats))
    return body


def onnx_attr_int(name: str, value: int) -> bytes:
    return _string(1, name) + _vint(3, value) + _vint(20, 2)  # AttributeType.INT


def onnx_attr_float(name: str, value: float) -> bytes:
    return _string(1, name) + _tag(2, 5) + struct.pack("<f", value) + _vint(20, 1)


def onnx_node(op: str, inputs: list[str], outputs: list[str], attrs: list[bytes] = ()) -> bytes:
    body = b"".join(_string(1, i) for i in inputs)
    body += b"".join(_string(2, o) for o in outputs)
    body += _string(4, op)
    body += b"".join(_ld(5, a) for a in attrs)
    return body


def onnx_value_info(name: str, dims: list[int]) -> bytes:
    shape = b"".join(_ld(1, _vint(1, d)) for d in dims)
    tensor_type = _vint(1, 1) + _ld(2, shape)  # elem_type FLOAT + shape
    return _string(1, name) + _ld(2, _ld(1, tensor_type))


def onnx_model(
    nodes: list[bytes],
    initializers: list[bytes],
    inputs: list[bytes],
    outputs: list[bytes],
) -> bytes:
    graph = b"".join(_ld(1, n) for n in nodes)
    graph += b"".join(_ld(5, t) for t in initializers)
    graph += b"".join(_ld(11, v) for v in inputs)
    graph += b"".join(_ld(12, v) for v in outputs)
    return _vint(1, 8) + _ld(7, graph)  # ir_version + graph


def simple_gemm_model(weights: list[list[float]], bias: list[float], trans_b: int = 1) -> bytes:
    """One Gemm node: input shape [cols], output shape [rows] (transB=1)."""
    rows = len(weights)
    cols = len(weights[0])
    flat = [w for row in weights for w in row]
    w_dims = [rows, cols] if trans_b else [cols, rows]
    if not trans_b:
        flat = [weights[r][c] for c in range(cols) for r in range(rows)]
    return onnx_model(
        nodes=[
            onnx_node(
                "Gemm",
                ["input", "W", "B"],
                ["output"],
                [onnx_attr_int("transB", trans_b)],
            )
        ],
        initializers=[
            onnx_tensor("W", w_dims, flat),
            onnx_tensor("B", [rows], bias),
        ],
        inputs=[onnx_value_info("input", [cols])],
        outputs=[onnx_value_info("output", [rows])],
    )
