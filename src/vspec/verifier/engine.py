"""Sound-and-complete decision procedure for linear queries over
piecewise-linear (affine/ReLU) networks.

The metanetwork is unrolled into variables and equality constraints; each
ReLU node is a case split (Inactive: pre <= 0, post = 0; Active: pre >= 0,
post = pre).  Interval bound propagation over the query's input box fixes
phases whose pre-activation cannot straddle zero.

The remaining ("free") ReLUs are decided by a depth-first branch-and-bound
search (``_search``) whose branching rule is an argument.  It runs twice at
most.  The refutation search (``_loosest_gap``) branches on the unbranched
ReLU whose output exceeds ``max(pre, 0)`` most at the point its node's LP
returned, trying first the phase of ``pre``'s sign there (the idea of
BaBSR, Bunel et al. 2020).  When no such gap is positive, the point is an
exact network point that satisfies the query, so a feasible leaf exists
and that search stops.  When it runs out, the query is unsatisfiable:
every branching order refutes the same phase regions.  Only a satisfiable
query runs the second, ordered search (``_node_order``): branch in node
order, Inactive before Active, warm from the same root.  Its first
feasible leaf fixes the witness, so verdicts and witnesses do not depend
on the refutation order.

The search runs in free coordinates, the network inputs and the outputs
of the free ReLUs: every other variable is an affine form over them
(``free_coordinate_forms``), so the search LPs carry none of the
network's equalities.  Each equality defines its variable uniquely, so a
node's LP is feasible exactly when the LP over all variables is.  The root
LP is the query rows and the fixed phases' sign rows plus the triangle
relaxation of every free ReLU (Ehlers 2017): ``post >= 0``, ``post >= pre``
and, when both interval bounds ``l < 0 < u`` are known,
``post <= u (pre - l) / (u - l)``.  A child adds one row to its parent's
LP, its ReLU's upper face for the phase: ``post <= 0`` (Inactive) or
``post <= pre`` (Active).  With the lower faces every node already holds,
that row gives exactly the phase's region: ``0 <= post <= 0`` and
``pre <= post`` is ``post = 0, pre <= 0``; ``pre <= post <= pre`` and
``0 <= post`` is ``post = pre, pre >= 0``.  The child is solved warm from
the parent's final tableau; an infeasible node prunes its subtree.  Every
point of a leaf's phase region satisfies the triangle rows, so a leaf is
feasible exactly when the flat leaf LP (base plus the sign row and
``post = 0`` or ``post = pre`` per ReLU) is, and in node order the first
feasible leaf is the lexicographically least satisfiable phase assignment.
It is re-solved from scratch on the flat leaf constraint list over all
variables, so the witness depends only on that list (Bland's rule is
deterministic), not on the search; that LP is solved only for a feasible
leaf, so it is always feasible.  A query with no free ReLU is the search
with zero branches: its root, over the inputs alone, is its only leaf.

Every LP goes through the module attribute ``feasible``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from ..errors import VerifyError
from ..networks import Affine, NetworkContext
from ..queries import FLIP_REL, LinearQuery, MetaNetwork, QVar
from ..verdicts import Sat, Unsat, Verdict
from .lp import LPConstraint, LPProblem, feasible

DEFAULT_PHASE_BUDGET = 20

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ReluNode:
    """One ReLU case split: post = max(pre, 0)."""

    node_id: int
    pre_var: int
    post_var: int


@dataclass
class Skeleton:
    """Variables and network definitions of an unrolled metanetwork."""

    num_vars: int
    qvar_ids: dict[QVar, int]
    relu_nodes: list[ReluNode]
    # The network, in forward order: ("affine", out_var, terms, bias) for
    # out_var = bias + sum(w * v for v, w in terms), a layerless model's
    # y = x included, or ("relu", node_id).
    events: list[tuple]

    @property
    def equalities(self) -> list[LPConstraint]:
        """``out_var - sum(w * v) = bias`` per affine event, in order."""
        return [
            LPConstraint(((e[1], ONE),) + tuple((v, -w) for v, w in e[2]), "=", e[3])
            for e in self.events
            if e[0] == "affine"
        ]


def unroll_meta_network(meta: MetaNetwork, ctx: NetworkContext) -> Skeleton:
    """Introduce hidden variables per layer; affine layers define their
    outputs, ReLU nodes become case splits."""
    qvar_ids: dict[QVar, int] = {}
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    for i in range(meta.total_inputs):
        qvar_ids[QVar("x", i)] = fresh()
    for j in range(meta.total_outputs):
        qvar_ids[QVar("y", j)] = fresh()

    relu_nodes: list[ReluNode] = []
    events: list[tuple] = []

    in_off = meta.input_offsets
    out_off = meta.output_offsets
    for a, (name, m, n) in enumerate(meta.applications):
        model = ctx[name].model
        current = [qvar_ids[QVar("x", in_off[a] + t)] for t in range(m)]
        y_ids = [qvar_ids[QVar("y", out_off[a] + t)] for t in range(n)]
        last = len(model.layers) - 1
        for index, layer in enumerate(model.layers):
            # The final layer writes directly into the output variables.
            if isinstance(layer, Affine):
                new = y_ids if index == last else [fresh() for _ in range(layer.out_width)]
                for r, (row, b) in enumerate(zip(layer.weights, layer.bias)):
                    terms = tuple(
                        (current[cidx], w) for cidx, w in enumerate(row) if w != 0
                    )
                    events.append(("affine", new[r], terms, b))
                current = new
            else:
                new = y_ids if index == last else [fresh() for _ in range(layer.width)]
                for pre, post in zip(current, new):
                    node = ReluNode(len(relu_nodes), pre, post)
                    relu_nodes.append(node)
                    events.append(("relu", node.node_id))
                current = new
        if not model.layers:
            for x_id, y_id in zip(current, y_ids):
                events.append(("affine", y_id, ((x_id, ONE),), ZERO))
    return Skeleton(counter, qvar_ids, relu_nodes, events)


# ---------------------------------------------------------------------------
# Interval bound propagation
# ---------------------------------------------------------------------------

Interval = tuple[Fraction | None, Fraction | None]  # None = unbounded


def _input_box(query: LinearQuery, skeleton: Skeleton) -> dict[int, Interval]:
    """Extract per-variable closed bounds from single-term constraints."""
    bounds: dict[int, Interval] = {}
    for c in query.constraints:
        if len(c.terms) != 1:
            continue
        (var, coeff), = c.terms
        vid = skeleton.qvar_ids[var]
        value = c.constant / coeff
        rel = c.relation
        if coeff < 0:  # dividing by a negative coefficient flips the relation
            rel = FLIP_REL[rel]
        lo, hi = bounds.get(vid, (None, None))
        if rel in ("<=", "<"):
            hi = value if hi is None else min(hi, value)
        elif rel in (">=", ">"):
            lo = value if lo is None else max(lo, value)
        else:
            lo = value if lo is None else max(lo, value)
            hi = value if hi is None else min(hi, value)
        bounds[vid] = (lo, hi)
    return bounds


def propagate_bounds(
    skeleton: Skeleton, query: LinearQuery
) -> tuple[dict[int, Interval], dict[int, str]]:
    """Interval arithmetic through affine rows and ReLU clamping.

    Returns per-variable intervals and the phases fixed by them: a ReLU
    whose pre-activation upper bound is <= 0 is Inactive, lower bound >= 0
    Active (the boundary pre = 0 agrees in both phases).
    """
    intervals: dict[int, Interval] = dict.fromkeys(range(skeleton.num_vars), (None, None))
    intervals.update(_input_box(query, skeleton))
    fixed: dict[int, str] = {}

    # Events are recorded in forward order, so one sweep suffices.
    for event in skeleton.events:
        if event[0] == "affine":
            _, vid, terms, bias = event
            lo: Fraction | None = bias
            hi: Fraction | None = bias
            for src, w in terms:
                slo, shi = intervals[src]
                if w > 0:
                    lo = None if (lo is None or slo is None) else lo + w * slo
                    hi = None if (hi is None or shi is None) else hi + w * shi
                else:
                    lo = None if (lo is None or shi is None) else lo + w * shi
                    hi = None if (hi is None or slo is None) else hi + w * slo
            old_lo, old_hi = intervals[vid]
            intervals[vid] = (
                lo if old_lo is None else (old_lo if lo is None else max(lo, old_lo)),
                hi if old_hi is None else (old_hi if hi is None else min(hi, old_hi)),
            )
        else:
            node = skeleton.relu_nodes[event[1]]
            plo, phi = intervals[node.pre_var]
            if phi is not None and phi <= 0:
                fixed[node.node_id] = "inactive"
                intervals[node.post_var] = (ZERO, ZERO)
            elif plo is not None and plo >= 0:
                fixed[node.node_id] = "active"
                intervals[node.post_var] = (plo, phi)
            else:
                intervals[node.post_var] = (ZERO, phi)
    return intervals, fixed


# ---------------------------------------------------------------------------
# Free coordinates
# ---------------------------------------------------------------------------

Form = tuple[dict[int, Fraction], Fraction]  # coefficient per coordinate, constant


def free_coordinate_forms(
    skeleton: Skeleton, fixed: dict[int, str]
) -> tuple[int, dict[int, Form]]:
    """The number of free coordinates, and every variable as an affine form
    over them.

    The free coordinates are the network inputs (coordinate ``v`` is input
    variable ``v``; unrolling numbers the inputs first) and then the
    outputs of the ReLUs that ``fixed`` leaves free, in node order.  The
    equalities and the fixed phases determine every other variable.  A
    form holds no zero coefficient.
    """
    forms: dict[int, Form] = {
        vid: ({vid: ONE}, ZERO) for qv, vid in skeleton.qvar_ids.items() if qv.kind == "x"
    }
    count = len(forms)
    for event in skeleton.events:
        if event[0] == "affine":
            _, vid, terms, bias = event
            forms[vid] = _combine(terms, bias, forms)
            continue
        node = skeleton.relu_nodes[event[1]]
        phase = fixed.get(node.node_id)
        if phase is None:
            forms[node.post_var] = ({count: ONE}, ZERO)
            count += 1
        elif phase == "inactive":
            forms[node.post_var] = ({}, ZERO)
        else:
            forms[node.post_var] = forms[node.pre_var]
    return count, forms


def _combine(terms, constant: Fraction, forms: dict[int, Form]) -> Form:
    """``constant + sum(k * forms[v] for v, k in terms)``."""
    coeffs: dict[int, Fraction] = {}
    for v, k in terms:
        form, offset = forms[v]
        if offset:
            constant += k * offset
        for c, a in form.items():
            ka = k if a is ONE else k * a
            coeffs[c] = coeffs[c] + ka if c in coeffs else ka
    return {c: a for c, a in coeffs.items() if a}, constant


def _in_free_coordinates(
    c: LPConstraint, forms: dict[int, Form], num_inputs: int
) -> LPConstraint:
    """``c`` over the free coordinates; a row over inputs alone already is."""
    if all(v < num_inputs for v, _ in c.terms):
        return c
    coeffs, constant = _combine(c.terms, ZERO, forms)
    return LPConstraint(tuple(coeffs.items()), c.relation, c.rhs - constant)


# ---------------------------------------------------------------------------
# Branch-and-bound over ReLU phases
# ---------------------------------------------------------------------------

PHASES = ("inactive", "active")


def _query_constraints(query: LinearQuery, skeleton: Skeleton) -> list[LPConstraint]:
    out = []
    for c in query.constraints:
        terms = tuple((skeleton.qvar_ids[v], k) for v, k in c.terms)
        out.append(LPConstraint(terms, c.relation, c.constant))
    return out


# The rows of one ReLU are built from the form of its pre-activation and
# the variable of its output: the node's own two variables in the full
# constraint list, and in free coordinates the form of ``pre_var`` and the
# coordinate of a free output.


def _sign_row(pre: Form, phase: str) -> LPConstraint:
    """``pre <= 0`` (Inactive) or ``pre >= 0`` (Active)."""
    coeffs, constant = pre
    return LPConstraint(tuple(coeffs.items()), "<=" if phase == "inactive" else ">=", -constant)


def _minus_pre(post: int, pre: Form, scale: Fraction = ONE) -> tuple[tuple[int, Fraction], ...]:
    """The terms of ``scale * post - pre``; ``post`` is not in ``pre``."""
    return ((post, scale),) + tuple((v, -k) for v, k in pre[0].items())


def _phase_rows(pre: Form, post: int, phase: str) -> list[LPConstraint]:
    """The sign row and ``post = 0`` (Inactive) or ``post = pre`` (Active)."""
    if phase == "inactive":
        return [_sign_row(pre, phase), LPConstraint(((post, ONE),), "=", ZERO)]
    return [_sign_row(pre, phase), LPConstraint(_minus_pre(post, pre), "=", pre[1])]


def _branch_row(pre: Form, post: int, phase: str) -> LPConstraint:
    """``post <= 0`` (Inactive) or ``post <= pre`` (Active): with the
    triangle's lower faces ``post >= 0`` and ``post >= pre``, the region
    of ``_phase_rows``."""
    if phase == "inactive":
        return LPConstraint(((post, ONE),), "<=", ZERO)
    return LPConstraint(_minus_pre(post, pre), "<=", pre[1])


def _phase_constraints(node: ReluNode, phase: str) -> list[LPConstraint]:
    return _phase_rows(({node.pre_var: ONE}, ZERO), node.post_var, phase)


def _triangle_rows(pre: Form, post: int, bounds: Interval) -> list[LPConstraint]:
    """The convex hull of post = max(pre, 0) over l <= pre <= u; without
    both bounds only its two lower faces."""
    rows = [
        LPConstraint(((post, ONE),), ">=", ZERO),
        LPConstraint(_minus_pre(post, pre), ">=", pre[1]),
    ]
    lo, hi = bounds
    if lo is not None and hi is not None:
        # (u - l) post - u pre <= -u l, where pre is its terms plus b
        scaled = ({v: hi * k for v, k in pre[0].items()}, ZERO)
        rows.append(LPConstraint(_minus_pre(post, scaled, hi - lo), "<=", hi * (pre[1] - lo)))
    return rows


class _FreeRelu(NamedTuple):
    """A free ReLU in free coordinates: the form of its pre-activation,
    the coordinate of its output and its branch row per phase."""

    pre: Form
    post: int
    rows: dict[str, LPConstraint]


# (relus, point, unbranched) -> (ReLU to branch on, its phases in order) or
# None to end the search at this node; see ``_search``.
Rule = Callable[[list[_FreeRelu], list[Fraction], tuple[int, ...]], tuple[int, tuple] | None]


def check_query(
    query: LinearQuery,
    ctx: NetworkContext,
    *,
    phase_budget: int = DEFAULT_PHASE_BUDGET,
) -> Verdict:
    """Decide one linear query exactly.

    SAT carries the witness of the lexicographically least satisfiable
    phase assignment (Inactive before Active, in ReLU order) over the ReLU
    nodes left unfixed by bound propagation, restricted to the relational
    variables.  More than ``phase_budget`` unfixed nodes is an error.
    """
    skeleton = unroll_meta_network(query.meta, ctx)
    intervals, fixed = propagate_bounds(skeleton, query)

    free_nodes = [n for n in skeleton.relu_nodes if n.node_id not in fixed]
    if len(free_nodes) > phase_budget:
        raise VerifyError(
            "PhaseBudgetExceeded",
            f"{len(free_nodes)} unfixed ReLU nodes exceed the phase budget "
            f"of {phase_budget}",
        )
    # The search runs in free coordinates: the equalities and the fixed
    # phases' definition rows become 0 = 0 there and are dropped.
    num_coords, forms = free_coordinate_forms(skeleton, fixed)
    query_rows = _query_constraints(query, skeleton)
    num_inputs = query.meta.total_inputs
    relaxation = [_in_free_coordinates(c, forms, num_inputs) for c in query_rows]
    for node_id, phase in fixed.items():
        relaxation.append(_sign_row(forms[skeleton.relu_nodes[node_id].pre_var], phase))
    relus = []
    for node in free_nodes:
        pre = forms[node.pre_var]
        (post,) = forms[node.post_var][0]  # the output's coordinate
        bounds = intervals.get(node.pre_var, (None, None))  # absent: unbounded
        relaxation.extend(_triangle_rows(pre, post, bounds))
        rows = {phase: _branch_row(pre, post, phase) for phase in PHASES}
        relus.append(_FreeRelu(pre, post, rows))
    root = LPProblem(num_coords, relaxation)
    point = feasible(root)
    unbranched = tuple(range(len(relus)))
    if point is None or _search(root, point, relus, unbranched, _loosest_gap) is None:
        return Unsat()
    # A feasible leaf exists; the first in node order gives the witness.
    phases = _search(root, point, relus, unbranched, _node_order)
    leaf = skeleton.equalities + query_rows
    for node_id, phase in fixed.items():
        leaf.extend(_phase_constraints(skeleton.relu_nodes[node_id], phase))
    for i, node in enumerate(free_nodes):
        leaf.extend(_phase_constraints(node, phases[i]))
    witness = feasible(LPProblem(skeleton.num_vars, leaf))
    assert witness is not None, "a feasible leaf relaxation has an infeasible leaf LP"
    return _restrict(witness, skeleton)


def _search(
    problem: LPProblem,
    point: list[Fraction],
    relus: list[_FreeRelu],
    unbranched: tuple[int, ...],
    rule: Rule,
) -> dict[int, str] | None:
    """The phases branched on down to a feasible leaf below the feasible
    ``problem``, whose LP gave ``point``, by index into ``relus``; None if
    every leaf below it is infeasible.  ``rule(relus, point, unbranched)``
    picks the ReLU to branch on among those ``unbranched`` and the order
    of its phases, or returns None when ``problem``'s region is known to
    hold a leaf point, which ends the search there."""
    pick = rule(relus, point, unbranched)
    if pick is None:
        return {}
    i, phases = pick
    rest = tuple(j for j in unbranched if j != i)
    for phase in phases:
        rows = problem.constraints + [relus[i].rows[phase]]
        child = LPProblem(problem.num_vars, rows, parent=problem)
        child_point = feasible(child)
        if child_point is not None:
            found = _search(child, child_point, relus, rest, rule)
            if found is not None:
                found[i] = phase
                return found
    return None


def _node_order(relus, point, unbranched):
    """The first unbranched ReLU, Inactive before Active: the first leaf
    found is the lexicographically least feasible one."""
    return (unbranched[0], PHASES) if unbranched else None


def _loosest_gap(relus, point, unbranched):
    """The unbranched ReLU whose output most exceeds ``max(pre, 0)`` at
    ``point`` (ties to the first), its phase of ``pre``'s sign there
    first.  None when no gap is positive: every ReLU then holds exactly at
    ``point``, a leaf point."""
    best, best_gap, active = None, ZERO, False
    for i in unbranched:
        relu = relus[i]
        post = point[relu.post]
        if not post:  # post >= max(pre, 0) >= 0: no gap
            continue
        coeffs, pre = relu.pre
        for c, k in coeffs.items():
            pre += k * point[c]
        gap = post - pre if pre > 0 else post
        if gap > best_gap:
            best, best_gap, active = i, gap, pre > 0
    if best is None:
        return None
    return best, (("active", "inactive") if active else PHASES)


def _restrict(witness: list[Fraction], skeleton: Skeleton) -> Sat:
    pairs = tuple(
        (qv, witness[vid])
        for qv, vid in sorted(skeleton.qvar_ids.items())
        if qv.kind in ("x", "y")
    )
    return Sat(pairs)
