"""Sound-and-complete decision procedure for linear queries over
piecewise-linear (affine/ReLU) networks.

The metanetwork is unrolled into variables and equality constraints; each
ReLU node is a case split (Inactive: pre <= 0, post = 0; Active: pre >= 0,
post = pre).  Interval bound propagation over the query's input box fixes
phases whose pre-activation cannot straddle zero; the remaining phases are
enumerated lexicographically (Inactive before Active) and each case is
decided by exact LP feasibility.  The first satisfiable case wins, which
together with deterministic pivoting makes verdicts and witnesses
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ..errors import VerifyError
from ..networks import Affine, NetworkContext
from ..queries import FLIP_REL, LinearQuery, MetaNetwork, QVar
from ..verdicts import Sat, Unsat, Verdict
from .lp import LPConstraint, LPProblem, feasible

DEFAULT_PHASE_BUDGET = 20

ZERO = Fraction(0)


@dataclass(frozen=True)
class ReluNode:
    """One ReLU case split: post = max(pre, 0)."""

    node_id: int
    pre_var: int
    post_var: int


@dataclass
class Skeleton:
    """Variables and equality constraints of an unrolled metanetwork."""

    num_vars: int
    qvar_ids: dict[QVar, int]
    equalities: list[LPConstraint]
    relu_nodes: list[ReluNode]
    # Forward-ordered events for bound propagation: ("affine", out_var,
    # terms, bias) or ("relu", node_id).
    events: list[tuple]


def unroll_meta_network(meta: MetaNetwork, ctx: NetworkContext) -> Skeleton:
    """Introduce hidden variables per layer; affine layers contribute
    equalities, ReLU nodes become case splits."""
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

    equalities: list[LPConstraint] = []
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
                    # new[r] - sum(w * cur) = b
                    eq_terms = ((new[r], Fraction(1)),) + tuple(
                        (v, -w) for v, w in terms
                    )
                    equalities.append(LPConstraint(eq_terms, "=", b))
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
                equalities.append(
                    LPConstraint(((y_id, Fraction(1)), (x_id, Fraction(-1))), "=", ZERO)
                )
    return Skeleton(counter, qvar_ids, equalities, relu_nodes, events)


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
# Phase enumeration
# ---------------------------------------------------------------------------


def _query_constraints(query: LinearQuery, skeleton: Skeleton) -> list[LPConstraint]:
    out = []
    for c in query.constraints:
        terms = tuple((skeleton.qvar_ids[v], k) for v, k in c.terms)
        out.append(LPConstraint(terms, c.relation, c.constant))
    return out


def _phase_constraints(node: ReluNode, phase: str) -> list[LPConstraint]:
    one = Fraction(1)
    if phase == "inactive":
        return [
            LPConstraint(((node.pre_var, one),), "<=", ZERO),
            LPConstraint(((node.post_var, one),), "=", ZERO),
        ]
    return [
        LPConstraint(((node.pre_var, one),), ">=", ZERO),
        LPConstraint(((node.post_var, one), (node.pre_var, -one)), "=", ZERO),
    ]


def check_query(
    query: LinearQuery,
    ctx: NetworkContext,
    *,
    phase_budget: int = DEFAULT_PHASE_BUDGET,
) -> Verdict:
    """Decide one linear query exactly.

    Enumerates phase assignments over the ReLU nodes left unfixed by bound
    propagation, checking one exact LP per assignment; the first
    satisfiable assignment (in lexicographic order, Inactive before Active)
    yields SAT with its witness restricted to the relational variables.
    """
    skeleton = unroll_meta_network(query.meta, ctx)
    _, fixed = propagate_bounds(skeleton, query)

    base = skeleton.equalities + _query_constraints(query, skeleton)
    for node_id, phase in fixed.items():
        base.extend(_phase_constraints(skeleton.relu_nodes[node_id], phase))

    free_nodes = [n for n in skeleton.relu_nodes if n.node_id not in fixed]
    if len(free_nodes) > phase_budget:
        raise VerifyError(
            "PhaseBudgetExceeded",
            f"{len(free_nodes)} unfixed ReLU nodes exceed the phase budget "
            f"of {phase_budget}",
        )

    for assignment in itertools.product(("inactive", "active"), repeat=len(free_nodes)):
        constraints = list(base)
        for node, phase in zip(free_nodes, assignment):
            constraints.extend(_phase_constraints(node, phase))
        witness = feasible(LPProblem(skeleton.num_vars, constraints))
        if witness is not None:
            return _restrict(witness, skeleton)
    return Unsat()


def _restrict(witness: list[Fraction], skeleton: Skeleton) -> Sat:
    pairs = tuple(
        (qv, witness[vid])
        for qv, vid in sorted(skeleton.qvar_ids.items())
        if qv.kind in ("x", "y")
    )
    return Sat(pairs)
