"""Sound-and-complete decision procedure for linear queries over
piecewise-linear (affine/ReLU) networks.

The metanetwork is unrolled into variables and equality constraints; each
ReLU node is a case split (Inactive: pre <= 0, post = 0; Active: pre >= 0,
post = pre).  Interval bound propagation over the query's input box fixes
phases whose pre-activation cannot straddle zero.

The remaining ("free") ReLUs are decided by a depth-first branch-and-bound
search: branch on them in order, Inactive before Active.  The root LP is
the base constraints plus the triangle relaxation of every free ReLU
(Ehlers 2017): ``post >= 0``, ``post >= pre`` and, when both interval
bounds ``l < 0 < u`` are known, ``post <= u (pre - l) / (u - l)``.  A child
adds its ReLU's two phase rows to its parent's LP and is solved warm from
the parent's final tableau; an infeasible node prunes its subtree.  Every
point of a leaf's phase region satisfies the triangle rows, so a leaf is
feasible exactly when the flat leaf LP (base plus phase rows) is, and the
first feasible leaf is the lexicographically least satisfiable phase
assignment.  It is re-solved from scratch on the flat leaf constraint list,
so the witness depends only on that list (Bland's rule is deterministic),
not on the search.

Every LP goes through the module attribute ``feasible``.
"""

from __future__ import annotations

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
# Branch-and-bound over ReLU phases
# ---------------------------------------------------------------------------

PHASES = ("inactive", "active")


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


def _triangle_constraints(node: ReluNode, bounds: Interval) -> list[LPConstraint]:
    """The convex hull of post = max(pre, 0) over l <= pre <= u; without
    both bounds only its two lower faces."""
    one = Fraction(1)
    rows = [
        LPConstraint(((node.post_var, one),), ">=", ZERO),
        LPConstraint(((node.post_var, one), (node.pre_var, -one)), ">=", ZERO),
    ]
    lo, hi = bounds
    if lo is not None and hi is not None:
        # (u - l) post - u pre <= -u l
        rows.append(
            LPConstraint(((node.post_var, hi - lo), (node.pre_var, -hi)), "<=", -hi * lo)
        )
    return rows


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

    relaxation = list(base)
    for node in free_nodes:
        bounds = intervals.get(node.pre_var, (None, None))  # absent: unbounded
        relaxation.extend(_triangle_constraints(node, bounds))
    root = LPProblem(skeleton.num_vars, relaxation)
    witness = feasible(root)
    if witness is None:
        return Unsat()
    if free_nodes:
        phases = _first_feasible_leaf(root, free_nodes)
        if phases is None:
            return Unsat()
        leaf = list(base)
        for node, phase in zip(free_nodes, phases):
            leaf.extend(_phase_constraints(node, phase))
        witness = feasible(LPProblem(skeleton.num_vars, leaf))
        assert witness is not None, "a feasible leaf relaxation has an infeasible leaf LP"
    return _restrict(witness, skeleton)


def _first_feasible_leaf(problem: LPProblem, free_nodes: list[ReluNode]) -> list[str] | None:
    """Phases of the first leaf below the feasible ``problem`` whose LP is
    feasible, branching on ``free_nodes[0]`` first; None if there is none."""
    if not free_nodes:
        return []
    node, rest = free_nodes[0], free_nodes[1:]
    for phase in PHASES:
        child = LPProblem(
            problem.num_vars,
            problem.constraints + _phase_constraints(node, phase),
            parent=problem,
        )
        if feasible(child) is not None:
            phases = _first_feasible_leaf(child, rest)
            if phases is not None:
                return [phase] + phases
    return None


def _restrict(witness: list[Fraction], skeleton: Skeleton) -> Sat:
    pairs = tuple(
        (qv, witness[vid])
        for qv, vid in sorted(skeleton.qvar_ids.items())
        if qv.kind in ("x", "y")
    )
    return Sat(pairs)
