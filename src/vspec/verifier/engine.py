"""Sound-and-complete decision procedure for linear queries over
piecewise-linear (affine/ReLU) networks.

The metanetwork is unrolled into variables and equality constraints; each
ReLU node is a case split (Inactive: pre <= 0, post = 0; Active: pre >= 0,
post = pre).  Interval bound propagation over the query's input box fixes
phases whose pre-activation cannot straddle zero.

The remaining ("free") ReLUs are decided by one depth-first
branch-and-bound search (``_search``).  It branches on the ReLU whose
output exceeds ``max(pre, 0)`` most at the point of the node's LP,
trying first the phase of ``pre``'s sign there (the idea of BaBSR, Bunel
et al. 2020).  When no gap is positive, the point is an exact network
point that satisfies the query, and the search stops.  When it runs out,
the query is unsatisfiable: every branching order refutes the same phase
regions.  The witness comes from the lexicographically least feasible
phase assignment (Inactive before Active, in node order), which the walk
(``_walk``) reaches from that point, so it does not depend on the
branching order either.

The search runs in free coordinates, the network inputs and the outputs
of the free ReLUs: every other variable is an affine form over them
(``free_coordinate_forms``), so the search LPs carry none of the
network's equalities, and a node's LP is feasible exactly when the LP
over all variables is.  A coordinate gets one tableau column, not a
``+``/``-`` pair, where it is nonnegative (``LPProblem.nonneg``): a free
ReLU's output, and an input whose box has a lower bound ``l``, shifted
to ``x - l`` (its form is the coordinate plus ``l``).  The root LP is the
query rows and the fixed phases' sign rows plus the triangle relaxation
of every free ReLU (Ehlers 2017): ``post >= 0`` (the coordinate's sign),
``post >= pre`` and, when both interval bounds ``l < 0 < u`` are known,
``post <= u (pre - l) / (u - l)``.  A non-strict row that only restates a
coordinate's sign, such as the shifted ``x - l >= 0``, is dropped; a
strict ``x > l`` stays.  A child adds one row to its parent's LP, its
ReLU's upper face for the phase: ``post <= 0`` (Inactive) or ``post <=
pre`` (Active).  With the lower faces, that row gives exactly the
phase's region: ``0 <= post <= 0`` and ``pre <= post`` is ``post = 0,
pre <= 0``; ``pre <= post <= pre`` and ``0 <= post`` is ``post = pre,
pre >= 0``.  The child is solved warm from the parent's final tableau;
an infeasible node prunes its subtree.  Every point of a leaf's phase
region satisfies the triangle rows, so a leaf is feasible exactly when
its phase region is.

The witness is the point of the walk's leaf LP, built as the root is
(``_region``) but with every phase fixed: no ReLU output is then a
coordinate, so it is an LP over the inputs alone, its rows the query
rows and one sign row per ReLU in node order.  It has no parent: ``lp``
extends its seed tableau by every row, so the witness depends only on
the query and the leaf's phases (Bland's rule is deterministic), not on
the search or its branching order; it is always feasible.  Which phases
bounds fixed can move the leaf in one corner: a ReLU whose pre-activation
has a lower bound of exactly 0 is fixed Active, although Inactive
(``pre = 0``) is feasible too, and the walk, left to choose, could take
Inactive and so reach another leaf.  A query with no free ReLU is the
search with zero branches: its root is that leaf LP, and its point the
witness.

Every LP goes through the module attribute ``feasible``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ..errors import VerifyError
from ..networks import Affine, NetworkContext
from ..queries import FLIP_REL, LinearQuery, MetaNetwork, QVar
from ..types import frozen_dataclass
from ..verdicts import Sat, Unsat, Verdict
from .lp import LPConstraint, LPProblem, feasible

DEFAULT_PHASE_BUDGET = 20

ZERO = Fraction(0)
ONE = Fraction(1)


@frozen_dataclass
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
    skeleton: Skeleton, fixed: dict[int, str], lower: dict[int, Fraction]
) -> tuple[int, dict[int, Form]]:
    """The number of free coordinates, and every variable as an affine form
    over them.

    The free coordinates are the network inputs (coordinate ``v`` is input
    variable ``v`` minus its lower bound ``lower[v]``, or ``v`` itself
    without one; unrolling numbers the inputs first) and then the outputs
    of the ReLUs that ``fixed`` leaves free, in node order.  The equalities
    and the fixed phases determine every other variable.  A form holds no
    zero coefficient.
    """
    forms: dict[int, Form] = {
        vid: ({vid: ONE}, lower.get(vid, ZERO))
        for qv, vid in skeleton.qvar_ids.items()
        if qv.kind == "x"
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
    """``c`` over the free coordinates; a row over unshifted inputs alone
    already is."""
    if all(v < num_inputs and not forms[v][1] for v, _ in c.terms):
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


# The rows of one ReLU are built from the form of its pre-activation and,
# for a free ReLU, the coordinate of its output.


def _sign_row(pre: Form, phase: str) -> LPConstraint:
    """``pre <= 0`` (Inactive) or ``pre >= 0`` (Active)."""
    coeffs, constant = pre
    return LPConstraint(tuple(coeffs.items()), "<=" if phase == "inactive" else ">=", -constant)


def _minus_pre(post: int, pre: Form, scale: Fraction = ONE) -> tuple[tuple[int, Fraction], ...]:
    """The terms of ``scale * post - pre``; ``post`` is not in ``pre``."""
    return ((post, scale),) + tuple((v, -k) for v, k in pre[0].items())


def _branch_row(pre: Form, post: int, phase: str) -> LPConstraint:
    """``post <= 0`` (Inactive) or ``post <= pre`` (Active): with the
    triangle's lower faces ``post >= 0`` (the coordinate's sign) and
    ``post >= pre``, the phase's region: the sign row and ``post = 0`` or
    ``post = pre``."""
    if phase == "inactive":
        return LPConstraint(((post, ONE),), "<=", ZERO)
    return LPConstraint(_minus_pre(post, pre), "<=", pre[1])


def _triangle_rows(pre: Form, post: int, bounds: Interval) -> list[LPConstraint]:
    """The convex hull of post = max(pre, 0) over l <= pre <= u, but for
    the face ``post >= 0`` that the nonnegative coordinate ``post`` holds;
    without both bounds only the lower face ``post >= pre``."""
    rows = [LPConstraint(_minus_pre(post, pre), ">=", pre[1])]
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
    # An input with a lower bound is searched as its offset from it; a
    # variable that ``intervals`` lacks is unbounded.
    num_inputs = query.meta.total_inputs
    lower = {
        v: lo for v in range(num_inputs) if (lo := intervals.get(v, (None, None))[0]) is not None
    }
    query_rows = _query_constraints(query, skeleton)
    num_coords, forms, nonneg, relaxation = _region(skeleton, query_rows, fixed, lower, num_inputs)
    relus = []
    for node in free_nodes:
        pre = forms[node.pre_var]
        (post,) = forms[node.post_var][0]  # the output's coordinate
        bounds = intervals.get(node.pre_var, (None, None))  # absent: unbounded
        relaxation.extend(_triangle_rows(pre, post, bounds))
        rows = {phase: _branch_row(pre, post, phase) for phase in PHASES}
        relus.append(_FreeRelu(pre, post, rows))
    root = LPProblem(num_coords, relaxation, nonneg=nonneg)
    point = _search(root, relus, tuple(range(len(relus))))
    if point is None:
        return Unsat()
    if relus:  # else the root is the leaf LP, and ``point`` its witness
        phases = dict(zip((n.node_id for n in free_nodes), _walk(root, point, relus)))
        _, forms, nonneg, leaf = _region(skeleton, query_rows, fixed | phases, lower, num_inputs)
        point = feasible(LPProblem(num_inputs, leaf, nonneg=nonneg))
        assert point is not None, "a feasible leaf relaxation has an infeasible leaf LP"
    pairs = sorted(skeleton.qvar_ids.items())
    return Sat(tuple((qv, _value(forms[vid], point)) for qv, vid in pairs))


def _region(
    skeleton: Skeleton,
    query_rows: list[LPConstraint],
    phases: dict[int, str],
    lower: dict[int, Fraction],
    num_inputs: int,
) -> tuple[int, dict[int, Form], frozenset[int], list[LPConstraint]]:
    """The free coordinates where ``phases`` fixes some ReLUs, and the
    region of those phases: the number of coordinates, every variable's
    form, the nonnegative coordinates, and the query rows and then one
    sign row per fixed ReLU in node order, in those coordinates.  The
    network's equalities and the fixed phases' definitions become ``0 =
    0`` there and are dropped, and so is a row that only restates a
    coordinate's sign."""
    num_coords, forms = free_coordinate_forms(skeleton, phases, lower)
    nonneg = frozenset(lower).union(range(num_inputs, num_coords))
    rows = [_in_free_coordinates(c, forms, num_inputs) for c in query_rows]
    for node in skeleton.relu_nodes:
        if node.node_id in phases:
            rows.append(_sign_row(forms[node.pre_var], phases[node.node_id]))
    return num_coords, forms, nonneg, [c for c in rows if not _implied_by_sign(c, nonneg)]


def _implied_by_sign(c: LPConstraint, nonneg: frozenset[int]) -> bool:
    """Whether ``c`` only bounds one coordinate in ``nonneg`` below by a
    value ``<= 0``, which the coordinate's sign implies: ``k * v >= r``
    with ``k > 0``, or ``k * v <= r`` with ``k < 0``, and ``r / k <= 0``.
    A strict row is never implied."""
    if len(c.terms) != 1:
        return False
    ((v, k),) = c.terms
    bounds_below = (k > 0 and c.relation == ">=") or (k < 0 and c.relation == "<=")
    return bounds_below and v in nonneg and c.rhs * k <= 0


def _search(
    problem: LPProblem, relus: list[_FreeRelu], unbranched: tuple[int, ...]
) -> list[Fraction] | None:
    """An exact network point in the region of the node ``problem``, whose
    LP this solves, or None if every leaf below it is infeasible.  It
    branches on the loosest ReLU among ``unbranched`` (ties to the first),
    the sign of its ``pre`` first, and stops where no gap is positive."""
    point = feasible(problem)
    if point is None:
        return None
    best, best_gap, active = None, ZERO, False
    for i in unbranched:
        relu = relus[i]
        post = point[relu.post]
        if not post:  # post >= max(pre, 0) >= 0: no gap
            continue
        pre = _value(relu.pre, point)
        gap = post - pre if pre > 0 else post
        if gap > best_gap:
            best, best_gap, active = i, gap, pre > 0
    if best is None:
        return point
    rest = tuple(j for j in unbranched if j != best)
    for phase in ("active", "inactive") if active else PHASES:
        found = _search(_child(problem, [relus[best].rows[phase]]), relus, rest)
        if found is not None:
            return found
    return None


def _walk(root: LPProblem, point: list[Fraction], relus: list[_FreeRelu]) -> list[str]:
    """The phases of the least feasible leaf below the solved ``root``,
    from the exact network point ``point`` in its region.  In node order:
    a ReLU with ``pre <= 0`` at ``point`` is Inactive with no LP; otherwise
    ``_search`` runs below the prefix plus Inactive, solved warm from the
    prefix, and a point it finds fixes Inactive and replaces ``point``.  If
    it refutes, ``point`` (``pre > 0``) lies in the Active region.  So
    Inactive is fixed exactly when the prefix plus Inactive holds a leaf."""
    phases: list[str] = []
    base, pending = root, []  # the last solved prefix LP, the rows fixed since
    for i, relu in enumerate(relus):
        phases.append("inactive")
        if _value(relu.pre, point) <= 0:
            pending.append(relu.rows["inactive"])
            continue
        if pending:  # their region holds ``point``: solved at once, feasible
            base, pending = _child(base, pending), []
            feasible(base)
        step = _child(base, [relu.rows["inactive"]])
        found = _search(step, relus, tuple(range(i + 1, len(relus))))
        if found is not None:
            point, base = found, step
        else:
            phases[i] = "active"
            pending.append(relu.rows["active"])
    return phases


def _child(problem: LPProblem, rows: list[LPConstraint]) -> LPProblem:
    """``problem`` plus ``rows``, solved warm from it."""
    rows = problem.constraints + rows
    return LPProblem(problem.num_vars, rows, parent=problem, nonneg=problem.nonneg)


def _value(form: Form, point: list[Fraction]) -> Fraction:
    """``form`` at ``point``."""
    coeffs, value = form
    for c, k in coeffs.items():
        value += k * point[c]
    return value
