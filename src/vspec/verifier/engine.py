"""Sound-and-complete decision procedure for linear queries over
piecewise-linear (affine/ReLU) networks.

One forward pass over each application's layers (``_forward``) writes
every unit as an affine form over the free coordinates and, over the
query's input box, bounds it by interval arithmetic.  Each ReLU is a case
split (Inactive: pre <= 0, post = 0; Active: pre >= 0, post = pre).  At a
ReLU, ``_fixed_phase`` fixes the phase where the pre-activation's interval
cannot straddle zero; otherwise the ReLU is free, and its output becomes
a new coordinate.

The free ReLUs are decided by one depth-first branch-and-bound search
(``_search``).  It branches on the ReLU whose output exceeds ``max(pre,
0)`` most at the point of the node's LP, trying first the phase of
``pre``'s sign there (the idea of BaBSR, Bunel et al. 2020).  When no gap
is positive, the point is an exact network point that satisfies the
query, and the search stops.  When it runs out, the query is
unsatisfiable: every branching order refutes the same phase regions.  The
witness comes from the lexicographically least feasible phase assignment
(Inactive before Active, in node order), which the walk (``_walk``)
reaches from that point, so it does not depend on the branching order
either.

The search runs in free coordinates, the network inputs and the outputs
of the free ReLUs: every unit is an affine form over them, so the search
LPs carry none of the network's equalities, and a node's LP is feasible
exactly when the LP over all units is.  A coordinate gets one tableau
column, not a ``+``/``-`` pair, where it is nonnegative
(``LPProblem.nonneg``): a free ReLU's output, and an input whose box has
a lower bound ``l``, shifted to ``x - l`` (its form is the coordinate plus
``l``).  The root LP is the query rows and the fixed phases' sign rows
plus the triangle relaxation of every free ReLU (Ehlers 2017): ``post >=
0`` (the coordinate's sign), ``post >= pre`` and, when both interval
bounds ``l < 0 < u`` are known, ``post <= u (pre - l) / (u - l)``.  A
non-strict row that only restates a coordinate's sign, such as the
shifted ``x - l >= 0``, is dropped; a strict ``x > l`` stays.  A child
adds one row to its parent's LP, its ReLU's upper face for the phase:
``post <= 0`` (Inactive) or ``post <= pre`` (Active).  With the lower
faces, that row gives exactly the phase's region: ``0 <= post <= 0`` and
``pre <= post`` is ``post = 0, pre <= 0``; ``pre <= post <= pre`` and ``0
<= post`` is ``post = pre, pre >= 0``.  The child is solved warm from the
parent's final tableau; an infeasible node prunes its subtree.  Every
point of a leaf's phase region satisfies the triangle rows, so a leaf is
feasible exactly when its phase region is.

The witness is the point of the walk's leaf LP, built as the root is but
from a second pass with every phase given: no ReLU output is then a
coordinate, so it is an LP over the inputs alone, its rows the query rows
and one sign row per ReLU in node order.  It has no parent: ``lp``
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

from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from ..errors import VerifyError
from ..networks import Affine, NetworkContext, Relu
from ..queries import FLIP_REL, LinearQuery, MetaNetwork, QVar
from ..verdicts import Sat, Unsat, Verdict
from .lp import LPConstraint, LPProblem, feasible

DEFAULT_PHASE_BUDGET = 20

ZERO = Fraction(0)
ONE = Fraction(1)

Interval = tuple[Fraction | None, Fraction | None]  # None = unbounded
Form = tuple[dict[int, Fraction], Fraction]  # coefficient per coordinate, constant


# ---------------------------------------------------------------------------
# One forward pass
# ---------------------------------------------------------------------------


def _input_box(query: LinearQuery) -> list[Interval]:
    """Each input's closed bounds from the single-term rows over it.  An
    output is never a pre-activation, so its bounds fix no phase."""
    box: list[Interval] = [(None, None)] * query.meta.total_inputs
    for c in query.constraints:
        if len(c.terms) != 1:
            continue
        (var, coeff), = c.terms
        if var.kind != "x":
            continue
        value = c.constant / coeff
        rel = c.relation
        if coeff < 0:  # dividing by a negative coefficient flips the relation
            rel = FLIP_REL[rel]
        lo, hi = box[var.index]
        if rel in ("<=", "<"):
            hi = value if hi is None else min(hi, value)
        elif rel in (">=", ">"):
            lo = value if lo is None else max(lo, value)
        else:
            lo = value if lo is None else max(lo, value)
            hi = value if hi is None else min(hi, value)
        box[var.index] = (lo, hi)
    return box


def _fixed_phase(lo: Fraction | None, hi: Fraction | None) -> str | None:
    """The phase of a ReLU whose pre-activation lies in ``[lo, hi]``:
    Inactive where ``hi <= 0``, Active where ``lo >= 0`` (the boundary
    ``pre = 0`` agrees in both phases), None (free) where it may straddle
    zero."""
    if hi is not None and hi <= 0:
        return "inactive"
    if lo is not None and lo >= 0:
        return "active"
    return None


class _Pass(NamedTuple):
    """What one forward pass finds, every ReLU in node order: application
    by application, layer by layer."""

    free: list[tuple[Form, Interval, int]]  # per free ReLU: pre form, interval, output coordinate
    phases: list[str | None]  # per ReLU: its fixed phase, None where free
    signs: list[LPConstraint]  # the sign row of each fixed ReLU
    inputs: list[Form]  # per input variable x_i
    outputs: list[Form]  # per output variable y_j
    num_coords: int
    nonneg: frozenset[int]  # the shifted inputs and the free ReLUs' outputs


def _forward(
    meta: MetaNetwork,
    ctx: NetworkContext,
    box: list[Interval],
    phases: list[str] | None = None,
) -> _Pass:
    """One pass over the layers of each application of ``meta``.

    The coordinates are the inputs (coordinate ``i`` is input ``i`` minus
    its lower bound in ``box``, or input ``i`` itself without one) and then
    the outputs of the free ReLUs, in node order.  Every unit gets its form
    over them, which holds no zero coefficient, and, unless ``phases`` is
    given, its interval over ``box``.  A ReLU's phase is ``phases[node]``
    where given, else ``_fixed_phase`` of its pre-activation's interval.
    The output of a ReLU with no phase is a new coordinate, nonnegative
    like a shifted input."""
    inputs: list[Form] = [({i: ONE}, ZERO if lo is None else lo) for i, (lo, _) in enumerate(box)]
    outputs: list[Form] = []
    free: list[tuple[Form, Interval, int]] = []
    fixed: list[str | None] = [] if phases is None else phases
    signs: list[LPConstraint] = []
    count = len(inputs)
    node = 0
    in_off = meta.input_offsets
    for a, (name, m, _) in enumerate(meta.applications):
        forms = inputs[in_off[a] : in_off[a] + m]
        bounds = None if phases is not None else box[in_off[a] : in_off[a] + m]
        for layer in ctx[name].model.layers:
            if type(layer) is Affine:
                new_forms, new_bounds = [], []
                for row, bias in zip(layer.weights, layer.bias):
                    terms = [(j, w) for j, w in enumerate(row) if w]
                    new_forms.append(_combine(terms, bias, forms))
                    if bounds is None:
                        continue
                    lo: Fraction | None = bias
                    hi: Fraction | None = bias
                    for j, w in terms:
                        slo, shi = bounds[j]
                        if w > 0:
                            lo = None if (lo is None or slo is None) else lo + w * slo
                            hi = None if (hi is None or shi is None) else hi + w * shi
                        else:
                            lo = None if (lo is None or shi is None) else lo + w * shi
                            hi = None if (hi is None or slo is None) else hi + w * slo
                    new_bounds.append((lo, hi))
                forms = new_forms
                if bounds is not None:
                    bounds = new_bounds
                continue
            new_forms, new_bounds = [], []
            for j, pre in enumerate(forms):
                if bounds is None:
                    phase = phases[node]
                else:
                    lo, hi = bounds[j]
                    phase = _fixed_phase(lo, hi)
                    fixed.append(phase)
                    if phase is None:
                        new_bounds.append((ZERO, hi))
                    else:
                        new_bounds.append((ZERO, ZERO) if phase == "inactive" else (lo, hi))
                node += 1
                if phase is None:
                    free.append((pre, (lo, hi), count))
                    new_forms.append(({count: ONE}, ZERO))
                    count += 1
                    continue
                signs.append(_sign_row(pre, phase))
                new_forms.append(pre if phase == "active" else ({}, ZERO))
            forms = new_forms
            if bounds is not None:
                bounds = new_bounds
        outputs += forms
    lower = (i for i, (lo, _) in enumerate(box) if lo is not None)
    nonneg = frozenset(lower).union(range(len(inputs), count))
    return _Pass(free, fixed, signs, inputs, outputs, count, nonneg)


def _combine(terms, constant: Fraction, forms: list[Form]) -> Form:
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


# Kept for ``perfbench/tracing._count_engine`` alone, which counts free
# ReLUs through them, until ROADMAP item 2 gives the program its own
# counters.


def unroll_meta_network(meta: MetaNetwork, ctx: NetworkContext) -> SimpleNamespace:
    """The query's networks, with one entry per ReLU in ``relu_nodes``."""
    count = sum(
        layer.width
        for name, _, _ in meta.applications
        for layer in ctx[name].model.layers
        if type(layer) is Relu
    )
    return SimpleNamespace(meta=meta, ctx=ctx, relu_nodes=range(count))


def propagate_bounds(
    unrolled: SimpleNamespace, query: LinearQuery
) -> tuple[dict[int, Interval], dict[int, str]]:
    """The pre-activation interval of each free ReLU and the phase of each
    fixed one, by node."""
    run = _forward(unrolled.meta, unrolled.ctx, _input_box(query))
    free = [node for node, phase in enumerate(run.phases) if phase is None]
    intervals = {node: interval for node, (_, interval, _) in zip(free, run.free)}
    return intervals, {node: phase for node, phase in enumerate(run.phases) if phase}


# ---------------------------------------------------------------------------
# Branch-and-bound over ReLU phases
# ---------------------------------------------------------------------------

PHASES = ("inactive", "active")


def _rows(query: LinearQuery, run: _Pass) -> list[LPConstraint]:
    """The region of the phases ``run`` fixed, in its coordinates: the
    query rows and then the fixed ReLUs' sign rows, but for a row that
    only restates a coordinate's sign.  The network's equalities and the
    fixed phases' definitions are ``0 = 0`` there.  A row over unshifted
    inputs alone keeps its terms."""
    num_inputs = len(run.inputs)
    forms = run.inputs + run.outputs
    rows = []
    for c in query.constraints:
        terms = [(v.index if v.kind == "x" else num_inputs + v.index, k) for v, k in c.terms]
        if all(v < num_inputs and not forms[v][1] for v, _ in terms):
            rows.append(LPConstraint(tuple(terms), c.relation, c.constant))
            continue
        coeffs, constant = _combine(terms, ZERO, forms)
        rows.append(LPConstraint(tuple(coeffs.items()), c.relation, c.constant - constant))
    rows += run.signs
    return [c for c in rows if not _implied_by_sign(c, run.nonneg)]


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
    box = _input_box(query)
    run = _forward(query.meta, ctx, box)
    if len(run.free) > phase_budget:
        raise VerifyError(
            "PhaseBudgetExceeded",
            f"{len(run.free)} unfixed ReLU nodes exceed the phase budget "
            f"of {phase_budget}",
        )
    relaxation = _rows(query, run)
    relus = []
    for pre, bounds, post in run.free:
        relaxation.extend(_triangle_rows(pre, post, bounds))
        rows = {phase: _branch_row(pre, post, phase) for phase in PHASES}
        relus.append(_FreeRelu(pre, post, rows))
    root = LPProblem(run.num_coords, relaxation, nonneg=run.nonneg)
    point = _search(root, relus, tuple(range(len(relus))))
    if point is None:
        return Unsat()
    if relus:  # else the root is the leaf LP, and ``point`` its witness
        walked = iter(_walk(root, point, relus))
        run = _forward(query.meta, ctx, box, [phase or next(walked) for phase in run.phases])
        point = feasible(LPProblem(run.num_coords, _rows(query, run), nonneg=run.nonneg))
        assert point is not None, "a feasible leaf relaxation has an infeasible leaf LP"
    xs = [(QVar("x", i), _value(form, point)) for i, form in enumerate(run.inputs)]
    ys = [(QVar("y", j), _value(form, point)) for j, form in enumerate(run.outputs)]
    return Sat(tuple(xs + ys))


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
