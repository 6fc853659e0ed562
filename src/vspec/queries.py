"""Query compilation: normalised properties to purely existential
conjunctive linear queries over relational network variables.

Pipeline per property::

    analyse_quantifiers  -- all-universal properties are negated
    to_dnf               -- one pass from the (negated) property to its
                            disjuncts, one per verifier query: negation
                            pushed to the atoms, ``A => B`` read as
                            ``not A or B``, ``if c then A else B`` as
                            ``(c and A) or (not c and B)``, numeric ifs
                            lifted out of each atom, ``and`` distributed
                            and the existentials prenexed
    compile_disjunct     -- one disjunct to LinearConstraints over its
                            metanetwork, in three steps:
        1. number the network applications (structurally equal ones
           share a number) and equate each argument element with its
           input variable ``x_i``;
        2. resolve each quantified variable, innermost first, through its
           first direct ``v == x_i`` / ``v == y_j`` equation;
        3. flatten the equations and the remaining atoms to
           LinearConstraints (constant on the right).

``not c`` is the negation of the source condition, so ``not (x == 1)``
negated is the one atom ``x == 1``.

Disjuncts whose constraints fold to a constant contradiction are dropped:
they contribute nothing to the disjunction.  A quantified variable without
a direct equation is an error; rearranging indirect equations like
``x0 == v + 2`` is deliberately not attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import core
from .errors import QueryError
from .networks import NetworkContext
from .types import VType, frozen_dataclass

# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


@frozen_dataclass
class Binder:
    name: str
    vtype: VType


@dataclass
class Disjunct:
    """Prenex-existential conjunction: binders outermost-first, atoms in
    source order; Var(0) in an atom is the innermost binder."""

    binders: list[Binder]
    atoms: list[core.Expr]


@frozen_dataclass
class MetaNetwork:
    """Ordered network applications with sequentially assigned variables."""

    applications: tuple[tuple[str, int, int], ...]  # (network, inputs, outputs)

    @property
    def input_offsets(self) -> tuple[int, ...]:
        offsets = []
        total = 0
        for _, m, _ in self.applications:
            offsets.append(total)
            total += m
        return tuple(offsets)

    @property
    def output_offsets(self) -> tuple[int, ...]:
        offsets = []
        total = 0
        for _, _, n in self.applications:
            offsets.append(total)
            total += n
        return tuple(offsets)

    @property
    def total_inputs(self) -> int:
        return sum(m for _, m, _ in self.applications)

    @property
    def total_outputs(self) -> int:
        return sum(n for _, _, n in self.applications)


@frozen_dataclass(order=True)
class QVar:
    """A relational variable: kind 'x' (input) or 'y' (output)."""

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@frozen_dataclass
class LinearConstraint:
    """sum(coeff * var) REL constant, no zero coefficients stored.

    Canonical form: terms ordered outputs-first then inputs (ascending
    index), and the leading coefficient positive (the constraint is negated
    and the relation flipped otherwise)."""

    terms: tuple[tuple[QVar, Fraction], ...]
    relation: str  # "<=", "<", ">=", ">", "="
    constant: Fraction


FLIP_REL = {"<=": ">=", ">=": "<=", "<": ">", ">": "<", "=": "="}


def term_order(item: tuple[QVar, Fraction]) -> tuple[int, int]:
    var, _ = item
    return (0 if var.kind == "y" else 1, var.index)


def canonical_constraint(
    terms: dict[QVar, Fraction], relation: str, constant: Fraction
) -> LinearConstraint:
    ordered = sorted(((v, c) for v, c in terms.items() if c != 0), key=term_order)
    if ordered and ordered[0][1] < 0:
        ordered = [(v, -c) for v, c in ordered]
        constant = -constant
        relation = FLIP_REL[relation]
    return LinearConstraint(tuple(ordered), relation, constant)


@dataclass
class LinearQuery:
    constraints: list[LinearConstraint]
    meta: MetaNetwork


@dataclass
class PropertyPlan:
    name: str
    polarity: str  # "AllForall" | "AllExists"
    negated: bool  # True iff polarity == "AllForall"
    queries: list[LinearQuery]
    disjunct_count: int = 0  # before contradiction dropping


# ---------------------------------------------------------------------------
# Quantifier analysis
# ---------------------------------------------------------------------------


def analyse_quantifiers(prop: core.Expr) -> str:
    """Classify effective quantifier occurrences; quantifier-free counts as
    AllExists.  Mixed use is an error."""
    seen: set[str] = set()
    _effective_quantifiers(prop, True, seen)
    if seen == {"forall"}:
        return "AllForall"
    if "forall" in seen and "exists" in seen:
        raise QueryError(
            "MixedQuantifiers",
            "a property may not mix universal and existential quantification",
        )
    return "AllExists"


def _effective_quantifiers(e: core.Expr, positive: bool, seen: set[str]) -> None:
    """Add to ``seen`` the kind each quantifier in ``e`` has once the
    negations above it are pushed inside (``positive`` when there are none)."""
    t = type(e)
    if t is core.Builtin:
        if e.op == "not":
            _effective_quantifiers(e.args[0], not positive, seen)
            return
        if e.op == "implies":
            _effective_quantifiers(e.args[0], not positive, seen)
            _effective_quantifiers(e.args[1], positive, seen)
            return
    elif t is core.Quant:
        seen.add(e.kind if positive else ("exists" if e.kind == "forall" else "forall"))
        _effective_quantifiers(e.body, positive, seen)
        return
    for child in core.children(e):
        _effective_quantifiers(child, positive, seen)


# ---------------------------------------------------------------------------
# Disjunctive normal form
# ---------------------------------------------------------------------------

_NEG_CMP = {"le": "gt", "lt": "ge", "ge": "lt", "gt": "le"}
_NUMERIC_CONTEXTS = core.ARITH_OPS + core.CMP_OPS


def to_dnf(e: core.Expr, negate: bool) -> list[Disjunct]:
    """Split ``e`` (its negation when ``negate``) into prenex-existential
    conjunctions of comparison atoms, in left-to-right source order.

    Negation is pushed to the atoms (``not (a == b)`` becomes ``a < b or
    a > b``), ``A => B`` is ``not A or B``, and ``if c then A else B`` is
    ``(c and A) or (not c and B)``, where ``not c`` negates the source
    condition.  Numeric ``if``s are lifted out of each atom after it is
    negated.  A negated universal becomes an existential; a universal left
    after negation is an error the quantifier analysis rules out."""
    if isinstance(e, core.Quant):
        if (e.kind == "exists") == negate:
            raise AssertionError("universal quantifier reached DNF conversion")
        binder = Binder(e.binder, e.binder_type)
        return [Disjunct([binder] + d.binders, d.atoms) for d in to_dnf(e.body, negate)]
    if isinstance(e, core.BoolLit):
        return [Disjunct([], [])] if e.value != negate else []
    op = e.op if isinstance(e, core.Builtin) else None
    if op == "not":
        return to_dnf(e.args[0], not negate)
    if op in ("and", "or", "implies"):
        lhs = to_dnf(e.args[0], negate != (op == "implies"))
        rhs = to_dnf(e.args[1], negate)
        return _conjoin(lhs, rhs) if (op == "and") != negate else lhs + rhs
    if op == "if":
        cond, then, els = e.args
        if core.contains_network(cond):
            raise QueryError(
                "IfConditionContainsNetwork",
                "an 'if' condition may not depend on a network application",
            )
        first = _conjoin(to_dnf(cond, False), to_dnf(then, negate))
        return first + _conjoin(to_dnf(cond, True), to_dnf(els, negate))
    if op not in core.CMP_OPS:
        raise AssertionError(f"unexpected node in DNF conversion: {e!r}")
    if not negate:
        atoms = [e]
    elif op == "eq":
        atoms = [core.Builtin("lt", e.args, e.level), core.Builtin("gt", e.args, e.level)]
    else:
        atoms = [core.Builtin(_NEG_CMP[op], e.args, e.level)]
    out = []
    for atom in atoms:
        lifted = _lift_numeric_ifs(atom)
        out += to_dnf(lifted, False) if _is_if(lifted) else [Disjunct([], [lifted])]
    return out


def _conjoin(left: list[Disjunct], right: list[Disjunct]) -> list[Disjunct]:
    """Distribute ``and``: every left disjunct with every right one.  The
    right side's binders go inside the left side's, so atoms are shifted
    only past the binders of the other side."""
    out = []
    for da in left:
        for db in right:
            k1, k2 = len(da.binders), len(db.binders)
            atoms_a = [core.shift(a, k2, 0) for a in da.atoms] if k2 else da.atoms
            atoms_b = [core.shift(b, k1, k2) for b in db.atoms] if k1 else db.atoms
            out.append(Disjunct(da.binders + db.binders, atoms_a + atoms_b))
    return out


def _is_if(e: core.Expr) -> bool:
    return isinstance(e, core.Builtin) and e.op == "if"


def _lift_numeric_ifs(e: core.Expr) -> core.Expr:
    """Lift `if` expressions out of numeric contexts until their branches
    sit at formula level: g (if a then t else u) -> if a then g t else g u."""
    e = core.map_children(e, _lift_numeric_ifs)
    in_numeric_context = (
        isinstance(e, core.Builtin) and e.op in _NUMERIC_CONTEXTS
    ) or isinstance(e, (core.TensorLit, core.NetworkApp, core.Index))
    if in_numeric_context:
        kids = list(core.children(e))
        for i, kid in enumerate(kids):
            if _is_if(kid):
                cond, then, els = kid.args  # type: ignore[attr-defined]
                then_node = _rebuild_with_children(e, kids[:i] + [then] + kids[i + 1 :])
                els_node = _rebuild_with_children(e, kids[:i] + [els] + kids[i + 1 :])
                level = kid.level or getattr(e, "level", None)  # type: ignore[attr-defined]
                return core.Builtin(
                    "if",
                    (cond, _lift_numeric_ifs(then_node), _lift_numeric_ifs(els_node)),
                    level,
                )
    return e


def _rebuild_with_children(e: core.Expr, kids: list[core.Expr]) -> core.Expr:
    it = iter(kids)
    return core.map_children(e, lambda _c: next(it))


# ---------------------------------------------------------------------------
# One disjunct to linear constraints
# ---------------------------------------------------------------------------

_REL = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">", "eq": "="}
_ZERO, _ONE = Fraction(0), Fraction(1)

# One equation or atom: (comparison tag, lhs, rhs).  A side is a core term,
# or the input variable on the right of an argument equation.
Row = tuple[str, core.Expr | QVar, core.Expr | QVar]


def compile_disjunct(d: Disjunct, ctx: NetworkContext) -> LinearQuery | None:
    """Compile one disjunct to linear constraints over its metanetwork.

    1. Applications are numbered in first-occurrence order (atoms left to
       right, an application's argument before the application itself);
       structurally equal applications share a number, which de Bruijn
       terms make alpha-invariant.  Element t of application j's argument
       is equated with x(in_off_j + t), and these equations come before
       the atoms.
    2. Each quantified variable that occurs in an atom is resolved,
       innermost first, through the first remaining ``eq`` row with the
       variable on one side and a relational variable on the other: an
       input variable, ``app ! k``, or a variable resolved before.  That
       row is removed.  A variable that occurs in no atom quantifies
       nothing and is skipped.
    3. The remaining rows are flattened in order.

    Returns None when a row folds to a constant contradiction (the disjunct
    is unsatisfiable and contributes nothing to the disjunction).
    """
    numbering = _Numbering(ctx)
    for atom in d.atoms:
        numbering.number(atom)
    rows = numbering.rows
    rows.extend((atom.op, *atom.args) for atom in d.atoms)  # type: ignore[attr-defined]
    first_output = numbering.first_output

    resolved: dict[int, QVar] = {}
    n = len(d.binders)
    for k in range(n):
        if k not in numbering.used:
            continue
        binder = core.Var(k)
        for i, (op, lhs, rhs) in enumerate(rows):
            if op != "eq":
                continue
            if lhs == binder:
                var = _relational(rhs, resolved, first_output)
            elif rhs == binder:
                var = _relational(lhs, resolved, first_output)
            else:
                var = None
            if var is not None:
                break
        else:
            raise QueryError(
                "UnresolvableUserVariable",
                f"quantified variable {d.binders[n - 1 - k].name!r} is not directly "
                "equated to a network input or output variable",
            )
        resolved[k] = var
        del rows[i]

    constraints: list[LinearConstraint] = []
    for op, lhs, rhs in rows:
        lt, lc = _linearise(lhs, resolved, first_output, d.binders)
        rt, rc = _linearise(rhs, resolved, first_output, d.binders)
        terms = _add_terms(lt, rt, -1)
        constant = rc - lc
        if any(terms.values()):
            constraints.append(canonical_constraint(terms, _REL[op], constant))
        elif not core.CMP_HOLDS[op](_ZERO, constant):
            return None
    return LinearQuery(constraints, MetaNetwork(tuple(numbering.applications)))


class _Numbering:
    """Step 1 of ``compile_disjunct``: the applications of one disjunct, in
    first-occurrence order, and the equations of their arguments."""

    __slots__ = ("ctx", "first_output", "applications", "rows", "used", "inputs", "outputs")

    def __init__(self, ctx: NetworkContext):
        self.ctx = ctx
        self.first_output: dict[core.NetworkApp, int] = {}  # app -> its first output
        self.applications: list[tuple[str, int, int]] = []
        self.rows: list[Row] = []
        self.used: set[int] = set()  # de Bruijn indices met in the atoms
        self.inputs = self.outputs = 0

    def number(self, e: core.Expr) -> None:
        cls = type(e)  # exact-type tests: no node class has a subclass
        if cls is core.Var:
            self.used.add(e.index)
            return
        if cls is core.NetworkApp and e in self.first_output:
            return
        for child in core.children(e):
            self.number(child)
        ctx = self.ctx
        if cls is core.Index:
            output = _output_index(e)
            if output is not None:
                app, k = output
                size = ctx[app.network].output_size
                if k >= size:
                    raise QueryError(
                        "IndexOutOfBounds",
                        f"index {k} out of bounds for the outputs of network "
                        f"{app.network!r} (output count {size})",
                    )
        elif cls is core.NetworkApp:
            arg = type(e.arg)
            if arg is core.TensorLit:
                items = e.arg.items
            elif arg is core.NetworkApp:
                width = ctx[e.arg.network].output_size
                items = tuple(core.Index(e.arg, core.NatLit(t)) for t in range(width))
            else:
                raise QueryError(
                    "NonLinearAtom",
                    f"network {e.network!r} is applied to a non-literal tensor",
                )
            inputs = self.inputs
            self.rows.extend(("eq", item, QVar("x", inputs + t)) for t, item in enumerate(items))
            info = ctx[e.network]
            self.applications.append((e.network, info.input_size, info.output_size))
            self.first_output[e] = self.outputs
            self.inputs += info.input_size
            self.outputs += info.output_size


def _relational(
    side: core.Expr | QVar, resolved: dict[int, QVar], first_output: dict[core.NetworkApp, int]
) -> QVar | None:
    """The relational variable ``side`` stands for, if any: an input
    variable, a resolved quantified variable, or ``app ! k``."""
    t = type(side)
    if t is QVar:
        return side
    if t is core.Var:
        return resolved.get(side.index)
    output = _output_index(side)
    if output is not None:
        return QVar("y", first_output[output[0]] + output[1])
    return None


def _linearise(
    e: core.Expr | QVar,
    resolved: dict[int, QVar],
    first_output: dict[core.NetworkApp, int],
    binders: list[Binder],
) -> tuple[dict[QVar, Fraction], Fraction]:
    """``e`` as linear terms and a constant over relational variables."""
    cls = type(e)  # exact-type tests, most frequent first
    if cls is core.RatLit:
        return {}, e.value
    var = _relational(e, resolved, first_output)
    if var is not None:
        return {var: _ONE}, _ZERO
    if cls is core.NatLit:
        return {}, Fraction(e.value)
    if cls is core.Builtin:
        if e.op == "neg":
            t, c = _linearise(e.args[0], resolved, first_output, binders)
            return {v: -k for v, k in t.items()}, -c
        if e.op in ("add", "sub", "mul", "div"):
            lt, lc = _linearise(e.args[0], resolved, first_output, binders)
            rt, rc = _linearise(e.args[1], resolved, first_output, binders)
            if e.op in ("add", "sub"):
                sign = 1 if e.op == "add" else -1
                return _add_terms(lt, rt, sign), lc + sign * rc
            if e.op == "mul":
                if lt and rt:
                    raise QueryError("NonLinearAtom", "product of two variables")
                if lt:
                    return {v: k * rc for v, k in lt.items()}, lc * rc
                return {v: k * lc for v, k in rt.items()}, lc * rc
            if rt:
                raise QueryError("NonLinearAtom", "division by a variable")
            if rc == 0:
                raise QueryError("NonLinearAtom", "division by zero in atom")
            return {v: k / rc for v, k in lt.items()}, lc / rc
    raise QueryError(
        "NonLinearAtom",
        "atom contains a non-linear or non-numeric term: "
        + core.print_expr(e, [b.name for b in binders]),  # type: ignore[arg-type]
    )


def _add_terms(
    lt: dict[QVar, Fraction], rt: dict[QVar, Fraction], sign: int
) -> dict[QVar, Fraction]:
    terms = dict(lt)
    for v, k in rt.items():
        terms[v] = terms.get(v, _ZERO) + sign * k
    return terms


def _output_index(e: core.Expr | QVar) -> tuple[core.NetworkApp, int] | None:
    """``(app, k)`` when ``e`` is ``app ! k`` with a literal ``k``."""
    if (
        type(e) is core.Index
        and type(e.tensor) is core.NetworkApp
        and type(e.index) is core.NatLit
    ):
        return e.tensor, e.index.value
    return None


# ---------------------------------------------------------------------------
# Property plan
# ---------------------------------------------------------------------------


def compile_property(
    name: str, prop: core.Expr, ctx: NetworkContext
) -> PropertyPlan:
    """Run the full query pipeline for one normalised Prop declaration."""
    polarity = analyse_quantifiers(prop)
    negated = polarity == "AllForall"
    disjuncts = to_dnf(prop, negated)
    compiled = (compile_disjunct(d, ctx) for d in disjuncts)
    queries = [q for q in compiled if q is not None]
    return PropertyPlan(name, polarity, negated, queries, disjunct_count=len(disjuncts))
