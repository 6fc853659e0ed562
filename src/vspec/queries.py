"""Query compilation: normalised properties to purely existential
conjunctive linear queries over relational network variables.

Pipeline per property::

    analyse_quantifiers  -- all-universal properties are negated
    nnf                  -- negation pushed to atoms, no `not` nodes remain
    eliminate_if         -- numeric ifs lifted, formula ifs become implications
    to_dnf               -- implications to ors, distribution, one disjunct
                            per verifier query, existentials at each head
    cse                  -- duplicate network applications shared
    build_meta_network   -- sequential x/y variable numbering in
                            first-occurrence application order
    relationalise        -- applications replaced by input equations plus
                            output-variable substitution
    eliminate_user_vars  -- quantified variables replaced by their equated
                            relational variable; atoms flattened to
                            LinearConstraints (constant on the right)

Disjuncts whose constraints fold to a constant contradiction are dropped:
they contribute nothing to the disjunction.  A quantified variable without
a direct ``v == x_i`` / ``v == y_j`` equation is an error; rearranging
indirect equations like ``x0 == v + 2`` is deliberately not attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import core
from .errors import QueryError
from .networks import NetworkContext
from .types import VType

# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Binder:
    name: str
    vtype: VType


@dataclass
class Disjunct:
    """Prenex-existential conjunction: binders outermost-first, atoms in
    source order; Var(0) in an atom is the innermost binder."""

    binders: list[Binder]
    atoms: list[core.Expr]


@dataclass(frozen=True)
class NetworkUse:
    network: str
    arg: core.Expr  # TensorLit; may reference earlier uses via AppRef


@dataclass
class CseQuery:
    binders: list[Binder]
    uses: list[NetworkUse]
    atoms: list[core.Expr]


@dataclass(frozen=True)
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


@dataclass(frozen=True, order=True)
class QVar:
    """A relational variable: kind 'x' (input) or 'y' (output)."""

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
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

    def walk(e: core.Expr, positive: bool) -> None:
        if isinstance(e, core.Quant):
            effective = e.kind if positive else ("exists" if e.kind == "forall" else "forall")
            seen.add(effective)
            walk(e.body, positive)
            return
        if isinstance(e, core.Builtin):
            if e.op == "not":
                walk(e.args[0], not positive)
                return
            if e.op == "implies":
                walk(e.args[0], not positive)
                walk(e.args[1], positive)
                return
        for child in core.children(e):
            walk(child, positive)

    walk(prop, True)
    if seen == {"forall"}:
        return "AllForall"
    if "forall" in seen and "exists" in seen:
        raise QueryError(
            "MixedQuantifiers",
            "a property may not mix universal and existential quantification",
        )
    return "AllExists"


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

_NEG_CMP = {"le": "gt", "lt": "ge", "ge": "lt", "gt": "le"}


def nnf(e: core.Expr, negate: bool) -> core.Expr:
    """Push negation to atoms; the result contains no `not` nodes.  With
    ``negate=True`` this computes the negation of ``e``."""
    if isinstance(e, core.Quant):
        kind = e.kind
        if negate:
            kind = "exists" if kind == "forall" else "forall"
        return core.Quant(kind, e.binder, e.binder_type, nnf(e.body, negate))
    if isinstance(e, core.BoolLit):
        return core.BoolLit(e.value != negate)
    if isinstance(e, core.Builtin):
        lvl = e.level
        if e.op == "not":
            return nnf(e.args[0], not negate)
        if e.op == "and" or e.op == "or":
            op = e.op
            if negate:
                op = "or" if op == "and" else "and"
            return core.Builtin(op, tuple(nnf(a, negate) for a in e.args), lvl)
        if e.op == "implies":
            lhs, rhs = e.args
            if negate:
                return core.Builtin("and", (nnf(lhs, False), nnf(rhs, True)), lvl)
            return core.Builtin("implies", (nnf(lhs, False), nnf(rhs, False)), lvl)
        if e.op == "if":
            cond, then, els = e.args
            # Negation selects within branches; the condition is only cleaned.
            return core.Builtin(
                "if", (nnf(cond, False), nnf(then, negate), nnf(els, negate)), lvl
            )
        if e.op in core.CMP_OPS:
            if not negate:
                return e
            if e.op == "eq":
                return core.Builtin(
                    "or",
                    (
                        core.Builtin("lt", e.args, lvl),
                        core.Builtin("gt", e.args, lvl),
                    ),
                    lvl,
                )
            return core.Builtin(_NEG_CMP[e.op], e.args, lvl)
    if negate:
        raise AssertionError(f"cannot negate non-formula node {e!r}")
    return e


# ---------------------------------------------------------------------------
# If elimination
# ---------------------------------------------------------------------------

_NUMERIC_CONTEXTS = core.ARITH_OPS + core.CMP_OPS


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


def eliminate_if(e: core.Expr) -> core.Expr:
    """Remove every `if`: non-formula ifs are lifted first, then
    ``if a then b else c`` becomes ``(a => b) and (not a => c)`` with the
    negated condition immediately pushed to atoms."""
    e = _lift_numeric_ifs(e)

    def eliminate(e: core.Expr) -> core.Expr:
        e = core.map_children(e, eliminate)
        if _is_if(e):
            cond, then, els = e.args  # type: ignore[attr-defined]
            if core.contains_network(cond):
                raise QueryError(
                    "IfConditionContainsNetwork",
                    "an 'if' condition may not depend on a network application",
                )
            lvl = e.level  # type: ignore[attr-defined]
            return core.Builtin(
                "and",
                (
                    core.Builtin("implies", (nnf(cond, False), then), lvl),
                    core.Builtin("implies", (nnf(cond, True), els), lvl),
                ),
                lvl,
            )
        return e

    return eliminate(e)


# ---------------------------------------------------------------------------
# Disjunctive normal form
# ---------------------------------------------------------------------------


def to_dnf(e: core.Expr) -> list[Disjunct]:
    """Split a negation-free, if-free, existential-only formula into
    prenex-existential conjunctions, in left-to-right source order."""
    if isinstance(e, core.Quant):
        if e.kind != "exists":
            raise AssertionError("universal quantifier reached DNF conversion")
        out = []
        for d in to_dnf(e.body):
            out.append(Disjunct([Binder(e.binder, e.binder_type)] + d.binders, d.atoms))
        return out
    if isinstance(e, core.Builtin) and e.op == "or":
        return to_dnf(e.args[0]) + to_dnf(e.args[1])
    if isinstance(e, core.Builtin) and e.op == "implies":
        lhs, rhs = e.args
        return to_dnf(core.Builtin("or", (nnf(lhs, True), rhs), e.level))
    if isinstance(e, core.Builtin) and e.op == "and":
        out = []
        for da in to_dnf(e.args[0]):
            for db in to_dnf(e.args[1]):
                k1, k2 = len(da.binders), len(db.binders)
                atoms_a = [core.shift(a, k2, 0) for a in da.atoms]
                atoms_b = [core.shift(b, k1, k2) for b in db.atoms]
                out.append(Disjunct(da.binders + db.binders, atoms_a + atoms_b))
        return out
    if isinstance(e, core.BoolLit):
        return [Disjunct([], [])] if e.value else []
    if isinstance(e, core.Builtin) and e.op in core.CMP_OPS:
        return [Disjunct([], [e])]
    raise AssertionError(f"unexpected node in DNF conversion: {e!r}")


def drop_unused_binders(d: Disjunct) -> Disjunct:
    """An existential binder that occurs in no atom quantifies nothing and
    is dropped (the domain is nonempty, so this preserves satisfiability)."""
    n = len(d.binders)
    used: set[int] = set()
    for atom in d.atoms:
        for sub in core.subterms(atom):
            if isinstance(sub, core.Var):
                used.add(sub.index)
    keep = [i for i in range(n) if i in used]  # de Bruijn indices to keep
    if len(keep) == n:
        return d
    remap = {old: new for new, old in enumerate(sorted(keep))}

    def rename(e: core.Expr) -> core.Expr:
        if isinstance(e, core.Var):
            return core.Var(remap[e.index])
        return core.map_children(e, rename)

    binders = [b for j, b in enumerate(d.binders) if (n - 1 - j) in used]
    return Disjunct(binders, [rename(a) for a in d.atoms])


# ---------------------------------------------------------------------------
# Common-sub-expression elimination over network applications
# ---------------------------------------------------------------------------


def cse_network_applications(d: Disjunct) -> CseQuery:
    """Bind each syntactically distinct (network, argument) application once.

    Sharing is decided by structural equality of de-Bruijn terms, which is
    alpha-invariant by construction.  Binding order is first occurrence in a
    left-to-right traversal, with an application's argument processed before
    the application itself so nested uses are bound first.
    """
    uses: list[NetworkUse] = []
    table: dict[core.Expr, int] = {}

    def replace(e: core.Expr) -> core.Expr:
        e = core.map_children(e, replace)
        if isinstance(e, core.NetworkApp):
            if e not in table:
                table[e] = len(uses)
                uses.append(NetworkUse(e.network, e.arg))
            return core.AppRef(table[e])
        return e

    atoms = [replace(a) for a in d.atoms]
    return CseQuery(list(d.binders), uses, atoms)


def build_meta_network(uses: list[NetworkUse], ctx: NetworkContext) -> MetaNetwork:
    apps = []
    for use in uses:
        info = ctx[use.network]
        apps.append((use.network, info.input_size, info.output_size))
    return MetaNetwork(tuple(apps))


# ---------------------------------------------------------------------------
# Relational form
# ---------------------------------------------------------------------------


@dataclass
class RelationalQuery:
    binders: list[Binder]
    atoms: list[core.Expr]
    meta: MetaNetwork


def relationalise(q: CseQuery, meta: MetaNetwork) -> RelationalQuery:
    """Replace each shared application by input-variable equations and by
    the tensor of its output variables, then fold the introduced indexing."""
    out_off = meta.output_offsets
    in_off = meta.input_offsets

    def output_tensor(j: int) -> core.Expr:
        _, _, n = meta.applications[j]
        return core.TensorLit(tuple(core.OutputVar(out_off[j] + t) for t in range(n)))

    def subst(e: core.Expr) -> core.Expr:
        if isinstance(e, core.AppRef):
            return output_tensor(e.index)
        return core.map_children(e, subst)

    equations: list[core.Expr] = []
    for j, use in enumerate(q.uses):
        arg = _fold_indexing(subst(use.arg))
        if not isinstance(arg, core.TensorLit):
            raise QueryError(
                "NonLinearAtom",
                f"network {use.network!r} is applied to a non-literal tensor",
            )
        for t, elem in enumerate(arg.items):
            equations.append(
                core.Builtin("eq", (elem, core.InputVar(in_off[j] + t)), "prop")
            )

    atoms = equations + [_fold_indexing(subst(a)) for a in q.atoms]
    return RelationalQuery(list(q.binders), atoms, meta)


def _fold_indexing(e: core.Expr) -> core.Expr:
    e = core.map_children(e, _fold_indexing)
    if (
        isinstance(e, core.Index)
        and isinstance(e.tensor, core.TensorLit)
        and isinstance(e.index, core.NatLit)
    ):
        return e.tensor.items[e.index.value]
    return e


# ---------------------------------------------------------------------------
# User-variable elimination and flattening
# ---------------------------------------------------------------------------


def eliminate_user_vars(rel: RelationalQuery) -> LinearQuery | None:
    """Drop each quantified variable via its direct relational equation and
    flatten the remaining atoms to LinearConstraints.

    Returns None when a constant atom folds to False (the disjunct is
    unsatisfiable and contributes nothing to the disjunction).
    """
    binders = list(rel.binders)
    atoms = list(rel.atoms)
    while binders:
        found: tuple[int, core.Expr] | None = None
        for i, atom in enumerate(atoms):
            if isinstance(atom, core.Builtin) and atom.op == "eq":
                lhs, rhs = atom.args
                if lhs == core.Var(0) and isinstance(rhs, (core.InputVar, core.OutputVar)):
                    found = (i, rhs)
                    break
                if rhs == core.Var(0) and isinstance(lhs, (core.InputVar, core.OutputVar)):
                    found = (i, lhs)
                    break
        if found is None:
            raise QueryError(
                "UnresolvableUserVariable",
                f"quantified variable {binders[-1].name!r} is not directly "
                "equated to a network input or output variable",
            )
        i, replacement = found
        del atoms[i]
        atoms = [core.substitute_var(a, 0, replacement) for a in atoms]
        binders.pop()

    constraints: list[LinearConstraint] = []
    for atom in atoms:
        c = _flatten_atom(atom)
        if c is True:
            continue
        if c is False:
            return None
        constraints.append(c)
    return LinearQuery(constraints, rel.meta)


_REL = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">", "eq": "="}


def _flatten_atom(atom: core.Expr) -> LinearConstraint | bool:
    if not (isinstance(atom, core.Builtin) and atom.op in core.CMP_OPS):
        raise AssertionError(f"non-comparison atom survived DNF: {atom!r}")
    lt, lc = _linearise(atom.args[0])
    rt, rc = _linearise(atom.args[1])
    terms: dict[QVar, Fraction] = dict(lt)
    for v, coeff in rt.items():
        terms[v] = terms.get(v, Fraction(0)) - coeff
    terms = {v: c for v, c in terms.items() if c != 0}
    constant = rc - lc
    if not terms:
        zero = Fraction(0)
        return {
            "le": zero <= constant,
            "lt": zero < constant,
            "ge": zero >= constant,
            "gt": zero > constant,
            "eq": zero == constant,
        }[atom.op]
    return canonical_constraint(terms, _REL[atom.op], constant)


def _linearise(e: core.Expr) -> tuple[dict[QVar, Fraction], Fraction]:
    if isinstance(e, core.RatLit):
        return {}, e.value
    if isinstance(e, core.NatLit):
        return {}, Fraction(e.value)
    if isinstance(e, core.InputVar):
        return {QVar("x", e.index): Fraction(1)}, Fraction(0)
    if isinstance(e, core.OutputVar):
        return {QVar("y", e.index): Fraction(1)}, Fraction(0)
    if isinstance(e, core.Builtin):
        if e.op == "neg":
            t, c = _linearise(e.args[0])
            return {v: -k for v, k in t.items()}, -c
        if e.op in ("add", "sub"):
            lt, lc = _linearise(e.args[0])
            rt, rc = _linearise(e.args[1])
            sign = 1 if e.op == "add" else -1
            terms = dict(lt)
            for v, k in rt.items():
                terms[v] = terms.get(v, Fraction(0)) + sign * k
            return terms, lc + sign * rc
        if e.op == "mul":
            lt, lc = _linearise(e.args[0])
            rt, rc = _linearise(e.args[1])
            if lt and rt:
                raise QueryError("NonLinearAtom", "product of two variables")
            if lt:
                return {v: k * rc for v, k in lt.items()}, lc * rc
            return {v: k * lc for v, k in rt.items()}, lc * rc
        if e.op == "div":
            lt, lc = _linearise(e.args[0])
            rt, rc = _linearise(e.args[1])
            if rt:
                raise QueryError("NonLinearAtom", "division by a variable")
            if rc == 0:
                raise QueryError("NonLinearAtom", "division by zero in atom")
            return {v: k / rc for v, k in lt.items()}, lc / rc
    raise QueryError(
        "NonLinearAtom", f"atom contains a non-linear or non-numeric term: {e!r}"
    )


# ---------------------------------------------------------------------------
# Property plan
# ---------------------------------------------------------------------------


def compile_property(
    name: str, prop: core.Expr, ctx: NetworkContext
) -> PropertyPlan:
    """Run the full query pipeline for one normalised Prop declaration."""
    polarity = analyse_quantifiers(prop)
    negated = polarity == "AllForall"
    work = nnf(prop, negate=negated)
    work = eliminate_if(work)
    disjuncts = [drop_unused_binders(d) for d in to_dnf(work)]
    queries: list[LinearQuery] = []
    for d in disjuncts:
        cq = cse_network_applications(d)
        meta = build_meta_network(cq.uses, ctx)
        rel = relationalise(cq, meta)
        lq = eliminate_user_vars(rel)
        if lq is not None:
            queries.append(lq)
    return PropertyPlan(name, polarity, negated, queries, disjunct_count=len(disjuncts))
