"""Exact rational LP feasibility via simplex, from scratch or warm.

Decides feasibility of a system of linear constraints over free rational
variables, with mixed strict and non-strict relations, exactly:

* free variables split into nonnegative pairs,
* each strict constraint ``a.v < c`` becomes ``a.v + eps <= c`` and the
  objective maximises ``eps`` (capped at 1),
* optimum ``eps > 0`` means strictly feasible (witness extracted from the
  basis); optimum 0 with strict rows present, or infeasibility of the
  non-strict rows, means infeasible.

**From scratch** (two-phase primal simplex): phase 1 drives out the
artificial columns of ``=`` rows and of rows with a negative right-hand
side; phase 2 maximises ``eps`` with the artificials banned from the basis.
Pivoting uses Bland's rule (smallest eligible column; ties in the ratio
test broken by smallest basic variable), which guarantees termination and
makes witnesses deterministic: they depend only on the constraint list.

**Warm** (a problem with a feasible ``parent``): the parent's final
tableau is optimal, so its reduced costs are <= 0.  The new rows are added
with fresh slack columns, written in terms of the parent's basis, and
feasibility is restored by dual simplex, which keeps the reduced costs
<= 0, so the result is again optimal for ``eps``.  Its Bland rule leaves by
the smallest infeasible basic column and enters by the least ratio, ties to
the smallest column; banned artificials never enter.  A row with a
negative right-hand side and no negative entry outside the banned columns
proves the problem infeasible.  The witness is valid but depends on the
parent's pivots, so callers that need the canonical witness solve from
scratch.

The tableau is stored densely but worked sparsely: a pivot updates other
rows only in the columns where the pivot row is non-zero, and only rows
whose pivot-column entry is non-zero.  The reduced-cost row is computed
once per simplex phase and then updated from the pivot row after each
pivot.  In exact arithmetic these are the same numbers a dense tableau
computes, so Bland's rule makes the same pivots and the witnesses are
those of a dense tableau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPConstraint:
    """sum(terms[v] * v) REL rhs over variable ids 0..n-1."""

    terms: tuple[tuple[int, Fraction], ...]
    relation: str  # "<=", "<", ">=", ">", "="
    rhs: Fraction


@dataclass
class LPProblem:
    """Feasibility problem: named rational variables and mixed constraints.

    ``parent``, if given, is a problem already passed to ``feasible`` whose
    constraints are a prefix of this one's.  When the parent was feasible,
    ``feasible`` starts from the parent's final tableau (see the module
    docstring)."""

    num_vars: int
    constraints: list[LPConstraint]
    parent: LPProblem | None = None
    # Set by ``feasible`` when the problem is feasible.
    tableau: _Tableau | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class _Tableau:
    """The final tableau of a feasible problem: rows of ``n_cols``
    coefficients then the right-hand side, the basic column of each row,
    and the reduced costs of the last objective (entry ``n_cols`` is minus
    its value), all <= 0 outside ``banned``."""

    rows: list[list[Fraction]]
    basis: list[int]
    reduced: list[Fraction]
    banned: set[int]  # artificial columns: fixed at 0, never enter
    eps_col: int | None


def feasible(problem: LPProblem) -> list[Fraction] | None:
    """Return an exact witness (one value per variable) or None.

    Without a ``parent`` (or when the parent was infeasible, or when a new
    row is strict and the parent has no ``eps`` column) the problem is
    solved from scratch and the witness is canonical: it depends only on
    the constraint list.  Otherwise the parent's tableau is extended by the
    new rows and re-optimised by dual simplex; that witness is valid but
    depends on the parent."""
    n = problem.num_vars
    parent = problem.parent
    warm = parent is not None and parent.tableau is not None
    if warm:
        assert problem.constraints[: len(parent.constraints)] == parent.constraints
        added = problem.constraints[len(parent.constraints) :]
        strict = any(c.relation in ("<", ">") for c in added)
        warm = parent.tableau.eps_col is not None or not strict
    tableau = _extend(parent.tableau, added) if warm else _solve(problem)
    if tableau is None:
        return None
    # Non-basic columns are at 0.
    value = {b: row[-1] for row, b in zip(tableau.rows, tableau.basis)}
    if tableau.eps_col is not None and value.get(tableau.eps_col, ZERO) <= 0:
        return None
    problem.tableau = tableau
    return [value.get(2 * v, ZERO) - value.get(2 * v + 1, ZERO) for v in range(n)]


def _normalise(c: LPConstraint) -> tuple[dict[int, Fraction], str, Fraction, bool]:
    """``c`` as ``terms <= rhs`` or ``terms = rhs`` with merged terms, and
    whether it was strict."""
    terms: dict[int, Fraction] = {}
    for v, k in c.terms:
        terms[v] = terms.get(v, ZERO) + k
    rel, rhs = c.relation, c.rhs
    if rel in (">=", ">"):
        terms = {v: -k for v, k in terms.items()}
        rhs = -rhs
        rel = "<=" if rel == ">=" else "<"
    return terms, "=" if rel == "=" else "<=", rhs, rel == "<"


def _columns(terms: dict[int, Fraction], strict: bool, eps_col: int | None) -> dict[int, Fraction]:
    """A normalised row's entries by tableau column: variable ``v`` is
    column ``2v`` minus column ``2v + 1``, and a strict row adds ``eps``."""
    row: dict[int, Fraction] = {}
    for v, k in terms.items():
        if k:
            row[2 * v] = k
            row[2 * v + 1] = -k
    if strict:
        row[eps_col] = ONE  # type: ignore[index]
    return row


def _solve(problem: LPProblem) -> _Tableau | None:
    """Two-phase primal simplex from scratch; None when phase 1 shows the
    non-strict relaxation infeasible."""
    n = problem.num_vars
    rows = [_normalise(c) for c in problem.constraints]
    any_strict = any(strict for *_, strict in rows)

    ns = 2 * n + (1 if any_strict else 0)  # structural columns
    eps_col = 2 * n if any_strict else None

    # Build equality-form rows (structural coefficients, relation, rhs).
    table_rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhss: list[Fraction] = []
    for terms, rel, rhs, strict in rows:
        struct = [ZERO] * ns
        for j, k in _columns(terms, strict, eps_col).items():
            struct[j] = k
        table_rows.append(struct)
        rels.append(rel)
        rhss.append(rhs)
    if any_strict:
        cap = [ZERO] * ns
        cap[eps_col] = ONE  # type: ignore[index]
        table_rows.append(cap)
        rels.append("<=")
        rhss.append(ONE)

    m = len(table_rows)
    # Assign slack columns for <= rows, then artificials where needed.
    slack_col: list[int | None] = [None] * m
    col = ns
    for i in range(m):
        if rels[i] == "<=":
            slack_col[i] = col
            col += 1
    art_start = col
    art_col: list[int | None] = [None] * m
    for i in range(m):
        negate = rhss[i] < 0
        if negate:
            table_rows[i] = [-k for k in table_rows[i]]
            rhss[i] = -rhss[i]
        needs_artificial = rels[i] == "=" or negate
        if needs_artificial:
            art_col[i] = col
            col += 1
    n_cols = col

    tableau = []
    basis: list[int] = []
    for i in range(m):
        row = table_rows[i] + [ZERO] * (n_cols - ns) + [rhss[i]]
        sc = slack_col[i]
        if sc is not None:
            # A sign-normalised (negated) <= row carries slack coefficient -1.
            row[sc] = -ONE if art_col[i] is not None else ONE
        ac = art_col[i]
        if ac is not None:
            row[ac] = ONE
            basis.append(ac)
        else:
            assert sc is not None
            basis.append(sc)
        tableau.append(row)

    artificials = set(range(art_start, n_cols))

    # Phase 1: maximise -(sum of artificials); optimum must be 0.
    if artificials:
        cost1 = [ZERO] * n_cols
        for a in artificials:
            cost1[a] = -ONE
        _simplex(tableau, basis, cost1, n_cols)
        if any(tableau[i][n_cols] != 0 for i in range(m) if basis[i] in artificials):
            return None
        _drive_out_artificials(tableau, basis, artificials, n_cols)

    reduced = [ZERO] * (n_cols + 1)
    if eps_col is not None:
        cost2 = [ZERO] * n_cols
        cost2[eps_col] = ONE
        reduced = _simplex(tableau, basis, cost2, n_cols, banned=artificials)
    return _Tableau(tableau, basis, reduced, artificials, eps_col)


def _extend(parent: _Tableau, added: list[LPConstraint]) -> _Tableau | None:
    """A copy of ``parent``'s optimal tableau with ``added`` as new rows,
    re-optimised by dual simplex; None when the rows make it infeasible.

    Each new ``<=`` row gets a fresh slack column, which is basic in it; an
    ``=`` row is two ``<=`` rows.  Subtracting multiples of the rows of the
    basic columns it touches puts the row in terms of the current basis.
    The reduced costs stay <= 0 (the new slacks' are 0), so the tableau is
    dual feasible and only right-hand sides can be negative."""
    eps_col = parent.eps_col
    new_rows: list[tuple[dict[int, Fraction], Fraction]] = []
    for c in added:
        terms, rel, rhs, strict = _normalise(c)
        row = _columns(terms, strict, eps_col)
        new_rows.append((row, rhs))
        if rel == "=":
            new_rows.append(({j: -k for j, k in row.items()}, -rhs))

    n_old = len(parent.reduced) - 1
    pad = [ZERO] * len(new_rows)
    n_cols = n_old + len(new_rows)
    rows = [r[:n_old] + pad + r[n_old:] for r in parent.rows]
    basis = list(parent.basis)
    reduced = parent.reduced[:n_old] + pad + parent.reduced[n_old:]
    where = {b: i for i, b in enumerate(basis)}
    for t, (row, rhs) in enumerate(new_rows):
        dense = [ZERO] * (n_cols + 1)
        for j, k in row.items():
            dense[j] = k
        dense[n_old + t] = ONE
        dense[n_cols] = rhs
        for j, k in row.items():
            i = where.get(j)
            if i is not None:
                for col, a in enumerate(rows[i]):
                    if a:
                        dense[col] -= k * a
        rows.append(dense)
        basis.append(n_old + t)
    if not _dual_simplex(rows, basis, reduced, parent.banned):
        return None
    return _Tableau(rows, basis, reduced, parent.banned, eps_col)


def _dual_simplex(tableau, basis, reduced, banned: set[int]) -> bool:
    """Dual simplex (maximisation) with Bland's rule: pivot until every
    right-hand side is >= 0, keeping the reduced costs <= 0; mutates in
    place.  False when a row shows the problem infeasible."""
    n_cols = len(reduced) - 1
    while True:
        # Leave: the infeasible row with the smallest basic column.
        leaving = -1
        for i, row in enumerate(tableau):
            if row[n_cols] < 0 and (leaving == -1 or basis[i] < basis[leaving]):
                leaving = i
        if leaving == -1:
            return True
        # Enter: least ratio reduced/entry over negative entries, ties to
        # the smallest column.  With none, the row sums non-negative terms
        # to a negative value.
        entering = -1
        best: Fraction | None = None
        for j, a in enumerate(tableau[leaving][:n_cols]):
            if a < 0 and j not in banned:
                ratio = reduced[j] / a
                if best is None or ratio < best:
                    best = ratio
                    entering = j
        if entering == -1:
            return False
        d = reduced[entering]
        for j, k in _pivot(tableau, basis, leaving, entering):
            reduced[j] -= d * k
        reduced[entering] = ZERO


def _simplex(tableau, basis, cost, n_cols, banned: set[int] | None = None) -> list[Fraction]:
    """Primal simplex (maximisation) with Bland's rule; mutates in place and
    returns the final reduced costs."""
    banned = banned or set()
    # Reduced costs c_j - c_B . T[:, j]; entry n_cols carries minus the
    # objective value.  A basic column's entry is exactly 0, so it is never
    # chosen to enter and the basis needs no membership test.
    reduced = list(cost) + [ZERO]
    for row, b in zip(tableau, basis):
        cb = cost[b]
        if cb:
            for j, k in enumerate(row):
                if k:
                    reduced[j] -= cb * k
    while True:
        entering = next(
            (j for j in range(n_cols) if reduced[j] > 0 and j not in banned), -1
        )
        if entering == -1:
            return reduced
        leaving = -1
        best: Fraction | None = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[n_cols] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving == -1:
            raise AssertionError("LP objective is unbounded; the eps cap is missing")
        d = reduced[entering]
        for j, k in _pivot(tableau, basis, leaving, entering):
            reduced[j] -= d * k
        reduced[entering] = ZERO


def _pivot(tableau, basis, row, col) -> list[tuple[int, Fraction]]:
    """Pivot on (row, col) in place, touching only the pivot row's non-zero
    columns; return them, other than ``col``, with the normalised entries."""
    pivot_row = tableau[row]
    support = [j for j, k in enumerate(pivot_row) if k]
    pivot = pivot_row[col]
    if pivot != 1:
        inv = ONE / pivot
        for j in support:
            pivot_row[j] *= inv
    rest = [(j, pivot_row[j]) for j in support if j != col]
    for i, other in enumerate(tableau):
        factor = other[col]
        if factor and i != row:
            for j, k in rest:
                other[j] -= factor * k
            other[col] = ZERO
    basis[row] = col
    return rest


def _drive_out_artificials(tableau, basis, artificials, n_cols) -> None:
    """Pivot basic artificials (at value 0) out, or drop redundant rows."""
    i = 0
    while i < len(tableau):
        if basis[i] in artificials:
            pivot_col = next(
                (
                    j
                    for j in range(n_cols)
                    if j not in artificials and tableau[i][j] != 0
                ),
                None,
            )
            if pivot_col is None:
                del tableau[i]
                del basis[i]
                continue
            _pivot(tableau, basis, i, pivot_col)
        i += 1
