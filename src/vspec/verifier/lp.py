"""Exact rational LP feasibility via a fraction-free simplex, from scratch or warm.

Decides feasibility of a system of linear constraints over free rational
variables, with mixed strict and non-strict relations, exactly:

* free variables split into nonnegative pairs,
* each strict constraint ``a.v < c`` becomes ``a.v + eps <= c`` and the
  objective maximises ``eps`` (capped at 1),
* optimum ``eps > 0`` means strictly feasible (witness extracted from the
  basis); optimum 0 with strict rows present, or infeasibility of the
  non-strict rows, means infeasible.

**Integer tableau.** The simplex never builds a rational.  Invariants:

* each tableau row is a primitive vector of integers (the gcd of its
  entries is 1), a positive multiple of the row a rational tableau holds;
* the entry of a row in its basic column is positive (the rational
  tableau's is 1), and every other row has 0 there;
* the reduced-cost row is a positive multiple of the true reduced costs.

``_normalise`` scales each constraint by the lcm of its denominators, and
its slack, artificial and ``eps`` entries by the same factor.  A pivot on
entry ``p`` of row ``r`` first negates row ``r`` if ``p < 0``; each other
row with entry ``f`` in the pivot column, and the reduced-cost row, becomes
``p * row - f * row_r`` divided by the gcd of its entries (the
integer-preserving pivot of Edmonds and Bareiss).  ``p`` and ``f`` are
first divided by their gcd, which keeps the numbers small; when that leaves
``p`` at 1, only the columns where row ``r`` is non-zero change.  The
reduced-cost row is computed once per simplex phase and then updated this
way after each pivot.

Pivoting reads only the signs of entries and the order of ratios, which
positive scaling leaves unchanged; the ratio tests compare ``x_i / a_i``
with ``x_k / a_k`` by cross-multiplying.  So every pivot is the one a
rational tableau makes, and ``feasible`` reads each basic value exactly,
as right-hand side over basic entry.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


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
    """The final tableau of a feasible problem.

    ``rows`` hold ``n_cols`` integer coefficients then the right-hand side;
    each row is a primitive vector whose entry in its basic column
    (``basis``) is positive.  ``reduced`` is a positive multiple of the
    reduced costs of the last objective (entry ``n_cols`` is minus its
    value), all <= 0 outside ``banned``."""

    rows: list[list[int]]
    basis: list[int]
    reduced: list[int]
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
    # Non-basic columns are at 0; a basic one at rhs / basic entry.
    row_of = {b: row for row, b in zip(tableau.rows, tableau.basis)}
    if tableau.eps_col is not None:
        eps_row = row_of.get(tableau.eps_col)
        if eps_row is None or eps_row[-1] <= 0:
            return None
    problem.tableau = tableau

    def value(col: int) -> Fraction:
        row = row_of.get(col)
        return Fraction(0) if row is None else Fraction(row[-1], row[col])

    return [value(2 * v) - value(2 * v + 1) for v in range(n)]


def _normalise(c: LPConstraint) -> tuple[dict[int, int], str, int, bool, int]:
    """``c`` as integer ``terms <= rhs`` or ``terms = rhs`` with merged,
    non-zero terms, whether it was strict, and the positive ``scale`` (the
    lcm of its denominators) it was multiplied by."""
    merged: dict[int, Fraction] = {}
    for v, k in c.terms:
        merged[v] = merged.get(v, 0) + k
    rel, rhs = c.relation, c.rhs
    sign = -1 if rel in (">=", ">") else 1
    scale = math.lcm(rhs.denominator, *(k.denominator for k in merged.values()))
    terms = {
        v: sign * k.numerator * (scale // k.denominator) for v, k in merged.items() if k
    }
    rhs_int = sign * rhs.numerator * (scale // rhs.denominator)
    return terms, "=" if rel == "=" else "<=", rhs_int, rel in ("<", ">"), scale


def _columns(
    terms: dict[int, int], strict: bool, eps_col: int | None, scale: int
) -> dict[int, int]:
    """A normalised row's entries by tableau column: variable ``v`` is
    column ``2v`` minus column ``2v + 1``, and a strict row adds ``eps``
    with the row's scale."""
    row: dict[int, int] = {}
    for v, k in terms.items():
        row[2 * v] = k
        row[2 * v + 1] = -k
    if strict:
        row[eps_col] = scale  # type: ignore[index]
    return row


def _solve(problem: LPProblem) -> _Tableau | None:
    """Two-phase primal simplex from scratch; None when phase 1 shows the
    non-strict relaxation infeasible."""
    n = problem.num_vars
    rows = [_normalise(c) for c in problem.constraints]
    eps_col = None
    if any(strict for _, _, _, strict, _ in rows):
        eps_col = 2 * n
        rows.append(({}, "<=", 1, True, 1))  # the cap eps <= 1

    # Columns: the structural pairs and eps, then a slack per <= row, then
    # an artificial per = row and per row with a negative right-hand side,
    # each in row order.  The rhs sits in column n_cols.
    slack = 2 * n + (eps_col is not None)
    art = art_start = slack + sum(rel == "<=" for _, rel, _, _, _ in rows)
    n_cols = art_start + sum(rel == "=" or rhs < 0 for _, rel, rhs, _, _ in rows)
    tableau: list[list[int]] = []
    basis: list[int] = []
    for terms, rel, rhs, strict, scale in rows:
        row = [0] * (n_cols + 1)
        for j, k in _columns(terms, strict, eps_col, scale).items():
            row[j] = k
        row[n_cols] = rhs
        if rel == "<=":
            row[slack] = scale
            basic, slack = slack, slack + 1
        if rhs < 0:  # sign-normalise: a negated <= row carries a negative slack
            row = [-k for k in row]
        if rel == "=" or rhs < 0:
            row[art] = scale
            basic, art = art, art + 1
        tableau.append(row)
        basis.append(basic)

    artificials = set(range(art_start, n_cols))

    # Phase 1: maximise -(sum of artificials); optimum must be 0.
    if artificials:
        cost1 = [0] * n_cols
        for a in artificials:
            cost1[a] = -1
        _simplex(tableau, basis, cost1, n_cols)
        if any(row[n_cols] != 0 for row, b in zip(tableau, basis) if b in artificials):
            return None
        _drive_out_artificials(tableau, basis, artificials, n_cols)

    reduced = [0] * (n_cols + 1)
    if eps_col is not None:
        cost2 = [0] * n_cols
        cost2[eps_col] = 1
        reduced = _simplex(tableau, basis, cost2, n_cols, banned=artificials)
    return _Tableau(tableau, basis, reduced, artificials, eps_col)


def _extend(parent: _Tableau, added: list[LPConstraint]) -> _Tableau | None:
    """A copy of ``parent``'s optimal tableau with ``added`` as new rows,
    re-optimised by dual simplex; None when the rows make it infeasible.

    Each new ``<=`` row gets a fresh slack column, which is basic in it; an
    ``=`` row is two ``<=`` rows.  Eliminating the basic columns it touches
    with the rows of those columns puts the row in terms of the current
    basis.  The reduced costs stay <= 0 (the new slacks' are 0), so the
    tableau is dual feasible and only right-hand sides can be negative."""
    eps_col = parent.eps_col
    new_rows: list[tuple[dict[int, int], int, int]] = []  # entries, rhs, scale
    for c in added:
        terms, rel, rhs, strict, scale = _normalise(c)
        row = _columns(terms, strict, eps_col, scale)
        new_rows.append((row, rhs, scale))
        if rel == "=":
            new_rows.append(({j: -k for j, k in row.items()}, -rhs, scale))

    n_old = len(parent.reduced) - 1
    pad = [0] * len(new_rows)
    n_cols = n_old + len(new_rows)
    rows = [r[:n_old] + pad + r[n_old:] for r in parent.rows]
    basis = list(parent.basis)
    reduced = parent.reduced[:n_old] + pad + parent.reduced[n_old:]
    where = {b: i for i, b in enumerate(basis)}
    for t, (row, rhs, scale) in enumerate(new_rows):
        dense = [0] * (n_cols + 1)
        for j, k in row.items():
            dense[j] = k
        dense[n_old + t] = scale
        dense[n_cols] = rhs
        for j in row:
            i = where.get(j)
            if i is not None:
                dense = _eliminate(dense, dense[j], _support(rows[i]), rows[i][j])
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
        # the smallest column.  With both entries negative, r_j / a_j is
        # below r_k / a_k exactly when r_j * a_k < r_k * a_j.  With no
        # negative entry, the row sums non-negative terms to a negative
        # value.
        row = tableau[leaving]
        entering = -1
        for j in range(n_cols):
            a = row[j]
            if a < 0 and j not in banned:
                if entering == -1 or reduced[j] * row[entering] < reduced[entering] * a:
                    entering = j
        if entering == -1:
            return False
        _pivot(tableau, basis, leaving, entering, reduced)


def _simplex(tableau, basis, cost, n_cols, banned: set[int] | None = None) -> list[int]:
    """Primal simplex (maximisation) with Bland's rule; mutates in place and
    returns the final reduced costs, up to a positive factor."""
    banned = banned or set()
    # Reduced costs c_j - c_B . T[:, j], up to a positive factor: each
    # basic column is eliminated from the cost row with its own row, as a
    # pivot does.  Entry n_cols carries minus the objective value.  A basic
    # column's entry is exactly 0, so it is never chosen to enter and the
    # basis needs no membership test.
    reduced = list(cost) + [0]
    for row, b in zip(tableau, basis):
        if reduced[b]:
            reduced = _eliminate(reduced, reduced[b], _support(row), row[b])
    while True:
        entering = next(
            (j for j in range(n_cols) if reduced[j] > 0 and j not in banned), -1
        )
        if entering == -1:
            return reduced
        # Leave: least ratio rhs/entry over positive entries, ties to the
        # smallest basic column, compared by cross-multiplying.
        leaving = -1
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                if leaving == -1:
                    leaving = i
                    continue
                best = tableau[leaving]
                x, y = row[n_cols] * best[entering], best[n_cols] * a
                if x < y or (x == y and basis[i] < basis[leaving]):
                    leaving = i
        if leaving == -1:
            raise AssertionError("LP objective is unbounded; the eps cap is missing")
        _pivot(tableau, basis, leaving, entering, reduced)


def _pivot(tableau, basis, row, col, reduced: list[int] | None = None) -> None:
    """Pivot on (row, col) in place: make the pivot entry positive, then
    clear ``col`` from every other row and from ``reduced``."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:
        p = -p
        pivot_row = tableau[row] = [-k for k in pivot_row]
    support = _support(pivot_row)
    for i, other in enumerate(tableau):
        f = other[col]
        if f and i != row:
            tableau[i] = _eliminate(other, f, support, p)
    if reduced is not None and reduced[col]:
        reduced[:] = _eliminate(reduced, reduced[col], support, p)
    basis[row] = col


def _support(row: list[int]) -> list[tuple[int, int]]:
    """The non-zero entries of ``row`` with their columns."""
    return [(j, k) for j, k in enumerate(row) if k]


def _eliminate(other: list[int], f: int, support: list[tuple[int, int]], p: int) -> list[int]:
    """``p * other - f * pivot_row`` (``p > 0``) divided by the gcd of its
    entries, where ``support`` is ``_support(pivot_row)``.  Dividing ``p``
    and ``f`` by their gcd first keeps the numbers small; when that leaves
    ``p`` at 1, only the columns in ``support`` change."""
    g = math.gcd(p, f)
    if g == p:
        new = other[:]
        f //= p
    else:
        p //= g
        f //= g
        new = [p * a for a in other]
    for j, k in support:
        new[j] -= f * k
    g = math.gcd(*new)
    return [k // g for k in new] if g > 1 else new


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
