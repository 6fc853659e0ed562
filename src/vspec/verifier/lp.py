"""Exact rational LP feasibility via a fraction-free dual simplex.

Decides feasibility of a system of linear constraints over rational
variables, each free or nonnegative, with mixed strict and non-strict
relations, exactly:

* a free variable ``v`` splits into the nonnegative pair of columns ``2v``
  and ``2v + 1`` (``v`` is their difference); a variable the problem
  declares nonnegative is the single column ``2v``, and ``2v + 1`` stays
  empty, so it never enters,
* each strict constraint ``a.v < c`` becomes ``a.v + eps <= c`` and the
  objective maximises ``eps`` (capped at 1),
* optimum ``eps > 0`` means strictly feasible (witness extracted from the
  basis); optimum 0 with strict rows present, or infeasibility of the
  non-strict rows, means infeasible.

**Integer tableau.**  The simplex never builds a rational.  Each tableau
row, and the reduced-cost row, is a dict of its non-zero integer entries by
column, with the right-hand side under the key ``RHS``; a zero is never
stored, so a row costs what its non-zeros cost.  Invariants:

* each tableau row is a primitive vector of integers (the gcd of its
  entries, right-hand side included, is 1), a positive multiple of the row
  a rational tableau holds;
* the entry of a row in its basic column is positive (the rational
  tableau's is 1), and no other row, nor the reduced-cost row, holds that
  column;
* the reduced-cost row is a positive multiple of the true reduced costs.

``_normalise`` scales each constraint by the lcm of its denominators, and
its slack and ``eps`` entries by the same factor.  A pivot on entry ``p``
of row ``r`` first negates row ``r`` if ``p < 0``; each other row with
entry ``f`` in the pivot column, and the reduced-cost row, becomes ``p *
row - f * row_r`` divided by the gcd of its entries (the integer-preserving
pivot of Edmonds and Bareiss).  ``p`` and ``f`` are first divided by their
gcd, which keeps the numbers small; when that leaves ``p`` at 1, only the
columns where row ``r`` is non-zero change.  A row operation touches only
the non-zeros of the two rows.

A tableau row is never changed in place: a pivot replaces it by a new
dict.  So a tableau extended by new rows shares the row objects of the
tableau it extends, and a new slack column is just a new key.

Pivoting reads only the signs of entries and the order of ratios, which
positive scaling leaves unchanged; the ratio test compares ``r_j / a_j``
with ``r_k / a_k`` by cross-multiplying, and compares columns to break
ties, since a row's key order is not its column order.  So every pivot is
the one a rational tableau makes, and ``feasible`` reads each basic value
exactly, as right-hand side over basic entry.

**One algorithm: dual simplex on an extended optimal tableau.**  A
problem with a feasible ``parent`` extends the parent's final tableau by
the rows it adds; any other problem extends the seed (``_seed``) by all of
its rows.  The seed has no rows or, when some row is strict, only the cap
row ``eps <= 1`` with ``eps`` basic at 1, which is optimal.  Each added row
gets a fresh slack column, basic in it, and is written in terms of the
current basis.  The reduced costs stay <= 0, so the tableau is dual
feasible and only basic values can be out of bounds; dual simplex restores
them, keeping the reduced costs <= 0, so the result is again optimal for
``eps``.  An ``=`` row is one row whose slack is *fixed* at 0: a fixed
column never enters, and a fixed basic slack above 0 leaves too, its row
read negated.  There are no artificial columns.

Bland's rule (leave by the smallest basic column out of bounds, enter by
the least ratio, ties to the smallest column) terminates.  A fixed slack
that leaves never returns, so a cycle of bases leaves only columns that are
not fixed, each the smallest out of bounds among those; the fixed slacks
that stay basic act as free variables.  That is Bland's dual rule, which is
Bland's primal rule on the dual, so it cannot cycle.  The witness depends
only on the constraint list, and on the parent's pivots when warm.

**Infeasibility.**  The dual simplex stops at a row that proves the
problem infeasible: a negative right-hand side and no negative entry in a
column that may enter, or a fixed basic slack above 0 and no positive
entry there.  That row's entries in the slack columns are Farkas
multipliers over the constraints as given (and the cap row), up to one
positive factor: each slack carries the scale its row was cleared by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..types import frozen_dataclass


@frozen_dataclass
class LPConstraint:
    """sum(terms[v] * v) REL rhs over variable ids 0..n-1."""

    terms: tuple[tuple[int, Fraction], ...]
    relation: str  # "<=", "<", ">=", ">", "="
    rhs: Fraction


@dataclass
class LPProblem:
    """Feasibility problem: named rational variables and mixed constraints.

    The variables in ``nonneg`` are constrained ``>= 0`` by their columns,
    not by rows; the others are free.

    ``parent``, if given, is a problem already passed to ``feasible`` whose
    constraints are a prefix of this one's and whose ``nonneg`` is this
    one's.  When the parent was feasible, ``feasible`` starts from the
    parent's final tableau (see the module docstring)."""

    num_vars: int
    constraints: list[LPConstraint]
    parent: LPProblem | None = None
    nonneg: frozenset[int] = frozenset()
    # Set by ``feasible`` when the problem is feasible.
    tableau: _Tableau | None = field(default=None, init=False, repr=False, compare=False)


RHS = -1  # the key of a row's right-hand side; columns are 0, 1, ...

Row = dict[int, int]


@dataclass
class _Tableau:
    """An optimal tableau: the seed, or the final tableau of a feasible
    problem.

    ``rows`` hold the non-zero integer entries of columns ``0..n_cols-1``
    and the right-hand side (key ``RHS``); each row is primitive and its
    entry in its basic column (``basis``) is positive.  ``reduced`` is a
    positive multiple of the reduced costs of ``eps`` (key ``RHS`` holds
    minus its value), all <= 0 outside ``fixed``."""

    rows: list[Row]
    basis: list[int]
    reduced: Row
    fixed: frozenset[int]  # slacks of ``=`` rows: fixed at 0, never enter
    eps_col: int | None
    n_cols: int


def feasible(problem: LPProblem) -> list[Fraction] | None:
    """Return an exact witness (one value per variable) or None.

    Without a ``parent`` (or when the parent was infeasible, or when a new
    row is strict and the parent has no ``eps`` column) every row extends
    the seed tableau, and the witness depends only on the constraint list.
    Otherwise the new rows extend the parent's tableau; that witness is
    valid but depends on the parent."""
    n = problem.num_vars
    parent = problem.parent
    start, added = None, problem.constraints
    if parent is not None and parent.tableau is not None:
        assert problem.constraints[: len(parent.constraints)] == parent.constraints
        assert problem.nonneg == parent.nonneg
        rest = problem.constraints[len(parent.constraints) :]
        if parent.tableau.eps_col is not None or not any(_strict(c) for c in rest):
            start, added = parent.tableau, rest
    if start is None:
        start = _seed(n, any(_strict(c) for c in added))
    tableau = _extend(start, added, problem.nonneg)
    if tableau is None:
        return None
    # Non-basic columns are at 0; a basic one at rhs / basic entry.
    row_of = {b: row for row, b in zip(tableau.rows, tableau.basis)}
    if tableau.eps_col is not None:
        eps_row = row_of.get(tableau.eps_col)
        if eps_row is None or eps_row.get(RHS, 0) <= 0:
            return None
    problem.tableau = tableau

    def value(col: int) -> Fraction:
        row = row_of.get(col)
        return Fraction(0) if row is None else Fraction(row.get(RHS, 0), row[col])

    return [value(2 * v) - value(2 * v + 1) for v in range(n)]


def _strict(c: LPConstraint) -> bool:
    return c.relation in ("<", ">")


def _seed(n: int, strict: bool) -> _Tableau:
    """The optimal tableau of no rows over ``n`` variables; with ``strict``
    rows to come, the cap row ``eps + s = 1`` (columns ``2n`` and ``2n +
    1``), ``eps`` basic at 1 and the reduced cost of ``s`` -1."""
    if not strict:
        return _Tableau([], [], {}, frozenset(), None, 2 * n)
    eps = 2 * n
    cap = {eps: 1, eps + 1: 1, RHS: 1}
    return _Tableau([cap], [eps], {eps + 1: -1, RHS: -1}, frozenset(), eps, eps + 2)


def _normalise(c: LPConstraint, eps_col: int | None, nonneg: frozenset[int]) -> tuple[Row, int]:
    """``c`` as an integer ``<=`` (or ``=``) row by tableau column, and the
    positive scale (the lcm of its denominators) it was multiplied by.
    Variable ``v`` is column ``2v``, minus column ``2v + 1`` unless ``v`` is
    in ``nonneg``; a strict row adds ``eps`` with the row's scale, and a
    non-zero right-hand side sits under ``RHS``."""
    merged: dict[int, Fraction] = {}
    for v, k in c.terms:
        merged[v] = merged[v] + k if v in merged else k
    sign = -1 if c.relation in (">=", ">") else 1
    scale = math.lcm(c.rhs.denominator, *(k.denominator for k in merged.values()))
    row: Row = {}
    for v, k in merged.items():
        if k:
            row[2 * v] = a = sign * k.numerator * (scale // k.denominator)
            if v not in nonneg:
                row[2 * v + 1] = -a
    if _strict(c):
        row[eps_col] = scale  # type: ignore[index]
    rhs = sign * c.rhs.numerator * (scale // c.rhs.denominator)
    if rhs:
        row[RHS] = rhs
    return row, scale


def _extend(
    parent: _Tableau, added: list[LPConstraint], nonneg: frozenset[int]
) -> _Tableau | None:
    """``parent``'s optimal tableau with ``added`` as new rows, re-optimised
    by dual simplex; None when the rows make it infeasible.  The parent's
    row objects are shared, not copied: a pivot replaces a row, never
    changes it.

    Each new row gets a fresh slack column with the row's scale, which is
    basic in it; an ``=`` row's slack is fixed at 0.  Eliminating the basic
    columns it touches with the rows of those columns puts the row in terms
    of the current basis.  The reduced costs stay <= 0 (the new slacks' are
    0), so the tableau is dual feasible and only basic values can be out of
    bounds."""
    eps_col = parent.eps_col
    rows = list(parent.rows)
    basis = list(parent.basis)
    reduced = dict(parent.reduced)
    where = {b: i for i, b in enumerate(basis)}
    slack = parent.n_cols
    fixed = parent.fixed.union(slack + k for k, c in enumerate(added) if c.relation == "=")
    for c in added:
        row, scale = _normalise(c, eps_col, nonneg)
        new = dict(row)
        new[slack] = scale
        for j in row:
            i = where.get(j)
            if i is not None:
                new = _eliminate(new, new[j], rows[i], rows[i][j])
        rows.append(new)
        basis.append(slack)
        slack += 1
    if not _dual_simplex(rows, basis, reduced, fixed):
        return None
    return _Tableau(rows, basis, reduced, fixed, eps_col, slack)


def _dual_simplex(
    tableau: list[Row], basis: list[int], reduced: Row, fixed: frozenset[int]
) -> bool:
    """Dual simplex (maximisation) with Bland's rule: pivot until every
    basic value is in bounds, keeping the reduced costs outside ``fixed``
    <= 0; mutates in place.  False when a row shows the problem
    infeasible."""
    while True:
        # Leave: the smallest basic column below 0, or fixed and above 0.
        # The row of one above 0 is read negated (``sign`` -1).
        leaving = sign = -1
        for i, row in enumerate(tableau):
            x = row.get(RHS, 0)
            if (x < 0 or (x > 0 and basis[i] in fixed)) and (
                leaving == -1 or basis[i] < basis[leaving]
            ):
                leaving, sign = i, 1 if x < 0 else -1
        if leaving == -1:
            return True
        # Enter: least ratio reduced/entry over the negative entries of the
        # (signed) row outside ``fixed``, ties to the smallest column.  With
        # both entries negative, r_j / a_j is below r_k / a_k exactly when
        # r_j * a_k < r_k * a_j.  With no such entry the row sums
        # non-negative terms to a value out of bounds.
        row = tableau[leaving]
        entering = -1
        for j, a in row.items():
            a *= sign
            if a < 0 and j != RHS and j not in fixed:
                if entering == -1:
                    entering = j
                    continue
                x, y = reduced.get(j, 0) * row[entering] * sign, reduced.get(entering, 0) * a
                if x < y or (x == y and j < entering):
                    entering = j
        if entering == -1:
            return False
        _pivot(tableau, basis, leaving, entering, reduced)


def _pivot(
    tableau: list[Row], basis: list[int], row: int, col: int, reduced: Row | None = None
) -> None:
    """Pivot on (row, col): make the pivot entry positive, then clear
    ``col`` from every other row and from ``reduced``.  Rows are replaced
    in ``tableau``, never changed; ``reduced`` is updated in place."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:
        p = -p
        pivot_row = tableau[row] = {j: -k for j, k in pivot_row.items()}
    for i, other in enumerate(tableau):
        f = other.get(col)
        if f and i != row:
            tableau[i] = _eliminate(other, f, pivot_row, p)
    if reduced is not None:
        f = reduced.get(col)
        if f:
            new = _eliminate(reduced, f, pivot_row, p)
            reduced.clear()
            reduced.update(new)
    basis[row] = col


def _eliminate(other: Row, f: int, pivot_row: Row, p: int) -> Row:
    """A new row ``p * other - f * pivot_row`` (``p > 0``) divided by the
    gcd of its entries.  Dividing ``p`` and ``f`` by their gcd first keeps
    the numbers small; when that leaves ``p`` at 1, only the columns of
    ``pivot_row`` change.  Entries that cancel are removed."""
    g = math.gcd(p, f)
    if g == p:
        new = other.copy()
        f //= p
    else:
        p //= g
        f //= g
        new = {j: p * a for j, a in other.items()}
    for j, k in pivot_row.items():
        a = new.get(j, 0) - f * k
        if a:
            new[j] = a
        else:
            del new[j]
    g = math.gcd(*new.values())
    return {j: k // g for j, k in new.items()} if g > 1 else new
