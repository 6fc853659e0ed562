"""Exact rational LP feasibility via a fraction-free simplex, from scratch or warm.

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
its slack, artificial and ``eps`` entries by the same factor.  A pivot on
entry ``p`` of row ``r`` first negates row ``r`` if ``p < 0``; each other
row with entry ``f`` in the pivot column, and the reduced-cost row, becomes
``p * row - f * row_r`` divided by the gcd of its entries (the
integer-preserving pivot of Edmonds and Bareiss).  ``p`` and ``f`` are
first divided by their gcd, which keeps the numbers small; when that leaves
``p`` at 1, only the columns where row ``r`` is non-zero change.  A row
operation touches only the non-zeros of the two rows.  The reduced-cost
row is computed once per simplex phase and then updated this way after
each pivot.

A tableau row is never changed in place: a pivot replaces it by a new
dict.  So a tableau extended by new rows shares the row objects of the
tableau it extends, and a new slack column is just a new key.

Pivoting reads only the signs of entries and the order of ratios, which
positive scaling leaves unchanged; the ratio tests compare ``x_i / a_i``
with ``x_k / a_k`` by cross-multiplying, and compare columns to break
ties, since a row's key order is not its column order.  So every pivot is
the one a rational tableau makes, and ``feasible`` reads each basic value
exactly, as right-hand side over basic entry.

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
    """The final tableau of a feasible problem.

    ``rows`` hold the non-zero integer entries of columns ``0..n_cols-1``
    and the right-hand side (key ``RHS``); each row is primitive and its
    entry in its basic column (``basis``) is positive.  ``reduced`` is a
    positive multiple of the reduced costs of the last objective (key
    ``RHS`` holds minus its value), all <= 0 outside ``banned``."""

    rows: list[Row]
    basis: list[int]
    reduced: Row
    banned: set[int]  # artificial columns: fixed at 0, never enter
    eps_col: int | None
    n_cols: int


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
        assert problem.nonneg == parent.nonneg
        added = problem.constraints[len(parent.constraints) :]
        strict = any(c.relation in ("<", ">") for c in added)
        warm = parent.tableau.eps_col is not None or not strict
    tableau = _extend(parent.tableau, added, problem.nonneg) if warm else _solve(problem)
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


def _normalise(c: LPConstraint) -> tuple[dict[int, int], str, int, bool, int]:
    """``c`` as integer ``terms <= rhs`` or ``terms = rhs`` with merged,
    non-zero terms, whether it was strict, and the positive ``scale`` (the
    lcm of its denominators) it was multiplied by."""
    merged: dict[int, Fraction] = {}
    for v, k in c.terms:
        merged[v] = merged[v] + k if v in merged else k
    rel, rhs = c.relation, c.rhs
    sign = -1 if rel in (">=", ">") else 1
    scale = math.lcm(rhs.denominator, *(k.denominator for k in merged.values()))
    terms = {
        v: sign * k.numerator * (scale // k.denominator) for v, k in merged.items() if k
    }
    rhs_int = sign * rhs.numerator * (scale // rhs.denominator)
    return terms, "=" if rel == "=" else "<=", rhs_int, rel in ("<", ">"), scale


def _columns(
    terms: dict[int, int],
    rhs: int,
    strict: bool,
    eps_col: int | None,
    scale: int,
    nonneg: frozenset[int],
) -> Row:
    """A normalised row's entries by tableau column: variable ``v`` is
    column ``2v``, minus column ``2v + 1`` unless ``v`` is in ``nonneg``; a
    strict row adds ``eps`` with the row's scale, and a non-zero ``rhs``
    sits under ``RHS``."""
    row: Row = {}
    for v, k in terms.items():
        row[2 * v] = k
        if v not in nonneg:
            row[2 * v + 1] = -k
    if strict:
        row[eps_col] = scale  # type: ignore[index]
    if rhs:
        row[RHS] = rhs
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
    # each in row order.
    slack = 2 * n + (eps_col is not None)
    art = art_start = slack + sum(rel == "<=" for _, rel, _, _, _ in rows)
    n_cols = art_start + sum(rel == "=" or rhs < 0 for _, rel, rhs, _, _ in rows)
    tableau: list[Row] = []
    basis: list[int] = []
    for terms, rel, rhs, strict, scale in rows:
        row = _columns(terms, rhs, strict, eps_col, scale, problem.nonneg)
        if rel == "<=":
            row[slack] = scale
            basic, slack = slack, slack + 1
        if rhs < 0:  # sign-normalise: a negated <= row carries a negative slack
            row = {j: -k for j, k in row.items()}
        if rel == "=" or rhs < 0:
            row[art] = scale
            basic, art = art, art + 1
        tableau.append(row)
        basis.append(basic)

    artificials = set(range(art_start, n_cols))

    # Phase 1: maximise -(sum of artificials); optimum must be 0.
    if artificials:
        _simplex(tableau, basis, dict.fromkeys(artificials, -1))
        if any(RHS in row for row, b in zip(tableau, basis) if b in artificials):
            return None
        _drive_out_artificials(tableau, basis, artificials)

    reduced: Row = {}
    if eps_col is not None:
        reduced = _simplex(tableau, basis, {eps_col: 1}, banned=artificials)
    return _Tableau(tableau, basis, reduced, artificials, eps_col, n_cols)


def _extend(
    parent: _Tableau, added: list[LPConstraint], nonneg: frozenset[int]
) -> _Tableau | None:
    """``parent``'s optimal tableau with ``added`` as new rows, re-optimised
    by dual simplex; None when the rows make it infeasible.  The parent's
    row objects are shared, not copied: a pivot replaces a row, never
    changes it.

    Each new ``<=`` row gets a fresh slack column, which is basic in it; an
    ``=`` row is two ``<=`` rows.  Eliminating the basic columns it touches
    with the rows of those columns puts the row in terms of the current
    basis.  The reduced costs stay <= 0 (the new slacks' are 0), so the
    tableau is dual feasible and only right-hand sides can be negative."""
    eps_col = parent.eps_col
    new_rows: list[tuple[Row, int]] = []  # entries with rhs, scale
    for c in added:
        terms, rel, rhs, strict, scale = _normalise(c)
        row = _columns(terms, rhs, strict, eps_col, scale, nonneg)
        new_rows.append((row, scale))
        if rel == "=":
            new_rows.append(({j: -k for j, k in row.items()}, scale))

    rows = list(parent.rows)
    basis = list(parent.basis)
    reduced = dict(parent.reduced)
    where = {b: i for i, b in enumerate(basis)}
    slack = parent.n_cols
    for row, scale in new_rows:
        new = dict(row)
        new[slack] = scale
        for j in row:
            i = where.get(j)
            if i is not None:
                new = _eliminate(new, new[j], rows[i], rows[i][j])
        rows.append(new)
        basis.append(slack)
        slack += 1
    if not _dual_simplex(rows, basis, reduced, parent.banned):
        return None
    return _Tableau(rows, basis, reduced, parent.banned, eps_col, slack)


def _dual_simplex(tableau: list[Row], basis: list[int], reduced: Row, banned: set[int]) -> bool:
    """Dual simplex (maximisation) with Bland's rule: pivot until every
    right-hand side is >= 0, keeping the reduced costs <= 0; mutates in
    place.  False when a row shows the problem infeasible."""
    while True:
        # Leave: the infeasible row with the smallest basic column.
        leaving = -1
        for i, row in enumerate(tableau):
            if row.get(RHS, 0) < 0 and (leaving == -1 or basis[i] < basis[leaving]):
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
        for j, a in row.items():
            if a < 0 and j != RHS and j not in banned:
                if entering == -1:
                    entering = j
                    continue
                x, y = reduced.get(j, 0) * row[entering], reduced.get(entering, 0) * a
                if x < y or (x == y and j < entering):
                    entering = j
        if entering == -1:
            return False
        _pivot(tableau, basis, leaving, entering, reduced)


def _simplex(
    tableau: list[Row],
    basis: list[int],
    cost: Row,
    banned: set[int] | frozenset[int] = frozenset(),
) -> Row:
    """Primal simplex (maximisation) with Bland's rule; mutates in place and
    returns the final reduced costs, up to a positive factor."""
    # Reduced costs c_j - c_B . T[:, j], up to a positive factor: each
    # basic column is eliminated from the cost row with its own row, as a
    # pivot does.  Key RHS carries minus the objective value.  A basic
    # column is absent from the row, so it is never chosen to enter and the
    # basis needs no membership test.
    reduced = cost
    for row, b in zip(tableau, basis):
        f = reduced.get(b)
        if f:
            reduced = _eliminate(reduced, f, row, row[b])
    while True:
        entering = -1
        for j, k in reduced.items():
            if k > 0 and j != RHS and j not in banned and (entering == -1 or j < entering):
                entering = j
        if entering == -1:
            return reduced
        # Leave: least ratio rhs/entry over positive entries, ties to the
        # smallest basic column, compared by cross-multiplying.
        leaving = -1
        for i, row in enumerate(tableau):
            a = row.get(entering, 0)
            if a > 0:
                if leaving == -1:
                    leaving = i
                    continue
                best = tableau[leaving]
                x, y = row.get(RHS, 0) * best[entering], best.get(RHS, 0) * a
                if x < y or (x == y and basis[i] < basis[leaving]):
                    leaving = i
        if leaving == -1:
            raise AssertionError("LP objective is unbounded; the eps cap is missing")
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


def _drive_out_artificials(tableau: list[Row], basis: list[int], artificials: set[int]) -> None:
    """Pivot basic artificials (at value 0) out, or drop redundant rows."""
    i = 0
    while i < len(tableau):
        if basis[i] in artificials:
            pivot_col = -1
            for j in tableau[i]:
                if j != RHS and j not in artificials and (pivot_col == -1 or j < pivot_col):
                    pivot_col = j
            if pivot_col == -1:
                del tableau[i]
                del basis[i]
                continue
            _pivot(tableau, basis, i, pivot_col)
        i += 1
