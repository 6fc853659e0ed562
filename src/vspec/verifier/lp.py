"""Exact rational LP feasibility via two-phase primal simplex.

Decides feasibility of a system of linear constraints over free rational
variables, with mixed strict and non-strict relations, exactly:

* free variables split into nonnegative pairs,
* each strict constraint ``a.v < c`` becomes ``a.v + eps <= c`` and the
  phase-2 objective maximises ``eps`` (capped at 1),
* optimum ``eps > 0`` means strictly feasible (witness extracted from the
  basis); optimum 0 with strict rows present, or phase-1 infeasibility,
  means infeasible.

Pivoting uses Bland's rule (smallest eligible column; ties in the ratio
test broken by smallest basic variable), which guarantees termination and
makes witnesses deterministic.

The tableau is stored densely but worked sparsely: a pivot updates other
rows only in the columns where the pivot row is non-zero, and only rows
whose pivot-column entry is non-zero.  The reduced-cost row is computed
once per simplex phase and then updated from the pivot row after each
pivot.  In exact arithmetic these are the same numbers a dense tableau
computes, so Bland's rule makes the same pivots and the witnesses are
those of a dense tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Feasibility problem: named rational variables and mixed constraints."""

    num_vars: int
    constraints: list[LPConstraint]


def feasible(problem: LPProblem) -> list[Fraction] | None:
    """Return an exact witness (one value per variable) or None."""
    n = problem.num_vars
    rows: list[tuple[list[Fraction], str, Fraction, bool]] = []
    any_strict = False
    for c in problem.constraints:
        coeffs = [ZERO] * n
        for v, k in c.terms:
            coeffs[v] += k
        rel, rhs = c.relation, c.rhs
        if rel in (">=", ">"):
            coeffs = [-k for k in coeffs]
            rhs = -rhs
            rel = "<=" if rel == ">=" else "<"
        strict = rel == "<"
        any_strict = any_strict or strict
        rows.append((coeffs, "=" if rel == "=" else "<=", rhs, strict))

    ns = 2 * n + (1 if any_strict else 0)  # structural columns
    eps_col = 2 * n if any_strict else None

    # Build equality-form rows (structural coefficients, relation, rhs).
    table_rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhss: list[Fraction] = []
    for coeffs, rel, rhs, strict in rows:
        struct = [ZERO] * ns
        for v, k in enumerate(coeffs):
            if k:
                struct[2 * v] = k
                struct[2 * v + 1] = -k
        if strict:
            struct[eps_col] = ONE  # type: ignore[index]
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

    if eps_col is not None:
        cost2 = [ZERO] * n_cols
        cost2[eps_col] = ONE
        _simplex(tableau, basis, cost2, n_cols, banned=artificials)

    # Non-basic columns are at 0.
    value = {b: tableau[i][n_cols] for i, b in enumerate(basis)}
    if eps_col is not None and value.get(eps_col, ZERO) <= 0:
        return None
    return [value.get(2 * v, ZERO) - value.get(2 * v + 1, ZERO) for v in range(n)]


def _simplex(tableau, basis, cost, n_cols, banned: set[int] | None = None) -> None:
    """Primal simplex (maximisation) with Bland's rule; mutates in place."""
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
            return
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
