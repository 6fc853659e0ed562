import copy
import hashlib
import math
import random
from fractions import Fraction

import pytest

from oracles import fm_feasible
from vspec.verifier.lp import RHS, LPConstraint, LPProblem, feasible


def c(terms, rel, rhs):
    return LPConstraint(tuple((v, Fraction(k)) for v, k in terms.items()), rel, Fraction(rhs))


def holds(constraint: LPConstraint, witness) -> bool:
    total = sum(k * witness[v] for v, k in constraint.terms)
    return {
        "<=": total <= constraint.rhs,
        "<": total < constraint.rhs,
        ">=": total >= constraint.rhs,
        ">": total > constraint.rhs,
        "=": total == constraint.rhs,
    }[constraint.relation]


RELATIONS = ("<=", "<", ">=", ">", "=")


def test_contradictory_bounds_unsat():
    problem = LPProblem(1, [c({0: 1}, ">=", 1), c({0: 1}, "<=", 0)])
    assert feasible(problem) is None


def test_strict_interval_sat_with_exact_witness():
    problem = LPProblem(1, [c({0: 1}, ">=", 1), c({0: 1}, "<", 2)])
    witness = feasible(problem)
    assert witness is not None
    assert witness[0] >= 1
    assert witness[0] < 2


def test_empty_open_interval_unsat():
    problem = LPProblem(1, [c({0: 1}, "<", 1), c({0: 1}, ">", 1)])
    assert feasible(problem) is None


def test_boundary_only_feasible_point_with_strict_constraint_is_unsat():
    # x >= 1 and x <= 1 force x = 1; x < 1 is then unsatisfiable even
    # though the non-strict relaxation is feasible.
    problem = LPProblem(1, [c({0: 1}, ">=", 1), c({0: 1}, "<=", 1), c({0: 1}, "<", 1)])
    assert feasible(problem) is None


def test_equalities_and_free_variables():
    # x + y = 1, x - y = 3  =>  x = 2, y = -1
    problem = LPProblem(2, [c({0: 1, 1: 1}, "=", 1), c({0: 1, 1: -1}, "=", 3)])
    witness = feasible(problem)
    assert witness == [Fraction(2), Fraction(-1)]


def test_negative_rhs_rows():
    problem = LPProblem(1, [c({0: 1}, "<=", -5), c({0: 1}, ">=", -10)])
    witness = feasible(problem)
    assert witness is not None
    assert -10 <= witness[0] <= -5


def test_unconstrained_problem_is_feasible():
    assert feasible(LPProblem(3, [])) == [Fraction(0)] * 3


def test_determinism():
    problem = LPProblem(
        3,
        [
            c({0: 1, 1: 2}, "<=", 4),
            c({1: 1, 2: -1}, ">=", -2),
            c({0: 1, 2: 1}, "=", 1),
            c({0: 1}, ">", -3),
        ],
    )
    first = feasible(problem)
    second = feasible(problem)
    assert first == second


def random_problem(rng: random.Random):
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    constraints = []
    for _ in range(m):
        terms = {}
        for v in range(n):
            coeff = rng.randint(-3, 3)
            if coeff:
                terms[v] = Fraction(coeff)
        if not terms:
            terms[rng.randrange(n)] = Fraction(1)
        rel = rng.choice(["<=", "<", ">=", ">", "="])
        constraints.append(
            LPConstraint(tuple(terms.items()), rel, Fraction(rng.randint(-6, 6)))
        )
    return LPProblem(n, constraints)


def test_agreement_with_fourier_motzkin_oracle():
    rng = random.Random(20260101)
    disagreements = 0
    for _ in range(400):
        problem = random_problem(rng)
        witness = feasible(problem)
        oracle = fm_feasible(
            problem.num_vars,
            [(dict(c.terms), c.relation, c.rhs) for c in problem.constraints],
        )
        if (witness is not None) != oracle:
            disagreements += 1
        if witness is not None:
            assert all(holds(c, witness) for c in problem.constraints)
    assert disagreements == 0


def test_witnesses_satisfy_every_relation_kind():
    rng = random.Random(77)
    for _ in range(200):
        problem = random_problem(rng)
        witness = feasible(problem)
        if witness is not None:
            for constraint in problem.constraints:
                assert holds(constraint, witness)


def random_row(rng: random.Random, n: int, relations) -> LPConstraint:
    terms = {v: Fraction(rng.randint(-3, 3)) for v in range(n)}
    terms = {v: k for v, k in terms.items() if k} or {rng.randrange(n): Fraction(1)}
    return LPConstraint(tuple(terms.items()), rng.choice(relations), Fraction(rng.randint(-6, 6)))


def test_warm_start_agrees_with_cold_solves_and_fourier_motzkin():
    """Rows added in groups to a solved parent, re-optimised from its
    tableau: feasibility matches a solve from scratch and the oracle, and
    every warm witness satisfies every row.  Added rows are mostly
    non-strict, like the search's; a strict one on a parent without strict
    rows extends the seed tableau instead."""
    rng = random.Random(4242)
    seen = {"warm": 0, "infeasible": 0, "negative rhs": 0, "=": 0, "strict": 0}
    for _ in range(500):
        n = rng.randint(1, 3)
        parent = LPProblem(n, [random_row(rng, n, RELATIONS) for _ in range(rng.randint(0, 4))])
        if feasible(parent) is None:
            continue
        for _ in range(rng.randint(1, 3)):
            relations = RELATIONS if rng.random() < 0.3 else ("<=", ">=", "=")
            added = [random_row(rng, n, relations) for _ in range(rng.randint(1, 2))]
            child = LPProblem(n, parent.constraints + added, parent=parent)
            witness = feasible(child)
            cold = feasible(LPProblem(n, child.constraints))
            oracle = fm_feasible(n, [(dict(c.terms), c.relation, c.rhs) for c in child.constraints])
            assert (witness is not None) == (cold is not None) == oracle
            strict = any(a.relation in ("<", ">") for a in added)
            seen["warm"] += parent.tableau.eps_col is not None or not strict
            seen["strict"] += strict
            seen["negative rhs"] += any(a.rhs < 0 for a in added)
            seen["="] += any(a.relation == "=" for a in added)
            if witness is None:
                seen["infeasible"] += 1
                break
            assert all(holds(c, witness) for c in child.constraints)
            parent = child
    assert min(seen.values()) >= 100, seen


def test_nonneg_columns_agree_with_explicit_sign_rows():
    """A variable declared nonnegative gets one column instead of a pair:
    cold and warm, the problem is feasible exactly when the same rows plus
    an explicit ``v >= 0`` row per such variable, over free variables, are,
    and its witness satisfies every row and is >= 0 there.  A warm child
    must keep its parent's ``nonneg``."""
    rng = random.Random(20261019)
    seen = {"cold feasible": 0, "cold infeasible": 0, "warm feasible": 0,
            "warm infeasible": 0, "negative at a free variable": 0}  # fmt: skip

    def check(problem: LPProblem) -> bool:
        witness = feasible(problem)
        signs = [c({v: 1}, ">=", 0) for v in sorted(problem.nonneg)]
        explicit = feasible(LPProblem(problem.num_vars, problem.constraints + signs))
        assert (witness is None) == (explicit is None)
        if witness is not None:
            assert all(holds(row, witness) for row in problem.constraints)
            assert all(witness[v] >= 0 for v in problem.nonneg)
            check_tableau(problem.tableau)
            columns = {j for row in problem.tableau.rows for j in row}
            assert not columns & {2 * v + 1 for v in problem.nonneg}
            seen["negative at a free variable"] += any(
                x < 0 for v, x in enumerate(witness) if v not in problem.nonneg
            )
        return witness is not None

    for _ in range(400):
        n = rng.randint(1, 4)
        nonneg = frozenset(v for v in range(n) if rng.random() < 0.6)
        rows = [random_row(rng, n, RELATIONS) for _ in range(rng.randint(0, 5))]
        parent = LPProblem(n, rows, nonneg=nonneg)
        feasible_parent = check(parent)
        seen["cold feasible" if feasible_parent else "cold infeasible"] += 1
        while feasible_parent:
            relations = RELATIONS if rng.random() < 0.3 else ("<=", ">=", "=")
            added = [random_row(rng, n, relations) for _ in range(rng.randint(1, 2))]
            child = LPProblem(n, parent.constraints + added, parent=parent, nonneg=nonneg)
            feasible_parent = check(child)
            seen["warm feasible" if feasible_parent else "warm infeasible"] += 1
            parent = child
    assert min(seen.values()) >= 100, seen

    parent = LPProblem(1, [c({0: 1}, "<=", 1)], nonneg=frozenset({0}))
    assert feasible(parent) is not None
    with pytest.raises(AssertionError):
        feasible(LPProblem(1, parent.constraints + [c({0: 1}, ">=", -1)], parent=parent))


# sha256 of repr() of the witnesses of test_pinned_witnesses; see its docstring.
PINNED_DIGEST = "b80bb6ed07be71196be5a474412846e944afa9b91e44de8df0c2fc871d069738"


def float32_like(rng: random.Random) -> Fraction:
    """A value with a 24-bit mantissa over a large power-of-two denominator."""
    return Fraction(rng.randint(-(1 << 24) + 1, (1 << 24) - 1), 1 << rng.randint(16, 30))


def pinned_problem(rng: random.Random, index: int) -> LPProblem:
    n = rng.randint(1, 5)
    constraints = []
    for _ in range(rng.randint(1, 8)):
        if index % 5 == 4:
            terms = {v: float32_like(rng) for v in range(n)}
        else:
            terms = {v: Fraction(rng.randint(-4, 4)) for v in range(n)}
        terms = {v: k for v, k in terms.items() if k} or {rng.randrange(n): Fraction(1)}
        relation = rng.choice(["<=", "<", ">=", ">", "="])
        rhs = Fraction(rng.randint(-8, 8))
        constraints.append(LPConstraint(tuple(terms.items()), relation, rhs))
    if index % 3 == 0:
        # a redundant multiple of an equality: an ``=`` row the others imply
        base = rng.choice(constraints)
        k = Fraction(rng.choice([2, 3, -1, -2]))
        constraints.append(LPConstraint(base.terms, "=", base.rhs))
        scaled = tuple((v, k * a) for v, a in base.terms)
        constraints.append(LPConstraint(scaled, "=", k * base.rhs))
    if index % 2 == 0:
        for v in range(n):
            constraints.append(c({v: 1}, ">=", -rng.randint(1, 9)))
            constraints.append(c({v: 1}, "<", rng.randint(1, 9)))
    rng.shuffle(constraints)
    return LPProblem(n, constraints)


def test_pinned_witnesses():
    """The solver's witnesses on a seeded corpus are pinned to a digest.

    The corpus covers all five relations, negative right-hand sides,
    strict rows (the eps column), redundant equalities and float32-style
    coefficients.  A pivot rule that
    differs anywhere shows up as a different witness, so the digest gates
    "same pivot path".  The two-phase primal simplex, whose digest
    (f3715d30...) held from the dense tableau of d48a7f5 on, reached other
    vertices; this one was recorded when the dual simplex from the seed
    tableau replaced it.
    """
    rng = random.Random(20261018)
    witnesses = []
    for index in range(300):
        problem = pinned_problem(rng, index)
        witness = feasible(problem)
        if witness is not None:
            assert all(holds(c, witness) for c in problem.constraints)
        witnesses.append(witness)
    unsat = sum(w is None for w in witnesses)
    assert 60 <= unsat <= 240
    digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()
    assert digest == PINNED_DIGEST


# sha256 of repr() of the child witnesses of test_pinned_warm_witnesses.
PINNED_WARM_DIGEST = "07eef090f3b632b2d3a1a8a5ae95eb6269598313d57457fc5a20f8f3c34b20f1"


def added_group(rng: random.Random, n: int, float32: bool) -> list[LPConstraint]:
    """One to three rows to add to a solved parent, mostly non-strict."""
    relations = RELATIONS if rng.random() < 0.3 else ("<=", ">=", "=")
    group = []
    for _ in range(rng.randint(1, 3)):
        if float32:
            terms = {v: float32_like(rng) for v in range(n)}
        else:
            terms = {v: Fraction(rng.randint(-4, 4)) for v in range(n)}
        terms = {v: k for v, k in terms.items() if k} or {rng.randrange(n): Fraction(1)}
        rhs = Fraction(rng.randint(-8, 8))
        group.append(LPConstraint(tuple(terms.items()), rng.choice(relations), rhs))
    return group


def test_pinned_warm_witnesses():
    """The witnesses of problems solved warm from a parent's tableau are
    pinned to a digest, as ``test_pinned_witnesses`` pins cold ones.

    Each parent of the ``pinned_problem`` corpus that is feasible gets a
    chain of added row groups; each child is solved with its predecessor as
    ``parent``, so the dual simplex runs on it.  The groups cover negative
    right-hand sides, ``=`` rows, strict rows (which extend the seed
    tableau instead on a parent without an ``eps`` column), groups that
    make the problem infeasible, and, every fifth group, float32-style
    coefficients.  The digest gates "same dual-simplex pivots".  Over
    parents solved by the two-phase primal simplex it was 352df099...,
    from the rational tableau on; this one was recorded when every parent
    became a dual-simplex solve from the seed tableau."""
    rng = random.Random(20261019)
    witnesses = []
    seen = {"warm": 0, "negative rhs": 0, "=": 0, "strict": 0, "infeasible": 0, "float32": 0}
    groups = 0
    for index in range(400):
        parent = pinned_problem(rng, index)
        if feasible(parent) is None:
            continue
        for _ in range(rng.randint(1, 4)):
            float32 = groups % 5 == 4
            groups += 1
            added = added_group(rng, parent.num_vars, float32)
            child = LPProblem(parent.num_vars, parent.constraints + added, parent=parent)
            witness = feasible(child)
            witnesses.append(witness)
            strict = any(a.relation in ("<", ">") for a in added)
            seen["warm"] += parent.tableau.eps_col is not None or not strict
            seen["negative rhs"] += any(a.rhs < 0 for a in added)
            seen["="] += any(a.relation == "=" for a in added)
            seen["strict"] += strict
            seen["float32"] += float32
            if witness is None:
                seen["infeasible"] += 1
                break
            assert all(holds(c, witness) for c in child.constraints)
            parent = child
    assert min(seen.values()) >= 60, seen
    digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()
    assert digest == PINNED_WARM_DIGEST


def check_tableau(tableau) -> None:
    """The integer tableau's invariants (see ``lp``'s module docstring):
    every row, and the reduced-cost row, stores integers and no zero;
    each row is primitive, right-hand side (key ``RHS``) included; its
    basic entry is positive, and its basic column is absent from every
    other row and from the reduced costs, which are <= 0 outside
    ``fixed``.  A fixed column is nonbasic or basic at 0."""
    for row, b in zip(tableau.rows, tableau.basis):
        assert all(type(k) is int and k != 0 for k in row.values())
        assert all(j == RHS or 0 <= j < tableau.n_cols for j in row)
        assert math.gcd(*row.values()) == 1
        assert row[b] > 0
        assert all(b not in other for other in tableau.rows if other is not row)
    assert all(type(k) is int and k != 0 for k in tableau.reduced.values())
    assert all(b not in tableau.reduced for b in tableau.basis)
    assert all(
        k <= 0 for j, k in tableau.reduced.items() if j != RHS and j not in tableau.fixed
    )
    assert all(RHS not in row for row, b in zip(tableau.rows, tableau.basis) if b in tableau.fixed)


def test_tableaux_are_primitive_integer_rows():
    """Cold and warm tableaux keep the invariants, and solving a child
    leaves its parent's tableau, whose rows it shares, as it was."""
    rng = random.Random(7)
    for index in range(150):
        parent = pinned_problem(rng, index)
        if feasible(parent) is None:
            continue
        check_tableau(parent.tableau)
        before = copy.deepcopy(parent.tableau)
        added = added_group(rng, parent.num_vars, index % 5 == 4)
        child = LPProblem(parent.num_vars, parent.constraints + added, parent=parent)
        if feasible(child) is not None:
            check_tableau(child.tableau)
        assert parent.tableau == before


def leaving_values(monkeypatch) -> list:
    """Record the right-hand side of the leaving row at every pivot: one
    above 0 is a fixed slack that leaves through its negated row."""
    from vspec.verifier import lp

    values = []
    original = lp._pivot

    def recording(tableau, basis, row, col, reduced=None):
        values.append(tableau[row].get(RHS, 0))
        return original(tableau, basis, row, col, reduced)

    monkeypatch.setattr(lp, "_pivot", recording)
    return values


def agrees_with_fourier_motzkin(problem: LPProblem, witness) -> bool:
    signs = [({v: Fraction(1)}, ">=", Fraction(0)) for v in problem.nonneg]
    rows = [(dict(c.terms), c.relation, c.rhs) for c in problem.constraints] + signs
    return (witness is not None) == fm_feasible(problem.num_vars, rows)


def test_equality_whose_fixed_slack_starts_above_zero(monkeypatch):
    """``x + y = 2`` over nonnegative ``x, y``: its slack, fixed at 0,
    starts basic at 2 and leaves through its negated row, ``x`` entering.
    ``-x - y = 2`` has no positive entry to enter, which proves it
    infeasible, as ``x + y = -1`` does by its negative right-hand side."""
    values = leaving_values(monkeypatch)
    problem = LPProblem(2, [c({0: 1, 1: 1}, "=", 2)], nonneg=frozenset({0, 1}))
    witness = feasible(problem)
    assert witness == [2, 0]
    assert values == [2]
    assert agrees_with_fourier_motzkin(problem, witness)
    check_tableau(problem.tableau)
    for row in (c({0: -1, 1: -1}, "=", 2), c({0: 1, 1: 1}, "=", -1)):
        problem = LPProblem(2, [row], nonneg=frozenset({0, 1}))
        assert feasible(problem) is None
        assert agrees_with_fourier_motzkin(problem, None)


def test_warm_row_pushes_a_basic_fixed_slack_above_zero(monkeypatch):
    """The slack of ``x - y = 0`` stays basic at 0 in the parent.  The
    child's ``y >= 1`` makes ``y`` basic at 1, which puts that slack at 1;
    it leaves through its negated row, and the witness meets the ``=`` row
    exactly.  The same holds over free variables and with a strict row."""
    for nonneg in (frozenset({0, 1}), frozenset()):
        for extra in ([], [c({0: 1}, "<", 5)]):
            parent = LPProblem(2, [c({0: 1, 1: -1}, "=", 0)] + extra, nonneg=nonneg)
            assert feasible(parent) is not None
            tableau = parent.tableau
            assert [b for b in tableau.basis if b in tableau.fixed] == list(tableau.fixed)
            values = leaving_values(monkeypatch)
            child = LPProblem(2, parent.constraints + [c({1: 1}, ">=", 1)], parent=parent,
                              nonneg=nonneg)  # fmt: skip
            witness = feasible(child)
            monkeypatch.undo()
            assert witness is not None and witness[0] == witness[1] >= 1
            assert all(holds(row, witness) for row in child.constraints)
            assert any(value > 0 for value in values)
            assert agrees_with_fourier_motzkin(child, witness)
            check_tableau(child.tableau)


def test_degenerate_vertex_terminates(monkeypatch):
    """Many rows through the one vertex ``(1, 1, 1)``, in every relation:
    without strict rows every reduced cost is 0, so every ratio ties, and
    Bland's rule must still stop, cold and warm, with the oracle's answer.
    A strict row through the vertex makes the problem infeasible when
    ``=`` rows pin the vertex."""
    from vspec.verifier import lp

    pivots = 0
    original = lp._pivot

    def counting(*args, **kwargs):
        nonlocal pivots
        pivots += 1
        assert pivots < 1000, "the dual simplex cycles"
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "_pivot", counting)
    rng = random.Random(20261020)
    seen = {"feasible": 0, "infeasible": 0, "warm": 0, "tied pivots": 0}
    for _ in range(40):
        rows = []
        for _ in range(rng.randint(6, 9)):
            terms = {v: rng.randint(-2, 2) for v in range(3)}
            terms = {v: k for v, k in terms.items() if k} or {0: 1}
            relation = rng.choice(("<=", ">=", "=", "=", "<") if rows else ("<=", ">="))
            rows.append(c(terms, relation, sum(terms.values())))
        nonneg = frozenset(v for v in range(3) if rng.random() < 0.5)
        parent = LPProblem(3, rows[:1], nonneg=nonneg)
        assert feasible(parent) is not None
        pivots = 0
        child = LPProblem(3, rows, parent=parent, nonneg=nonneg)
        witness = feasible(child)
        seen["warm"] += 1
        pivots = 0
        cold = LPProblem(3, rows, nonneg=nonneg)
        assert (feasible(cold) is None) == (witness is None)
        seen["tied pivots"] += pivots >= 3
        assert agrees_with_fourier_motzkin(cold, witness)
        seen["feasible" if witness is not None else "infeasible"] += 1
        if witness is not None:
            assert all(holds(row, witness) for row in rows)
    assert min(seen.values()) >= 10, seen
