"""Seeded random generators for expression-level property tests."""

from __future__ import annotations

import random
from fractions import Fraction

from vspec import core

CMP = ("le", "lt", "ge", "gt", "eq")


def random_rational(rng: random.Random, small: bool = True) -> Fraction:
    num = rng.randint(-8, 8)
    den = rng.choice((1, 2, 3, 4)) if small else rng.randint(1, 12)
    return Fraction(num, den)


def random_numeric(rng: random.Random, n_vars: int, depth: int) -> core.Expr:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5 and n_vars:
            return core.Var(rng.randrange(n_vars))
        return core.RatLit(random_rational(rng))
    choice = rng.random()
    if choice < 0.3:
        return core.Builtin(
            "add",
            (random_numeric(rng, n_vars, depth - 1), random_numeric(rng, n_vars, depth - 1)),
        )
    if choice < 0.5:
        return core.Builtin(
            "sub",
            (random_numeric(rng, n_vars, depth - 1), random_numeric(rng, n_vars, depth - 1)),
        )
    if choice < 0.65:
        return core.Builtin(
            "mul",
            (core.RatLit(random_rational(rng)), random_numeric(rng, n_vars, depth - 1)),
        )
    if choice < 0.75:
        divisor = random_rational(rng)
        if divisor == 0:
            divisor = Fraction(2)
        return core.Builtin(
            "div", (random_numeric(rng, n_vars, depth - 1), core.RatLit(divisor))
        )
    if choice < 0.85:
        return core.Builtin("neg", (random_numeric(rng, n_vars, depth - 1),))
    # Numeric if with a boolean comparison condition.
    cond = core.Builtin(
        rng.choice(CMP),
        (random_numeric(rng, n_vars, 0), random_numeric(rng, n_vars, 0)),
        "bool",
    )
    return core.Builtin(
        "if",
        (
            cond,
            random_numeric(rng, n_vars, depth - 1),
            random_numeric(rng, n_vars, depth - 1),
        ),
    )


def random_cmp_op(rng: random.Random) -> str:
    # Equality atoms split in two under negation; keep them rarer so DNF
    # sizes stay representative rather than adversarial.
    return rng.choice(("le", "lt", "ge", "gt", "le", "lt", "ge", "gt", "eq"))


def random_formula(
    rng: random.Random, n_vars: int, depth: int, nested_conditions: bool = False
) -> core.Expr:
    """A Prop-level formula.  ``if`` conditions are single comparisons, or
    with ``nested_conditions`` the richer ones of ``random_condition``."""
    if depth <= 0 or rng.random() < 0.25:
        return core.Builtin(
            random_cmp_op(rng),
            (random_numeric(rng, n_vars, 2), random_numeric(rng, n_vars, 2)),
            "prop",
        )
    choice = rng.random()
    if choice < 0.25:
        op = "and"
    elif choice < 0.5:
        op = "or"
    elif choice < 0.65:
        op = "implies"
    elif choice < 0.8:
        inner = random_formula(rng, n_vars, depth - 1, nested_conditions)
        return core.Builtin("not", (inner,), "prop")
    else:
        if nested_conditions:
            cond = random_condition(rng, n_vars, 2)
        else:
            cond = core.Builtin(
                rng.choice(CMP),
                (random_numeric(rng, n_vars, 1), random_numeric(rng, n_vars, 1)),
                "bool",
            )
        return core.Builtin(
            "if",
            (
                cond,
                random_formula(rng, n_vars, depth - 1, nested_conditions),
                random_formula(rng, n_vars, depth - 1, nested_conditions),
            ),
            "prop",
        )
    return core.Builtin(
        op,
        (
            random_formula(rng, n_vars, depth - 1, nested_conditions),
            random_formula(rng, n_vars, depth - 1, nested_conditions),
        ),
        "prop",
    )


def random_condition(rng: random.Random, n_vars: int, depth: int) -> core.Expr:
    """A Bool-level ``if`` condition: comparisons (``==`` often) under
    ``not``, ``=>``, ``and``, ``or`` and nested ``if``s."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        op = "eq" if rng.random() < 0.4 else rng.choice(CMP)
        args = (random_numeric(rng, n_vars, 1), random_numeric(rng, n_vars, 0))
        return core.Builtin(op, args, "bool")
    if r < 0.5:
        return core.Builtin("not", (random_condition(rng, n_vars, depth - 1),), "bool")
    if r < 0.8:
        op = rng.choice(("and", "or", "implies"))
        args = (random_condition(rng, n_vars, depth - 1), random_condition(rng, n_vars, depth - 1))
        return core.Builtin(op, args, "bool")
    args = tuple(random_condition(rng, n_vars, depth - 1) for _ in range(3))
    return core.Builtin("if", args, "bool")


def random_assignment(rng: random.Random, n_vars: int) -> list[Fraction]:
    return [random_rational(rng, small=False) for _ in range(n_vars)]


def close_over(expr: core.Expr, n_vars: int, kind: str = "forall") -> core.Expr:
    """Wrap in a quantifier prefix binding Var(n_vars-1) .. Var(0)."""
    from vspec.types import RAT

    for i in range(n_vars):
        expr = core.Quant(kind, f"v{n_vars - 1 - i}", RAT, expr)
    return expr


def strip_quantifiers(expr: core.Expr) -> tuple[core.Expr, int]:
    count = 0
    while isinstance(expr, core.Quant):
        expr = expr.body
        count += 1
    return expr, count


def dnf_size(expr: core.Expr, negate: bool) -> int:
    """Number of disjuncts ``to_dnf(expr, negate)`` builds (without building
    them)."""
    from vspec.queries import _lift_numeric_ifs

    if isinstance(expr, core.Quant):
        return dnf_size(expr.body, negate)
    if isinstance(expr, core.BoolLit):
        return int(expr.value != negate)
    op, args = expr.op, expr.args
    if op == "not":
        return dnf_size(args[0], not negate)
    if op in ("and", "or", "implies"):
        lhs = dnf_size(args[0], negate != (op == "implies"))
        rhs = dnf_size(args[1], negate)
        return lhs * rhs if (op == "and") != negate else lhs + rhs
    if op == "if":
        cond, then, els = args
        first = dnf_size(cond, False) * dnf_size(then, negate)
        return first + dnf_size(cond, True) * dnf_size(els, negate)
    lifted = _lift_numeric_ifs(expr)
    if lifted.op == "if":
        return dnf_size(lifted, negate)
    return 2 if negate and op == "eq" else 1


def tractable_formula(
    rng: random.Random, n_vars: int, depth: int, cap: int, negate: bool
) -> core.Expr:
    """Random formula whose (possibly negated) DNF stays under ``cap``
    disjuncts; resamples on pathological blowup (documented 2^n worst case).
    """
    while True:
        matrix = random_formula(rng, n_vars, depth)
        if dnf_size(matrix, negate) <= cap:
            return matrix


def disjunction_agrees(
    disjuncts, matrix: core.Expr, rng: random.Random, n_vars: int, n_env: int, negate: bool
) -> bool:
    """Check that the disjunction of the compiled disjuncts evaluates like
    the (optionally negated) source matrix on n_env random assignments.

    DNF distribution shares atom objects between disjuncts, so each distinct
    atom is compiled and evaluated once per assignment.
    """
    from oracles import compile_eval

    atom_fns: dict[int, object] = {}
    disjunct_ids: list[list[int]] = []
    keep_alive = []
    for d in disjuncts:
        ids = []
        for atom in d.atoms:
            if id(atom) not in atom_fns:
                atom_fns[id(atom)] = compile_eval(atom, n_vars)
                keep_alive.append(atom)
            ids.append(id(atom))
        disjunct_ids.append(ids)
    matrix_fn = compile_eval(matrix, n_vars)
    for _ in range(n_env):
        env = random_assignment(rng, n_vars)
        memo = {aid: fn(env) for aid, fn in atom_fns.items()}
        actual = any(all(memo[aid] for aid in ids) for ids in disjunct_ids)
        expected = matrix_fn(env)
        if negate:
            expected = not expected
        if actual != expected:
            return False
    return True
