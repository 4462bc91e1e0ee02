"""Shared bits for the test suite: random expression trees and a couple
of reference systems used across files."""

import random

from ermakov import expr as ex
from ermakov.systems import PhaseState

VARS = ("theta", "r", "t", "alpha")

_UNARY_OPS = ("neg",) + ex.FUNCTIONS
_BINARY_OPS = ("+", "-", "*", "/", "^")


def random_tree(rng: random.Random, depth: int) -> ex.Expr:
    """A random expression tree, structurally reachable by the parser
    (no negative literals; those print as unary minus)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.45:
            return ex.Num(round(rng.uniform(0.0, 4.0), 3))
        return ex.Var(rng.choice(VARS))
    if rng.random() < 0.35:
        return ex.Unary(rng.choice(_UNARY_OPS), random_tree(rng, depth - 1))
    op = rng.choice(_BINARY_OPS)
    left = random_tree(rng, depth - 1)
    right = random_tree(rng, depth - 1)
    if op == "^":
        # keep exponents tame so evaluation stays in range
        right = ex.Num(float(rng.randint(1, 3)))
    return ex.Binary(op, left, right)


def random_bindings(rng: random.Random) -> dict:
    return {name: rng.uniform(0.3, 2.5) for name in VARS}


def evaluable_tree(rng: random.Random, depth: int = 4, bound: float = 1e6):
    """A random tree together with bindings where it and its partials
    evaluate to something finite and moderate."""
    for _ in range(200):
        tree = random_tree(rng, depth)
        bindings = random_bindings(rng)
        var = rng.choice(VARS)
        try:
            val = ex.evaluate(tree, bindings)
            dval = ex.evaluate(ex.differentiate(tree, var), bindings)
        except ex.ExprError:
            continue
        if abs(val) < bound and abs(dval) < bound:
            return tree, bindings, var
    raise AssertionError("could not draw an evaluable expression")


def central_difference(tree, bindings, var, h=1e-6):
    hi = dict(bindings)
    lo = dict(bindings)
    hi[var] = bindings[var] + h
    lo[var] = bindings[var] - h
    return (ex.evaluate(tree, hi) - ex.evaluate(tree, lo)) / (2.0 * h)


def trusted_central_difference(tree, bindings, var):
    """Central difference, or None when the quotient has not converged
    (near poles or kinks the difference is no oracle at all)."""
    try:
        coarse = central_difference(tree, bindings, var, 1e-5)
        fine = central_difference(tree, bindings, var, 1e-6)
    except ex.ExprError:
        return None
    if abs(coarse - fine) > 1e-7 * max(1.0, abs(fine)):
        return None
    return fine


def spiral_start() -> PhaseState:
    return PhaseState(r=1.0, theta=0.0, u=0.0, v=1.0)


def count_outermost_calls(monkeypatch, owner, name: str) -> list:
    """Patch ``owner.name`` so that each outermost call adds one to the
    returned one-element list; recursive calls through the patched name
    are not counted."""
    original = getattr(owner, name)
    count, depth = [0], [0]

    def counting(*args, **kwargs):
        count[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(owner, name, counting)
    return count
