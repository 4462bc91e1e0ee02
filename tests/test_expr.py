import json
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ermakov import expr as ex
from ermakov.expr import Binary, Num, Unary, Var

from helpers import VARS, evaluable_tree, random_bindings, trusted_central_difference


def test_parse_builds_expected_tree():
    tree = ex.parse("2*theta + 1")
    assert tree == Binary("+", Binary("*", Num(2.0), Var("theta")), Num(1.0))


def test_power_is_right_associative_and_binds_tightest():
    assert ex.evaluate(ex.parse("2^3^2"), {}) == 512.0
    assert ex.evaluate(ex.parse("-theta^2"), {"theta": 3.0}) == -9.0
    assert ex.evaluate(ex.parse("2*theta^2"), {"theta": 3.0}) == 18.0


def test_unary_minus_in_exponent():
    assert ex.evaluate(ex.parse("r^-2"), {"r": 2.0}) == 0.25


def test_whitespace_is_insignificant():
    assert ex.parse(" sin( theta ) + 1 ") == ex.parse("sin(theta)+1")


@pytest.mark.parametrize(
    "text,offset",
    [
        ("cos(theta", 9),
        ("1 + ", 4),
        ("(r", 2),
        ("", 0),
        ("r + * t", 4),
    ],
)
def test_parse_error_carries_offset(text, offset):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(text)
    assert err.value.offset == offset
    assert f"(offset {offset})" in str(err.value)


def test_unknown_function_is_a_parse_error_at_its_name():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("1 + fiz(2)")
    assert err.value.offset == 4
    assert "fiz" in str(err.value)


def test_trailing_garbage_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("1 2")


def test_evaluate_unbound_variable():
    with pytest.raises(ex.EvalError, match="alpha"):
        ex.evaluate(ex.parse("alpha + 1"), {"r": 2.0})


def test_evaluate_ignores_extra_bindings():
    assert ex.evaluate(ex.parse("r"), {"r": 2.0, "theta": 9.0}) == 2.0


@pytest.mark.parametrize(
    "text,bindings",
    [
        ("1/r", {"r": 0.0}),
        ("ln(r)", {"r": -1.0}),
        ("sqrt(r)", {"r": -4.0}),
        ("r^0.5", {"r": -4.0}),
    ],
)
def test_domain_violations(text, bindings):
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse(text), bindings)


@pytest.mark.parametrize(
    "text",
    [
        "r+t*theta",
        "(r+t)*theta",
        "r^t^alpha",
        "(r^t)^alpha",
        "-(r+t)",
        "-r^2.0",
        "r-(t-theta)",
        "r/(t*theta)",
        "sin(r)^2.0",
        "(-r)^2.0",
    ],
)
def test_printer_uses_minimal_parentheses(text):
    assert ex.to_text(ex.parse(text)) == text


_names = st.sampled_from(("theta", "r", "t", "alpha", "rbar"))
_numbers = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
).map(abs)
_leaves = st.one_of(_numbers.map(Num), _names.map(Var))


def _extend(children):
    unary = st.tuples(
        st.sampled_from(("neg",) + ex.FUNCTIONS), children
    ).map(lambda p: Unary(*p))
    binary = st.tuples(
        st.sampled_from("+-*/^"), children, children
    ).map(lambda p: Binary(*p))
    return st.one_of(unary, binary)


_trees = st.recursive(_leaves, _extend, max_leaves=25)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(tree):
    assert ex.parse(ex.to_text(tree)) == tree


def test_derivative_matches_central_differences():
    rng = random.Random(1105)
    checked = 0
    while checked < 200:
        tree, bindings, var = evaluable_tree(rng)
        fd = trusted_central_difference(tree, bindings, var)
        if fd is None:
            continue
        sym = ex.evaluate(ex.differentiate(tree, var), bindings)
        scale = max(1.0, abs(sym), abs(fd))
        assert abs(sym - fd) / scale < 1e-5, ex.to_text(tree)
        checked += 1


def test_derivative_of_absent_variable_is_zero():
    tree = ex.parse("sin(theta)*r")
    d = ex.differentiate(tree, "t")
    assert ex.evaluate(d, {"theta": 0.7, "r": 2.0}) == 0.0


def test_derivative_of_abs_at_negative_argument():
    d = ex.differentiate(ex.parse("abs(r)"), "r")
    assert ex.evaluate(d, {"r": -3.0}) == -1.0
    assert ex.evaluate(d, {"r": 3.0}) == 1.0


def test_constant_exponent_rule_keeps_negative_bases_evaluable():
    # d/dr of r^3 at r=-2 must come out as 3*r^2 = 12, not hit ln(r)
    d = ex.differentiate(ex.parse("r^3"), "r")
    assert ex.evaluate(d, {"r": -2.0}) == pytest.approx(12.0)


def test_general_power_derivative():
    tree = ex.parse("r^theta")
    d = ex.differentiate(tree, "theta")
    r, theta = 2.0, 1.3
    expected = r**theta * math.log(r)
    assert ex.evaluate(d, {"r": r, "theta": theta}) == pytest.approx(expected)


def test_substitute_replaces_every_occurrence():
    tree = ex.parse("rbar^2 + rbar")
    replaced = ex.substitute(tree, "rbar", ex.parse("1/r"))
    assert ex.free_vars(replaced) == frozenset({"r"})
    assert ex.evaluate(replaced, {"r": 2.0}) == pytest.approx(0.75)


def test_free_vars():
    assert ex.free_vars(ex.parse("sin(theta)*r + t")) == frozenset(
        {"theta", "r", "t"}
    )
    assert ex.free_vars(ex.parse("2.5")) == frozenset()


def test_quadrature_polynomial():
    val = ex.quad_adaptive(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_quadrature_orientation_and_degenerate_interval():
    assert ex.quad_adaptive(math.sin, 0.0, 0.0, 1e-12) == 0.0
    fwd = ex.quad_adaptive(math.sin, 0.0, 2.0, 1e-12)
    back = ex.quad_adaptive(math.sin, 2.0, 0.0, 1e-12)
    assert fwd == -back
    assert fwd == pytest.approx(1.0 - math.cos(2.0), abs=1e-11)


def test_quadrature_additivity():
    rng = random.Random(7)
    tol = 1e-10
    for _ in range(25):
        a = rng.uniform(-2.0, 0.0)
        b = rng.uniform(0.0, 1.0)
        c = rng.uniform(1.0, 3.0)
        f = lambda x: math.exp(-x * x) + math.sin(3.0 * x)
        whole = ex.quad_adaptive(f, a, c, tol)
        split = ex.quad_adaptive(f, a, b, tol) + ex.quad_adaptive(f, b, c, tol)
        assert abs(whole - split) <= 2.0 * tol


def test_quadrature_rejects_nonfinite_samples():
    diverging = lambda x: 1.0 / x if x != 0.0 else math.inf
    with pytest.raises(ex.QuadratureError):
        ex.quad_adaptive(diverging, 0.0, 1.0, 1e-10)


def test_quadrature_depth_limit():
    # step discontinuity placed at an irrational point defeats subdivision
    step = lambda x: 0.0 if x < 1.0 / math.sqrt(2.0) else 1.0
    with pytest.raises(ex.QuadratureError):
        ex.quad_adaptive(step, 0.0, 1.0, 1e-14)


def test_quadrature_validates_arguments():
    with pytest.raises(ValueError):
        ex.quad_adaptive(math.sin, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ex.quad_adaptive(math.sin, 0.0, math.inf, 1e-8)


def _outcome(fn):
    """The exact bits of a result, or the type and message of its error."""
    try:
        return struct.pack("<d", fn())
    except ex.ExprError as exc:
        return type(exc), str(exc)


def _same_as_evaluate(tree, names, vals):
    compiled = ex.compile(tree, names)
    expected = _outcome(lambda: ex.evaluate(tree, dict(zip(names, vals))))
    assert _outcome(lambda: compiled(*vals)) == expected, ex.to_text(tree)
    if isinstance(expected, bytes):
        assert type(compiled(*vals)) is float
    return expected


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_compiled_tree_and_partial_match_evaluate_bit_for_bit(seed):
    rng = random.Random(seed)
    tree, bindings, var = evaluable_tree(rng)
    vals = [bindings[name] for name in VARS]
    for expr in (tree, ex.differentiate(tree, var)):
        assert isinstance(_same_as_evaluate(expr, VARS, vals), bytes)


_signed = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e3, max_value=1e3)
# literals of either sign, signed zeros and infinities; the parser makes
# none of these, differentiate makes negative ones
_any_literal = st.floats(allow_nan=False).map(Num)
_signed_trees = st.recursive(st.one_of(_any_literal, _names.map(Var)), _extend, max_leaves=25)


@given(_signed_trees, st.lists(_signed, min_size=5, max_size=5), st.booleans())
@settings(max_examples=400, deadline=None)
def test_compiled_tree_matches_evaluate_or_raises_the_same_error(tree, vals, as_numpy):
    # signed zeros, domain failures and numpy scalars included
    names = ("theta", "r", "t", "alpha", "rbar")
    if as_numpy:
        vals = [np.float64(x) for x in vals]
    _same_as_evaluate(tree, names, vals)


_EXPRESSION_KEYS = {"g", "f", "phi", "psi", "chi", "potential", "phi_override",
                    "casimir_potential"}


def _config_expressions(node):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _config_expressions(value)
        elif key in _EXPRESSION_KEYS:
            yield value


_CONFIG_TEXTS = sorted({
    text
    for path in (Path(__file__).parent.parent / "configs").glob("*.json")
    for text in _config_expressions(json.loads(path.read_text()))
})


@pytest.mark.parametrize("text", _CONFIG_TEXTS)
def test_compiled_config_expressions_match_evaluate(text):
    tree = ex.parse(text)
    names = ("theta", "r", "t", "alpha", "rbar")
    rng = random.Random(text)
    for _ in range(50):
        bindings = random_bindings(rng)
        bindings["rbar"] = rng.uniform(0.3, 2.5)
        vals = [bindings[name] for name in names]
        for expr in [tree] + [ex.differentiate(tree, var) for var in names]:
            _same_as_evaluate(expr, names, vals)


@pytest.mark.parametrize(
    "text,names,vals,error",
    [
        ("ln(-1)", (), (), ex.DomainError),
        ("x/0", ("x",), (np.float64(0.0),), ex.DomainError),
        ("(-8)^(1/3)", (), (), ex.DomainError),
        ("exp(1000)", (), (), ex.DomainError),
        ("0^-1", (), (), ex.DomainError),
        ("x + y", ("x",), (1.0,), ex.EvalError),
    ],
)
def test_compiled_domain_errors_match_evaluate(text, names, vals, error):
    outcome = _same_as_evaluate(ex.parse(text), names, list(vals))
    assert outcome[0] is error
