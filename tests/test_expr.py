import contextlib
import functools
import heapq
import itertools
import json
import math
import operator
import random
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ermakov import expr as ex
from ermakov import systems
from ermakov.expr import Binary, Num, Unary, Var
from ermakov.systems import Class2Phi, FuncHandle, Potential

from helpers import (
    VARS,
    deepest_at_bound,
    evaluable_tree,
    random_bindings,
    reference_differentiate,
    reference_gk21,
    trusted_central_difference,
)


def test_parse_builds_expected_tree():
    tree = ex.parse("2*theta + 1")
    assert tree == Binary("+", Binary("*", Num(2.0), Var("theta")), Num(1.0))


def test_nodes_compare_hash_and_print_by_type_and_fields():
    tree = ex.parse("2*sin(theta) + 1")
    same = Binary("+", Binary("*", Num(2.0), Unary("sin", Var("theta"))), Num(1.0))
    assert tree == same and hash(tree) == hash(same)
    assert tree != ex.parse("2*sin(theta) + 2")
    assert Num(1.0) != Var("r") and Num(1.0) != (1.0,)
    assert repr(Num(1.0)) == "Num(value=1.0)"
    assert repr(Unary("neg", Var("r"))) == "Unary(op='neg', arg=Var(name='r'))"
    with pytest.raises(AttributeError):
        tree.op = "-"
    with pytest.raises(TypeError):
        Num()
    # a node holds its fields and its hash, and no per-object cache
    ex.compile(tree, ("theta",))
    assert not hasattr(tree, "__dict__") and tree == same


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
        # past MAX_DEPTH = 32: nesting fails where it opens level 33, and a
        # tree too deep, found after the parse, at offset 0
        ("(" * 33 + "r" + ")" * 33, 32),
        ("-" * 33 + "r", 32),
        ("+".join(["r"] * 33), 0),
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


def _under_frames(n, fn):
    return fn() if n == 0 else _under_frames(n - 1, fn)


@pytest.mark.parametrize("tree", deepest_at_bound("rbar"), ids=("powers", "quotients", "tan"))
def test_every_walker_handles_a_tree_at_the_depth_bound(monkeypatch, tree):
    text = ex.to_text(tree)
    assert ex.parse(text) == tree
    with pytest.raises(ex.ParseError, match=f"deeper than {ex.MAX_DEPTH} levels"):
        ex.parse(f"sqrt({text})")
    # empty caches, so that each walker recurses the whole way down
    monkeypatch.setattr(ex, "_derivative", functools.lru_cache(4096)(ex._derivative.__wrapped__))
    monkeypatch.setattr(ex, "_maker", functools.lru_cache(1024)(ex._maker.__wrapped__))

    def walk():
        first = ex.differentiate(tree, "rbar")
        for e in (tree, first, ex.differentiate(first, "rbar")):
            ex.compile(e, ("rbar",))
            with contextlib.suppress(ex.ExprError):
                ex.evaluate(e, {"rbar": 0.7})
            ex.to_text(e)
            copy = ex.substitute(e, "rbar", Var("rbar"))
            assert copy is not e and copy == e

    # the commands call the walkers from under 20 frames; pytest adds ~50
    _under_frames(150, walk)


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
    # every subtree free of the variable derives to one shared zero
    assert d == Num(0.0) and d is ex.differentiate(ex.parse("r + 2"), "t")


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


def test_substitute_keeps_the_subtrees_without_the_variable():
    tree = ex.parse("sin(theta)*r + t^2")
    assert ex.substitute(tree, "alpha", ex.parse("1/r")) is tree
    replaced = ex.substitute(tree, "t", ex.parse("1/r"))
    assert replaced.left is tree.left
    assert replaced.right.right is tree.right.right
    assert replaced == ex.parse("sin(theta)*r + (1/r)^2")


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
    # a pole at an irrational point: |K21 - G10| on the panels around it
    # does not shrink with the panel, so no subdivision converges
    pole = 1.0 / math.sqrt(2.0)
    f = lambda x: 0.0 if x == pole else 1.0 / (x - pole)
    with pytest.raises(ex.QuadratureError) as raised:
        ex.quad_adaptive(f, 0.0, 1.0, 1e-10)
    message = str(raised.value)
    assert message.startswith("subdivision limit 50 reached on [")
    assert message.endswith("] before tolerance was met")
    lo, hi = (float(x) for x in message.split("[")[1].split("]")[0].split(", "))
    # the panel given up on is 50 halvings deep, next to the pole
    assert hi - lo == 2.0**-50
    assert lo - 2.0**-49 <= pole <= hi + 2.0**-49


def _counted(f):
    calls = [0]

    def counting(x):
        calls[0] += 1
        return f(x)

    return counting, calls


def test_gauss_kronrod_table_integrates_monomials_exactly():
    # a node or weight wrong in its first 14 digits breaks a moment
    nodes, kronrod, gauss = ex._GK21_NODES, ex._K21_WEIGHTS, ex._G10_WEIGHTS
    for k in range(0, 32, 2):  # odd moments vanish by symmetry
        exact = 2.0 / (k + 1)
        k21 = kronrod[0] * nodes[0] ** k + 2.0 * sum(
            w * x**k for w, x in zip(kronrod[1:], nodes[1:])
        )
        assert k21 == pytest.approx(exact, rel=2e-15, abs=0.0)
        if k <= 19:
            g10 = 2.0 * sum(w * x**k for w, x in zip(gauss, nodes[1::2]))
            assert g10 == pytest.approx(exact, rel=2e-15, abs=0.0)


def test_quadrature_one_panel_is_exact_to_degree_31():
    # K21 is exact to degree 31, G10 only to degree 19, so the degree-31
    # term shows in |K21 - G10| (4.9e-7 here) but not in the value
    f, calls = _counted(lambda x: 3.0 * x**31 - 2.0 * x**20 + x**7 - 1.0)
    val = ex.quad_adaptive(f, 0.0, 1.0, 1e-6)
    exact = 3.0 / 32.0 - 2.0 / 21.0 + 1.0 / 8.0 - 1.0
    assert calls[0] == 21
    assert abs(val - exact) <= 4.0 * sys.float_info.epsilon * abs(exact)
    # within the Gauss degree one panel also meets a tight tolerance
    f, calls = _counted(lambda x: x**19 - 3.0 * x**17 + x)
    val = ex.quad_adaptive(f, -0.5, 1.5, 1e-13)
    exact = (1.5**20 - 0.5**20) / 20.0 - 3.0 * (1.5**18 - 0.5**18) / 18.0 + 1.0
    assert calls[0] == 21
    assert abs(val - exact) <= 4.0 * sys.float_info.epsilon * abs(exact)


@pytest.mark.parametrize(
    "f, a, b, exact",
    [
        (lambda x: 1.0 / (1.0 + 100.0 * x * x), -1.0, 2.0, (math.atan(20.0) + math.atan(10.0)) / 10.0),
        (lambda x: math.cos(50.0 * x), 0.0, 3.0, math.sin(150.0) / 50.0),
        (lambda x: math.exp(-x) * math.sin(40.0 * x), 0.0, 2.0,
         (40.0 - math.exp(-2.0) * (math.sin(80.0) + 40.0 * math.cos(80.0))) / 1601.0),
    ],
    ids=["peaked", "oscillatory", "damped-oscillatory"],
)
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_quadrature_meets_its_tolerance(f, a, b, exact, tol):
    assert abs(ex.quad_adaptive(f, a, b, tol) - exact) <= tol


def test_quadrature_panel_limit():
    # past its first 1,000 panels the rounding in |K21 - G10| over the
    # whole interval (about eps * 1e4) still exceeds tol, yet no single
    # panel is down to its rounding floor, so the panel limit ends it
    f, calls = _counted(lambda x: 1.0 + 0.5 * math.sin(x))
    with pytest.raises(ex.QuadratureError) as raised:
        ex.quad_adaptive(f, 0.0, 1e4, 1e-14)
    assert str(raised.value) == (
        f"panel limit {ex._QUAD_MAX_PANELS} reached on [0.0, 10000.0] "
        f"before tolerance was met"
    )
    assert calls[0] == 21 * (2 * ex._QUAD_MAX_PANELS - 1)


@pytest.mark.parametrize(
    "f, a, b, exact, max_samples",
    [
        (lambda x: 10.0 + math.sin(3.0 * x), 0.0, 1.0, 10.0 + (1.0 - math.cos(3.0)) / 3.0, 21),
        (lambda x: 1.0 / (1.0 + 100.0 * x * x), -1.0, 2.0,
         (math.atan(20.0) + math.atan(10.0)) / 10.0, 21 * 50),
    ],
    ids=["smooth", "peaked"],
)
def test_quadrature_stops_at_rounding_level(f, a, b, exact, max_samples):
    # a tol below what doubles resolve ends at the rounding floor, not at
    # a limit, with the value as good as a tolerance that can be met
    f, calls = _counted(f)
    val = ex.quad_adaptive(f, a, b, 1e-18)
    assert abs(val - exact) <= 4.0 * sys.float_info.epsilon * abs(exact)
    assert calls[0] <= max_samples


def _reference_gk(f, a, b, tol):
    """quad_adaptive's loop with the panels' errors summed by math.fsum
    at every step: its value, its panel count and each step's error sum."""
    sample = lambda x: float(f(x))
    gk21 = ex._gk21_panel()
    panels = [gk21(sample, a, b, 0)]
    sums = [-panels[0][0]]
    while sums[-1] > tol:
        neg_err, depth, lo, hi, _, samples = heapq.heappop(panels)
        floor = ex._ROUNDOFF_UNITS * sys.float_info.epsilon * ex._abs_integral(lo, hi, samples)
        if -neg_err <= floor:
            break
        mid = 0.5 * (lo + hi)
        heapq.heappush(panels, gk21(sample, lo, mid, depth + 1))
        heapq.heappush(panels, gk21(sample, mid, hi, depth + 1))
        sums.append(math.fsum(-p[0] for p in panels))
    return math.fsum(p[4] for p in panels), len(panels), sums


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: 1.0 / (1.0 + 100.0 * x * x), -1.0, 2.0),
        (lambda x: math.cos(50.0 * x), 0.0, 3.0),
        (lambda x: math.sqrt(abs(x - 0.3)), 0.0, 1.0),
    ],
    ids=["peaked", "oscillatory", "cusp"],
)
def test_running_error_sum_stops_where_the_exact_sum_does(f, a, b):
    # a tol equal to the exact error sum after some step stops there: the
    # running sum of the errors has not drifted across it
    _, _, sums = _reference_gk(f, a, b, 1e-14)
    for tol in sums[1:]:
        counted, calls = _counted(f)
        val = ex.quad_adaptive(counted, a, b, tol)
        reference, panels, _ = _reference_gk(f, a, b, tol)
        assert val == reference
        assert calls[0] == 21 * (2 * panels - 1)


def _panel_outcome(panel, f, lo, hi):
    """A panel's exact bits (repr keeps signed zeros), or its error."""
    try:
        return repr(panel(f, lo, hi, 7))
    except Exception as exc:
        return type(exc), str(exc)


def test_generated_gk21_matches_reference_panel():
    rng = random.Random(20260823)
    families = [
        lambda c: lambda x: c[0] + c[1] * x + c[2] * math.sin(c[3] * x),  # sign-changing
        lambda c: lambda x: c[0] * math.exp(-c[1] * x * x),
        lambda c: lambda x: 1e300 * c[0] * math.cos(c[1] * x),
        lambda c: lambda x: 5e-324 * round(c[0] * 4.0) + 1e-310 * c[1] * x,  # subnormal
        lambda c: lambda x: -0.0 if c[0] > 0.0 else x * 0.0,  # signed zeros
    ]
    widths = (0.0, 5e-324, 1e-300, 1e-12, 1e-3, 1.0, 7.0)
    for n in range(20000):
        c = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        f = families[n % len(families)](c)
        lo = rng.choice((-0.0, 0.0, rng.uniform(-4.0, 4.0), 1e300 * c[0]))
        hi = lo + rng.choice(widths) * rng.random()
        expected = _panel_outcome(reference_gk21, f, lo, hi)
        assert _panel_outcome(ex._gk21_panel(), f, lo, hi) == expected, (n, lo, hi)


@pytest.mark.parametrize(
    "bad, boom",
    [(0, 1), (3, 15), (11, 12), (20, 1), (14, 3), (1, None), (None, 20)],
)
def test_generated_gk21_faults_in_the_reference_order(bad, boom):
    # samples run centre, the left nodes, the right nodes: the first of a
    # non-finite value (at index bad) and a raise (at index boom) wins
    def make(values):
        def f(x):
            if len(values) == boom:
                raise ZeroDivisionError(f"boom at {x!r}")
            values.append(x)
            return math.inf if len(values) - 1 == bad else math.cos(x)

        return f

    seen, expected_seen = [], []
    outcome = _panel_outcome(ex._gk21_panel(), make(seen), 0.25, 1.5)
    assert outcome == _panel_outcome(reference_gk21, make(expected_seen), 0.25, 1.5)
    assert seen == expected_seen  # no sample is taken twice or after the fault
    first = min(i for i in (bad, boom) if i is not None)
    assert outcome[0] is (ex.QuadratureError if first == bad else ZeroDivisionError)
    if first == bad:
        assert outcome[1].startswith("non-finite integrand value inf at lambda=")


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


@given(_signed_trees, st.lists(_signed, min_size=5, max_size=5), _signed_trees, _signed)
# 0 * inf: a NaN result, which no == comparison matches
@example(
    Binary("*", Num(0.0), Binary("*", Num(4.18e16), Num(4.31e291))), [0.0] * 5, Num(1.0), 0.0
)
@settings(max_examples=300, deadline=None)
def test_bound_compile_matches_evaluate_and_replays_at_its_guards(tree, vals, guard, m):
    # (theta, r, t) bound once, (alpha, rbar) per call; where an operation
    # raises or |guard| <= m the replay gets the values, args first
    args, bound = ("alpha", "rbar"), ("theta", "r", "t")
    bindings = dict(zip(args + bound, vals))
    bind = ex.compile(tree, args, bound, [(guard, m)])
    expected = _outcome(lambda: ex.evaluate(tree, bindings))
    fn = bind(*vals[2:])
    assert _outcome(lambda: fn(*vals[:2])) == expected, ex.to_text(tree)
    replayed = bind(*vals[2:], replay=lambda *values: values)(*vals[:2])
    try:
        faults = not isinstance(expected, bytes) or abs(ex.evaluate(guard, bindings)) <= m
    except ex.ExprError:
        faults = True  # a guard that faults replays as well
    if faults:
        assert replayed == tuple(vals)
    else:  # bit for bit, so that a NaN matches and -0.0 does not match 0.0
        assert _outcome(lambda: replayed) == expected, ex.to_text(tree)


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


def test_signed_zeros_are_different_trees_and_lower_apart():
    # 0.0 == -0.0, but x + 0.0 is +0.0 at x = -0.0 and x + -0.0 is -0.0:
    # the lowered code is kept by value, so the two values must not meet
    plus, minus = (Binary("+", Var("x"), Num(zero)) for zero in (0.0, -0.0))
    assert plus != minus and Num(0.0) != Num(-0.0) and Num(1) == Num(1.0)
    assert math.copysign(1.0, ex.compile(plus, ("x",))(-0.0)) == 1.0
    value = ex.compile(minus, ("x",))(-0.0)
    assert math.copysign(1.0, value) == -1.0
    assert struct.pack("<d", value) == struct.pack("<d", ex.evaluate(minus, {"x": -0.0}))


def test_equal_trees_share_lowered_code_and_derivatives():
    first, second = ex.parse("sin(x)*x^3 + 0.75"), ex.parse("sin(x)*x^3 + 0.75")
    assert first is not second and hash(first) == hash(second)
    assert ex.compile(first, ("x",)).__code__ is ex.compile(second, ("x",)).__code__
    assert ex.differentiate(first, "x") is ex.differentiate(second, "x")
    # the subtrees' derivatives are kept too, and are the same objects: the
    # constant term drops out, and where both terms hold x each is shared
    assert ex.differentiate(first, "x") is ex.differentiate(first.left, "x")
    both = ex.parse("sin(x)*x^3 + x^2")
    assert ex.differentiate(both, "x").left is ex.differentiate(first.left, "x")
    assert ex.differentiate(both, "x").right is ex.differentiate(both.right, "x")


# the couplings of the shipped configs, of the report-digest variants and
# of the other test files: class-1 phis, class-2 psis and chis, potentials
_COUPLING_TEXTS = (
    "0", "-r/alpha", "sin(theta)*alpha", "r^2*t", "-1/(alpha*r^3)", "alpha*r",
    "r^2*t - 3*alpha", "1 + alpha^2*r - theta*alpha^3*r^2", "r*theta", "0.5+r",
    "0.1*r*sin(theta)+t", "(1e154*r)*(1e154*r) - (1e154*r)*(1e154*r)",
)
_PSI_TEXTS = (
    "1", "2", "1+alpha^2", "1+alpha^2*r", "1+alpha^2*r+0.1*alpha*sin(theta)",
    "1+alpha+alpha^2*r", "2+alpha*ln(r+alpha)+0.2*cos(theta)*t",
)
_POTENTIAL_TEXTS = ("1/(2*rbar^2)", "1/(2*rbar^2) + 0.1*rbar", "1/(2*rbar^2) - 0.3*rbar")
_ALL_VARS = VARS + ("rbar",)


def _integrand_trees(psi_text: str) -> tuple:
    """Class2Phi's integrand tree for psi, built from differentiate's psi
    partials, and from the reference's, as it was built before
    differentiate dropped dead terms."""
    psi = ex.parse(psi_text)

    def build(derive):
        tree = systems._INTEGRAND["theta" in ex.free_vars(psi)]
        for name, sub in (("psi_r", derive(psi, "r")), ("psi_theta", derive(psi, "theta"))):
            tree = ex.substitute(tree, name, sub)
        return ex.substitute(tree, "psi", psi)

    return build(ex.differentiate), build(reference_differentiate)


def _derived_pairs():
    """(simplified, reference) derivative trees: first and second partials
    of the coupling trees, the spiral's phi and the class-2 integrands."""
    trees = [ex.parse(text) for text in _COUPLING_TEXTS + _PSI_TEXTS + _POTENTIAL_TEXTS]
    trees += [Potential(ex.parse(text)).phi.tree for text in _POTENTIAL_TEXTS]
    pairs = [(tree, tree) for tree in trees]
    for psi_text in _PSI_TEXTS:
        new, reference = _integrand_trees(psi_text)
        assert new == Class2Phi(FuncHandle.from_text(psi_text))._integrand_tree()
        pairs.append((new, reference))
    out = []
    for new, reference in pairs:
        for var in _ALL_VARS:
            first = (ex.differentiate(new, var), reference_differentiate(reference, var))
            out.append(first)
            out += [(ex.differentiate(first[0], v), reference_differentiate(first[1], v))
                    for v in _ALL_VARS]
    return out


def _same_value_where_reference_is_finite(new, reference, bindings) -> bool:
    """Whether the reference derivative is finite there; if it is and not
    zero, the simplified one has its bits, and if zero, it is a zero."""
    try:
        want = ex.evaluate(reference, bindings)
    except ex.ExprError:
        return False
    if not math.isfinite(want):
        return False
    got = ex.evaluate(new, bindings)
    if want == 0.0:
        assert got == 0.0, (ex.to_text(reference), bindings)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want), (ex.to_text(reference), bindings)
    return True


def _wide_bindings(rng: random.Random) -> dict:
    return {name: rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 3.0) for name in _ALL_VARS}


def test_simplified_derivatives_keep_the_reference_bits():
    rng = random.Random(2020)
    checked = 0
    for _ in range(300):
        tree, bindings, _ = evaluable_tree(rng)
        bindings["rbar"] = 1.3
        points = [bindings] + [_wide_bindings(rng) for _ in range(3)]
        for v in VARS:
            new, reference = ex.differentiate(tree, v), reference_differentiate(tree, v)
            checked += sum(_same_value_where_reference_is_finite(new, reference, b) for b in points)
    for new, reference in _derived_pairs():
        points = [_wide_bindings(rng) for _ in range(8)]
        checked += sum(_same_value_where_reference_is_finite(new, reference, b) for b in points)
    assert checked > 10000


@given(_signed_trees, st.lists(_signed, min_size=5, max_size=5))
@settings(max_examples=300, deadline=None)
def test_simplified_derivatives_keep_the_reference_bits_on_any_literals(tree, vals):
    # negative literals, signed zeros and infinities in the tree
    bindings = dict(zip(_ALL_VARS, vals))
    for var in _ALL_VARS:
        new, reference = ex.differentiate(tree, var), reference_differentiate(tree, var)
        _same_value_where_reference_is_finite(new, reference, bindings)


def _nodes(e) -> int:
    if isinstance(e, (Num, Var)):
        return 1
    if isinstance(e, Unary):
        return 1 + _nodes(e.arg)
    return 1 + _nodes(e.left) + _nodes(e.right)


def test_derivatives_carry_no_dead_terms():
    phi = Class2Phi(FuncHandle.from_text("1+alpha^2*r"))
    tree = phi._integrand_tree()
    sources = [
        ex._lower(tree, ("alpha",), ("r", "theta", "t"), ((phi.psi.tree, phi.psi_min),)),
        ex._lower(ex.differentiate(tree, "r"), ("alpha",), ("r", "theta", "t")),
    ]
    for source in sources:
        for dead in (r"\* 0\.0\b", r"\* 1\.0\b", r"\b0\.0 \+", r"_pow\(\w+, 1\.0\)"):
            assert not re.search(dead, source), (dead, source)
    # the integrand's sample function does 8 operations
    assert sum(" = " in line and "float(" not in line for line in sources[0].splitlines()) == 8
    spiral_phi = Potential(ex.parse("1/(2*rbar^2)")).phi
    assert _nodes(spiral_phi.tree) < 30
    assert _nodes(spiral_phi.partial("alpha").tree) < 40
    assert _nodes(spiral_phi.partial("r").tree) < 120
    assert spiral_phi.partial("theta").tree == Num(0.0)


_SYMPY_NAMES = {"ln": "log", "abs": "Abs"}
_SYMPY_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": operator.pow,
}


def _to_sympy(sympy, e):
    """The tree as a sympy expression: exact rationals for the literals,
    real symbols for the variables."""
    if isinstance(e, Num):
        return sympy.Rational(repr(e.value))
    if isinstance(e, Var):
        return sympy.Symbol(e.name, real=True)
    if isinstance(e, Unary):
        arg = _to_sympy(sympy, e.arg)
        return -arg if e.op == "neg" else getattr(sympy, _SYMPY_NAMES.get(e.op, e.op))(arg)
    return _SYMPY_BINARY[e.op](_to_sympy(sympy, e.left), _to_sympy(sympy, e.right))


def _vanishes(sympy, difference) -> bool:
    """Whether difference simplifies to 0, or, where sympy does not see
    that |f| |f| = f^2, to 0 on each region of fixed signs of the abs()
    arguments: each |f| replaced by s f, for every choice of s = +-1."""
    if sympy.simplify(difference) == 0:
        return True
    signs = {}
    signed = difference.replace(
        sympy.Abs, lambda f: signs.setdefault(f, sympy.Symbol(f"s{len(signs)}")) * f
    )
    return all(
        sympy.simplify(signed.subs(dict(zip(signs.values(), choice)))) == 0
        for choice in itertools.product((1, -1), repeat=len(signs))
    )


def test_derivatives_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    trees = [ex.parse(text) for text in _PSI_TEXTS + _POTENTIAL_TEXTS]
    trees += [Potential(ex.parse("1/(2*rbar^2)")).phi.tree]
    trees += [_integrand_trees(text)[0] for text in _PSI_TEXTS]
    rng = random.Random(5)
    trees += [evaluable_tree(rng)[0] for _ in range(40)]
    for tree in trees:
        symbolic = _to_sympy(sympy, tree)
        # t, which most of the trees lack, checks the structural zero too
        for var in sorted(ex.free_vars(tree) | {"t"}):
            # differentiate writes d|f| as f/|f| df, where sympy writes sign(f) df
            expected = sympy.diff(symbolic, sympy.Symbol(var, real=True))
            expected = expected.replace(sympy.sign, lambda f: f / sympy.Abs(f))
            ours = _to_sympy(sympy, ex.differentiate(tree, var))
            assert _vanishes(sympy, ours - expected), (ex.to_text(tree), var)
