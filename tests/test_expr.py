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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ermakov import expr as ex
from ermakov import systems
from ermakov.expr import Binary, Num, Unary, Var
from ermakov.systems import Class2Phi, FuncHandle, Potential, SingularStateError

from helpers import (
    VARS,
    class2_integrand_partial,
    deepest_at_bound,
    evaluable_tree,
    random_bindings,
    random_tree,
    reference_abs_integral,
    reference_differentiate,
    reference_gk21,
    trusted_central_difference,
)

np = pytest.importorskip("numpy")


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



# a constant tiny negative integrand on a tiny interval: one panel meets
# any tol, and its K21 underflows to -0.0
_NEGATIVE_ZERO_K21 = (lambda x: -1e-310, 0.0, 2e-20)


def test_a_one_panel_result_is_its_k21_as_fsum_gives_it():
    f, a, b = _NEGATIVE_ZERO_K21
    panel = ex._gk21_panel()(f, a, b, 0)
    assert panel[4].hex() == "-0x0.0p+0" and -panel[0] <= 1e-12
    # math.fsum of the one K21 turns -0.0 into 0.0
    assert ex.quad_adaptive(f, a, b, 1e-12).hex() == "0x0.0p+0"
    counted, calls = _counted(math.sin)
    panel = ex._gk21_panel()(math.sin, 0.1, 0.6, 0)
    assert ex.quad_adaptive(counted, 0.1, 0.6, 1e-6).hex() == panel[4].hex()
    assert calls[0] == 21


@pytest.mark.parametrize(
    "f, a, b, tol",
    [
        (math.sin, 0.1, 0.6, 1e-6),
        (lambda x: 1.0 / (1.0 + 100.0 * x * x), -1.0, 2.0, 1e-12),
        (lambda x: math.sin(50.0 * x), -3.0, 3.0, 1e-12),
        (lambda x: 0.0, 0.0, 1.0, 1e-12),
        (*_NEGATIVE_ZERO_K21, 1e-12),
    ],
    ids=["one-panel", "peaked", "odd", "zero", "negative-zero-k21"],
)
def test_reversed_bounds_negate_the_integral_bit_for_bit(f, a, b, tol):
    fwd = ex.quad_adaptive(f, a, b, tol)
    assert ex.quad_adaptive(f, b, a, tol).hex() == (-fwd).hex()
    if fwd == 0.0:  # a zero integral taken backwards is -0.0
        assert ex.quad_adaptive(f, b, a, tol).hex() == "-0x0.0p+0"


def test_reversed_bounds_name_the_interval_in_ascending_order():
    with pytest.raises(ex.QuadratureError) as raised:
        ex.quad_adaptive(lambda x: 1.0 + 0.5 * math.sin(x), 1e4, 0.0, 1e-14)
    assert str(raised.value) == (
        f"panel limit {ex._QUAD_MAX_PANELS} reached on [0.0, 10000.0] "
        f"before tolerance was met"
    )
    pole = 1.0 / math.sqrt(2.0)
    f = lambda x: 0.0 if x == pole else 1.0 / (x - pole)
    with pytest.raises(ex.QuadratureError) as raised:
        ex.quad_adaptive(f, 1.0, 0.0, 1e-10)
    lo, hi = (float(x) for x in str(raised.value).split("[")[1].split("]")[0].split(", "))
    assert hi - lo == 2.0**-50


def test_abs_integral_matches_the_generator_sum_bit_for_bit():
    rng = random.Random(11)
    magnitudes = (0.0, 5e-324, 1e-310, 1e-12, 1.0, 3.7, 1e150, 1e300)

    def sample():
        return rng.choice((-1.0, 1.0)) * rng.choice(magnitudes) * rng.uniform(0.5, 2.0)

    for _ in range(3000):
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + rng.choice((1e-13, 1e-3, 0.7, 9.0))
        samples = (sample(), [sample() for _ in range(10)], [sample() for _ in range(10)])
        want = reference_abs_integral(lo, hi, samples)
        assert ex._abs_integral(lo, hi, samples).hex() == want.hex()

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


def _panel_nodes(lo, hi) -> list:
    """A panel's nodes on [lo, hi] in the order sampled."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid, *(mid - half * x for x in ex._GK21_NODES[1:]),
            *(mid + half * x for x in ex._GK21_NODES[1:])]


def _fused_and_generic(f, lo, hi):
    """The outcomes of f's fused panel (the generic one where f has none)
    and of the generic panel, on [lo, hi]."""
    panel = getattr(f, "gk21", ex._gk21_panel())
    return _panel_outcome(panel, f, lo, hi), _panel_outcome(ex._gk21_panel(), f, lo, hi)


# (psi, chi, lam0, psi_min) of the class-2 documents of the report-digest
# tool: alpha and r, a nonzero lam0, a chi with a floor psi crosses, a
# theta-dependent psi (its 1/lambda term) and an exp that overflows
# near lambda = 0
_PANEL_POOL = [
    ("1+alpha^2*r", None, 0.0, 1e-12),
    ("1+alpha^2*r", None, 0.3, 1e-12),
    ("1+alpha+alpha^2*r", "0.1*r*sin(theta)+t", 0.0, 0.8),
    ("1+alpha^2*r+0.1*alpha*sin(theta)", None, 0.3, 1e-12),
    ("1+alpha^2*r+exp(0.05*r/alpha^2)", None, 0.0, 1e-12),
]


def test_fused_gk21_matches_generic_panel_on_class2_integrands():
    seen = set()
    for text, chi, lam0, psi_min in _PANEL_POOL:
        chi = None if chi is None else ex.parse(chi)
        phi = Class2Phi(FuncHandle.from_text(text), chi, lam0=lam0, psi_min=psi_min)
        binds = [phi._lower(), *(class2_integrand_partial(phi, var) for var in ("r", "theta"))]
        rng = random.Random(text)
        for n in range(600):
            r, theta, t = rng.uniform(0.5, 3.0), rng.uniform(-3.2, 3.2), rng.uniform(0.0, 2.0)
            width = rng.choice((1e-3, 0.3, 2.0, 4.0))
            # a panel symmetric about 0 samples lambda = 0 at its centre
            lo = -0.5 * width if n % 7 == 0 else lam0 + rng.uniform(-4.0, 4.0)
            for bind in filter(None, binds):
                f = bind(r, theta, t, replay=phi._integrand) if bind is binds[0] else bind(r, theta, t)
                assert hasattr(f, "gk21")
                fused, generic = _fused_and_generic(f, lo, lo + width)
                assert fused == generic, (text, r, theta, t, lo, width)
                seen.add(fused[0] if isinstance(fused, tuple) else "panel")
    # every fault was reached: the psi floor (SingularStateError), lambda = 0
    # (ZeroDivisionError), the overflow (DomainError) and a non-finite sample
    assert seen == {
        "panel", SingularStateError, ZeroDivisionError, ex.DomainError, ex.QuadratureError
    }


def test_fused_gk21_matches_generic_panel_on_random_integrands():
    rng = random.Random(22)
    fused_panels = 0
    for n in range(300):
        tree = random_tree(rng, 4)
        guards = [((Var("alpha"), 0.0), (random_tree(rng, 2), 0.5))[n % 2]] if n % 3 else []
        bind = ex.compile(tree, ("alpha",), ("r", "theta", "t"), guards)
        for r in (0.0, -0.0, 1e300, rng.uniform(-3.0, 3.0)):
            f = bind(r, rng.uniform(-3.0, 3.0), rng.choice((0.0, 1e200, rng.uniform(0.0, 2.0))))
            lo = rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0)))
            fused, generic = _fused_and_generic(f, lo, lo + rng.choice((1e-6, 0.5, 3.0)))
            assert fused == generic, (ex.to_text(tree), guards, r, lo)
            fused_panels += hasattr(f, "gk21")
    assert fused_panels > 600


def _recording_replay(seen, boom):
    def replay(alpha, r, theta, t):
        if len(seen) == boom:
            raise ZeroDivisionError(f"boom at {alpha!r}")
        seen.append(alpha)
        return math.cos(alpha)

    return replay


# (integrand, guards, r, theta, boom, replayed nodes, error): an integer r
# or theta is the node of that index; the nodes run centre, left, right
@pytest.mark.parametrize(
    "text, guards, r, theta, boom, replayed, error",
    [
        ("ln(alpha - r)", (), 14, 0.0, None, range(15), None),  # raises up to node 14
        ("ln(alpha - r)", (), 14, 0.0, 5, range(5), ZeroDivisionError),
        ("cos(alpha)", (("alpha - r", 1e-9),), 17, 0.0, None, [17], None),  # a guard at 17
        ("r * alpha", (), 1.7e308, 0.0, None, [], ex.QuadratureError),  # inf from node 12 on
        # a guard hit (node 5) before the first non-finite sample (node 12)
        ("r * alpha", (("alpha - theta", 1e-9),), 1.7e308, 5, None, [5], ex.QuadratureError),
        ("r * alpha", (("alpha - theta", 1e-9),), 1.7e308, 5, 0, [], ZeroDivisionError),
        ("alpha + 1/r", (), 0.0, 0.0, None, range(21), None),  # bind's 1/r raises
    ],
)
def test_fused_gk21_faults_in_the_generic_order(text, guards, r, theta, boom, replayed, error):
    # the fused panel gives up on the first fault and runs the generic
    # panel on the replaying f: the same replays, errors and messages
    lo, hi = 0.25, 1.5
    nodes = _panel_nodes(lo, hi)
    r, theta = (nodes[x] if isinstance(x, int) else x for x in (r, theta))
    guards = [(ex.parse(e), m) for e, m in guards]
    bind = ex.compile(ex.parse(text), ("alpha",), ("r", "theta", "t"), guards)
    seen, expected_seen = [], []
    fused = bind(r, theta, 0.0, replay=_recording_replay(seen, boom))
    generic = bind(r, theta, 0.0, replay=_recording_replay(expected_seen, boom))
    assert hasattr(fused, "gk21") == (r != 0.0)
    outcome = _panel_outcome(getattr(fused, "gk21", ex._gk21_panel()), fused, lo, hi)
    assert outcome == _panel_outcome(ex._gk21_panel(), generic, lo, hi)
    assert seen == expected_seen == [nodes[i] for i in replayed]
    assert isinstance(outcome, str) if error is None else outcome[0] is error
    if error is ex.QuadratureError:
        assert outcome[1] == f"non-finite integrand value inf at lambda={nodes[12]!r}"


def _overflowing_sums(x: float) -> float:
    """Finite everywhere, and 1e308 on [4, 6] and -1e308 off it."""
    return 1e308 if abs(x - 5.0) < 1.0 else -1e308


def test_generic_panel_raises_on_a_non_finite_sum():
    # every sample is finite but the panel's K21 and G10 sums are not,
    # which a quadrature took for a converged NaN
    message = re.escape("non-finite K21 or G10 sum on [0.0, 10.0]")
    for panel in (ex._gk21_panel(), reference_gk21):
        with pytest.raises(ex.QuadratureError, match=message):
            panel(_overflowing_sums, 0.0, 10.0, 0)
    for a, b in ((0.0, 10.0), (10.0, 0.0)):
        with pytest.raises(ex.QuadratureError, match=message):
            ex.quad_adaptive(_overflowing_sums, a, b, 1e-12)


def test_fused_panel_hands_a_non_finite_sum_to_the_generic_one():
    # 1e308*alpha is finite at every node of [0.5, 1.5], but its K21 is
    # not: the fused panel runs the generic one, which raises
    f = ex.compile(ex.parse("1e308*alpha"), ("alpha",), ("r",))(1.0)
    assert hasattr(f, "gk21")
    message = "non-finite K21 or G10 sum on [0.5, 1.5]"
    fused, generic = _fused_and_generic(f, 0.5, 1.5)
    assert fused == generic == (ex.QuadratureError, message)
    with pytest.raises(ex.QuadratureError, match=re.escape(message)):
        ex.quad_adaptive(f, 0.5, 1.5, 1e-12)


def test_a_wrapped_integrand_takes_the_generic_panel_with_the_same_bits(monkeypatch):
    # the benchmark's tracer counts samples through a plain wrapper
    phi = Class2Phi(FuncHandle.from_text("1+alpha^2*r"))
    bind, panels = phi._lower(), []
    # every bind's integrand is a method of one function, which holds gk21
    compiled = bind(1.3, 0.2, 0.0, replay=phi._integrand).__func__
    fused = compiled.gk21
    monkeypatch.setattr(compiled, "gk21", lambda *args: panels.append(args) or fused(*args))
    for alpha, r in ((0.7, 1.3), (-3.5, 0.6), (3.9, 2.9)):
        f = bind(r, 0.2, 0.0, replay=phi._integrand)
        panels[:] = []
        direct = ex.quad_adaptive(f, 0.0, alpha, 1e-14)
        wrapped, calls = _counted(f)
        assert ex.quad_adaptive(wrapped, 0.0, alpha, 1e-14).hex() == direct.hex()
        assert calls[0] == 21 * len(panels)
    assert len(panels) > 1


def _prelude(source: str) -> list:
    """The lines of ``bind``'s try: the bound work."""
    body = _function_body(source, "bind")
    return body[1 : body.index("except (ArithmeticError, ValueError):")]


def test_lowering_hoists_bound_work_and_literal_operations():
    for text in ("1+alpha^2*r", "1+alpha^2*r+0.1*alpha*sin(theta)",
                 "2+alpha*ln(r+alpha)+0.2*cos(theta)*t"):
        integrand, r_partial = _lowered_class2(text)
        assert "2.0 / x" in integrand
        assert any(x.endswith(" = 0.0 - 2.0") for x in _prelude(r_partial))
        for source in (integrand, r_partial):
            # each operation of the sample function reads a per-sample value
            per_sample = set()
            for line in _function_body(source, "compiled"):
                target, _, rhs = line.partition(" = ")
                if re.fullmatch(r"x\d+", target):
                    assert rhs.startswith("float(a") or per_sample & set(re.findall(r"x\d+", rhs))
                    per_sample.add(target)
    # an operation on literals alone is bound work: with bound names it runs
    # once in bind's prelude, never in compiled or the fused panel
    tree = ex.parse("x*(2-3) + sin(1)^2 - y*2^0.5")
    source = ex._lower(tree, ("x",), ("y",))
    prelude = _prelude(source)
    for rhs in ("2.0 - 3.0", "sin(1.0)", "_pow(2.0, 0.5)"):
        assert source.count(f" = {rhs}\n") == 1 and any(x.endswith(f" = {rhs}") for x in prelude)
    bind = ex.compile(tree, ("x",), ("y",))
    for x, y in ((0.5, 1.25), (-0.0, 3.0), (1e308, -2.0)):
        want = _outcome(lambda: ex.evaluate(tree, {"x": x, "y": y}))
        assert _outcome(lambda: bind(y)(x)) == want
    # with no bound names, every call computes them, to evaluate's bits;
    # one that raises or is not finite too
    for text in ("x*(2-3) + sin(1)^2 - 2^0.5", "x + ln(0-1)", "x + 1e308*10", "x*(1/0)",
                 "x + 0*(1e308*10)"):
        assert "x1 = " in ex._lower(ex.parse(text), ("x",)), text
        for x in (0.5, -0.0):
            _same_as_evaluate(ex.parse(text), ("x",), [x])
    # where bound-only work raises, bind does not: every call replays
    bind = ex.compile(ex.parse("alpha + 1/r"), ("alpha",), ("r",))
    f = bind(0.0)
    assert not hasattr(f, "gk21")
    with pytest.raises(ex.DomainError, match="division by zero"):
        f(0.5)
    assert bind(0.0, replay=lambda *values: values)(0.5) == (0.5, 0.0)
    assert bind(4.0)(0.5) == 0.75


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


_EXPRESSION_KEYS = {"g", "phi", "psi", "chi", "potential", "phi_override", "casimir_potential"}


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


def test_equal_text_parses_to_one_tree():
    # trees are immutable, so a reloaded config shares the trees it had
    assert ex.parse("sin(x)*x^3 + 0.75") is ex.parse("sin(x)*x^3 + 0.75")
    with pytest.raises(ex.ParseError):
        ex.parse("sin(x")
    with pytest.raises(ex.ParseError):  # a failure is not kept
        ex.parse("sin(x")


def test_equal_trees_share_lowered_code_and_derivatives():
    # equal trees from different text: the caches key by value
    first, second = ex.parse("sin(x)*x^3 + 0.75"), ex.parse("sin(x) * x^3 + 0.75")
    assert first is not second and first == second and hash(first) == hash(second)
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


def _lowers_to(tree, phi) -> bool:
    """Whether phi's lowered integrand is ``tree``'s: expr lowers an equal
    tree, with equal guards, to the same code object."""
    bind = ex.compile(tree, ("alpha",), ("r", "theta", "t"), ((phi.psi.tree, phi.psi_min),))
    return bind.__code__ is phi._lower().__code__


def _derived_pairs():
    """(simplified, reference) derivative trees: first and second partials
    of the coupling trees, the spiral's phi and the class-2 integrands."""
    trees = [ex.parse(text) for text in _COUPLING_TEXTS + _PSI_TEXTS + _POTENTIAL_TEXTS]
    trees += [Potential(ex.parse(text)).phi.tree for text in _POTENTIAL_TEXTS]
    pairs = [(tree, tree) for tree in trees]
    for psi_text in _PSI_TEXTS:
        new, reference = _integrand_trees(psi_text)
        assert _lowers_to(new, Class2Phi(FuncHandle.from_text(psi_text)))
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


def _lowered_class2(psi_text: str) -> list:
    """The bind-and-sample part (the source before the fused panel) of
    the lowered class-2 integrand of psi and of its r-partial."""
    phi = Class2Phi(FuncHandle.from_text(psi_text))
    tree = _integrand_trees(psi_text)[0]
    assert _lowers_to(tree, phi)
    sources = [
        ex._lower(tree, ("alpha",), ("r", "theta", "t"), ((phi.psi.tree, phi.psi_min),)),
        ex._lower(ex.differentiate(tree, "r"), ("alpha",), ("r", "theta", "t")),
    ]
    return [source[: source.index("def gk21(")] for source in sources]


def _function_body(source: str, name: str) -> list:
    """The lines of the (nested) function ``name`` in ``source``."""
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines) if line.lstrip().startswith(f"def {name}("))
    indent = len(lines[start]) - len(lines[start].lstrip())
    body = itertools.takewhile(lambda line: len(line) - len(line.lstrip()) > indent, lines[start + 1:])
    return [line.strip() for line in body]


def test_derivatives_carry_no_dead_terms():
    sources = _lowered_class2("1+alpha^2*r")
    for source in sources:
        for dead in (r"\* 0\.0\b", r"\* 1\.0\b", r"\b0\.0 \+", r"_pow\(\w+, 1\.0\)"):
            assert not re.search(dead, source), (dead, source)
    # the integrand's sample function does 7 operations (2/r is bound-only)
    # after it unpacks what bind holds
    unpack, *body = _function_body(sources[0], "compiled")
    assert unpack.endswith(" = bound")
    assert sum(" = " in line and "float(" not in line for line in body) == 7
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
