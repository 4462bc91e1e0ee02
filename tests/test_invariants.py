import math

import pytest
from scipy.integrate import quad as scipy_quad

from ermakov import expr as ex
from ermakov import invariants as inv
from ermakov.expr import DomainError
from ermakov.invariants import (
    I_CONVENTIONS,
    BranchError,
    c2_conventions,
    casimir_C1,
    casimir_C2,
    elapsed_time,
    ermakov_invariant,
    forcing_integral,
    grad_ermakov,
    h_of_theta,
    spiral_radius,
)
from ermakov.systems import PhaseState, Potential

from helpers import count_outermost_calls, spiral_start
from test_systems import OSC

np = pytest.importorskip("numpy")

ZERO = ex.parse("0")
SIN = ex.parse("sin(theta)")
LINEAR = Potential(ex.parse("rbar"))


@pytest.mark.parametrize("text", ["0", "0.3", "-2.5/3", "exp(1)"])
def test_forcing_integral_of_a_constant_is_exact(monkeypatch, text):
    g = ex.parse(text)
    g_fn = ex.compile(g, ("theta",))
    thetas = np.linspace(-50.0, 50.0, 101)
    quadratures = [ex.quad_adaptive(g_fn, 0.0, theta, 1e-12) for theta in thetas]
    quads = count_outermost_calls(monkeypatch, ex, "quad_adaptive")
    for theta, quadrature in zip(thetas, quadratures):
        assert forcing_integral(g, theta) == pytest.approx(quadrature, rel=1e-15, abs=0.0)
    assert quads[0] == 0


def test_forcing_integral_starts_at_zero():
    assert forcing_integral(SIN, 0.0) == 0.0
    assert forcing_integral(SIN, 2.0) == pytest.approx(1.0 - math.cos(2.0), abs=1e-12)
    assert forcing_integral(SIN, -1.0) == pytest.approx(1.0 - math.cos(1.0), abs=1e-12)


def test_invariant_is_kinetic_plus_forcing():
    s = PhaseState(r=1.7, theta=math.pi / 6, u=0.4, v=2.0)
    assert ermakov_invariant(ex.parse("cos(theta)"), s) == pytest.approx(2.5, abs=1e-12)
    assert ermakov_invariant(ZERO, spiral_start()) == 0.5


def test_invariant_records_its_lower_limit():
    assert I_CONVENTIONS == {"lambda_lower_limit": 0.0}


def test_invariant_gradient():
    s = PhaseState(r=2.0, theta=0.7, u=-0.3, v=1.5)
    g = grad_ermakov(ex.parse("cos(theta)"), s)
    assert isinstance(g, tuple) and len(g) == 4
    assert g[0] == 0.0 and g[2] == 0.0
    assert g[1] == pytest.approx(math.cos(0.7))
    assert g[3] == 1.5


@pytest.mark.parametrize("text", ["cos(theta)", "0"])
def test_the_forcing_is_compiled_once_per_tree(monkeypatch, text):
    # the forcing is kept by the value of G: an addend that no other test
    # uses keeps an equal G, compiled earlier in the process, out of it
    g = ex.parse(text + " + 0*0.8125")
    compiles = count_outermost_calls(monkeypatch, ex, "compile")
    scans = count_outermost_calls(monkeypatch, ex, "free_vars")
    ermakov_invariant(g, spiral_start())
    assert compiles[0] == 1
    compiles[0] = scans[0] = 0
    for theta in (0.1, 0.7, -1.3):
        s = PhaseState(r=1.0, theta=theta, u=0.2, v=1.5)
        ermakov_invariant(g, s)
        grad_ermakov(g, s)
    assert compiles[0] == scans[0] == 0
    assert grad_ermakov(g, s)[1] == ex.evaluate(g, {"theta": -1.3})


def test_first_casimir_values():
    assert casimir_C1(OSC, spiral_start()) == 0.5
    assert casimir_C1(OSC, PhaseState(1.0, 0.0, -1.0, 1.0)) == 1.0
    s = PhaseState(r=2.0, theta=0.0, u=1.0, v=2.0)
    assert casimir_C1(Potential(ex.parse("rbar*t")), s, t=2.0) == pytest.approx(0.125 + 1.0)


def test_oscillator_detection_accepts_spelling_variants():
    assert OSC.singular_oscillator
    assert Potential(ex.parse("0.5*rbar^-2")).singular_oscillator
    assert Potential(ex.parse("1/2 * 1/rbar^2")).singular_oscillator


def test_oscillator_detection_rejects_near_misses():
    assert not LINEAR.singular_oscillator
    assert not Potential(ex.parse("1/(2*rbar^2) + 0.001")).singular_oscillator
    assert not Potential(ex.parse("1/(2*rbar^2) + t")).singular_oscillator
    assert not Potential(ex.parse("1/(2*rbar^2) * t/t")).singular_oscillator


def test_second_casimir_closed_form_value():
    s = PhaseState(r=1.0, theta=0.0, u=-1.0, v=1.0)
    # c1 = 1, sigma = +1, radicand = 1
    assert casimir_C2(OSC, s) == pytest.approx(-0.5, abs=1e-12)
    flipped = PhaseState(r=1.0, theta=0.0, u=1.0, v=1.0)
    assert casimir_C2(OSC, flipped) == pytest.approx(0.5, abs=1e-12)


def test_second_casimir_at_turning_point_is_theta():
    assert casimir_C2(OSC, spiral_start()) == 0.0
    shifted = PhaseState(r=1.0, theta=1.3, u=0.0, v=1.0)
    assert casimir_C2(OSC, shifted) == 1.3


def test_second_casimir_branch_error_off_the_turning_point():
    s = PhaseState(r=1.0, theta=0.0, u=0.0, v=1.0)
    with pytest.raises(BranchError):
        casimir_C2(OSC, s, c1=1.0)


def test_second_casimir_negative_radicand():
    s = PhaseState(r=1.0, theta=0.0, u=0.0, v=1.0)
    with pytest.raises(DomainError):
        casimir_C2(OSC, s, c1=0.4)


def test_second_casimir_conventions_record():
    assert c2_conventions(OSC) == {
        "branch_sign": "sign(-u/v)",
        "lower_limit": "turning_point",
        "form": "closed",
    }
    conventions = c2_conventions(LINEAR)
    assert conventions["form"] == "quadrature"
    assert conventions["lower_limit"] == "turning_point"


def test_closed_form_matches_direct_quadrature():
    s = PhaseState(r=1.3, theta=0.7, u=-0.8, v=1.2)
    c1 = casimir_C1(OSC, s)
    lam_turn = 1.0 / math.sqrt(2.0 * c1)
    integrand = lambda lam: 1.0 / math.sqrt(c1 - 1.0 / (2.0 * lam * lam))
    quad, err = scipy_quad(integrand, lam_turn, 1.0 / s.r, points=[lam_turn])
    assert err < 1e-9
    expected = s.theta - quad / math.sqrt(2.0)  # sigma = +1 here
    assert casimir_C2(OSC, s) == pytest.approx(expected, abs=1e-7)


def test_quadrature_casimir_linear_potential():
    # V(lam) = lam: turning point at lam = c1, everything in closed form
    s = PhaseState(r=1.0, theta=0.3, u=-0.5, v=1.0)
    c1 = casimir_C1(LINEAR, s)
    assert c1 == pytest.approx(1.125)
    assert casimir_C2(LINEAR, s) == pytest.approx(0.8, abs=1e-9)


def test_second_casimir_is_continuous_through_a_turning_point():
    # characteristic of V(lam) = lam from (rbar, abar) = (1, 1/2):
    # abar(theta) = 1/2 - theta, rbar(theta) = 1 + theta/2 - theta^2/2,
    # turning point crossed at theta = 1/2 where u changes sign
    for theta in (0.0, 0.2, 0.45, 0.5, 0.55, 0.8, 1.0):
        abar = 0.5 - theta
        rbar = 1.0 + 0.5 * theta - 0.5 * theta * theta
        s = PhaseState(r=1.0 / rbar, theta=theta, u=-abar, v=1.0)
        assert casimir_C2(LINEAR, s) == pytest.approx(0.5, abs=1e-6)


def test_state_outside_its_well_is_rejected():
    s = PhaseState(r=0.5, theta=0.0, u=-0.5, v=1.0)
    with pytest.raises(DomainError, match="outside its own well"):
        casimir_C2(LINEAR, s, c1=1.0)


def test_missing_turning_point_is_reported():
    s = PhaseState(r=1.0, theta=0.0, u=-0.5, v=1.0)
    with pytest.raises(DomainError, match="no turning point"):
        casimir_C2(Potential(ZERO), s)


@pytest.mark.parametrize(
    "potential, root",
    [("1/(2*rbar)", 0.5), ("rbar^2/2", math.sqrt(2.0))],
    ids=("below-rbar", "above-rbar"),
)
def test_turning_point_is_found_on_either_side(potential, root):
    # c1 = 1 at rbar = 1: the scan goes down first and then up
    lam = inv._turning_point(Potential(ex.parse(potential)), 1.0, 1.0, 0.0)
    assert lam == pytest.approx(root, rel=1e-14)
    assert (lam < 1.0) == (root < 1.0)


def test_quadrature_casimir_builds_nothing_after_the_first_call(monkeypatch):
    potential = Potential(ex.parse("1/(2*rbar^2) + 0.1*rbar"))
    calls = {
        name: count_outermost_calls(monkeypatch, ex, name)
        for name in ("compile", "differentiate", "evaluate")
    }
    s = PhaseState(r=1.0, theta=0.2, u=-0.3, v=1.0)
    first = casimir_C2(potential, s)
    # the turning-point endpoint needs dV/drbar, derived on this first call
    expected = {"compile": 1, "differentiate": 1, "evaluate": 0}
    assert {name: count[0] for name, count in calls.items()} == expected
    for _ in range(100):
        assert casimir_C2(potential, s) == first
    assert {name: count[0] for name, count in calls.items()} == expected


def test_angular_speed_from_invariant():
    assert h_of_theta(ZERO, 3.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert h_of_theta(ZERO, 1.0, 0.0) == 0.0
    g = ex.parse("cos(theta)")
    assert h_of_theta(g, 0.5, 2.0) == pytest.approx(
        math.sqrt(2.0 * (2.0 - math.sin(0.5))), abs=1e-10
    )
    with pytest.raises(DomainError):
        h_of_theta(g, math.pi / 2.0, 0.5)


def test_elapsed_time_constant_radius():
    assert elapsed_time(lambda lam: 2.0, ZERO, 0.5, 0.0, 1.0) == pytest.approx(
        4.0, abs=1e-10
    )


def test_elapsed_time_on_the_free_spiral():
    orbit = lambda lam: spiral_radius(0.5, 0.0, lam)
    value = elapsed_time(orbit, ZERO, 0.5, 0.0, 1.0)
    assert value == pytest.approx(math.pi / 4.0, abs=1e-9)


def test_elapsed_time_detects_a_turning_angle():
    g = ex.parse("cos(theta)")
    with pytest.raises((DomainError, ex.QuadratureError)):
        elapsed_time(lambda lam: 1.0, g, 0.3, 0.0, 1.0)


def test_spiral_radius_values_and_shapes():
    assert spiral_radius(0.5, 0.0, 0.0) == pytest.approx(1.0)
    assert spiral_radius(0.5, 0.0, 2.0) == spiral_radius(0.5, 0.0, -2.0)
    radii = [spiral_radius(0.5, 0.25, th) for th in np.linspace(-1.0, 1.0, 7).tolist()]
    assert all(type(r) is float for r in radii)
    assert max(radii) <= 1.0
    with pytest.raises(ValueError):
        spiral_radius(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        spiral_radius(-1.0, 0.0, 1.0)


def test_spiral_radius_peaks_at_the_second_casimir():
    th = np.linspace(-2.0, 2.0, 2001)
    arr = np.array([spiral_radius(0.8, 0.25, x) for x in th.tolist()])
    assert th[int(np.argmax(arr))] == pytest.approx(0.25, abs=2e-3)
    assert float(np.max(arr)) == pytest.approx(math.sqrt(1.6), abs=1e-6)


def test_spiral_radius_matches_numpy_bit_for_bit():
    # the square as d * d; (theta - c2) ** 2 rounds off numpy's square on
    # some of these angles
    rng = np.random.default_rng(5)
    thetas = rng.uniform(-50.0, 50.0, 200_000)
    for c1, c2 in ((0.5, 0.0), (0.8, 0.25), (1.3, -0.7)):
        want = np.sqrt(2.0 * c1 / (1.0 + 4.0 * c1 * c1 * (thetas - c2) ** 2)).tolist()
        assert [spiral_radius(c1, c2, th) for th in thetas.tolist()] == want
