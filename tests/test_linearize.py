import math

import numpy as np
import pytest

from ermakov import expr as ex
from ermakov.integrate import IntegrationError, Trajectory, integrate
from ermakov.linearize import (
    AffinityResult,
    OrbitCurve,
    affinity_test,
    integrate_characteristic,
    orbit_match,
    to_orbit_curve,
)
from ermakov.systems import FuncHandle, PhaseState, SystemSpec

from helpers import reference_affinity_fit, reference_hermite_eval, spiral_start, vec
from test_systems import OSC

ZERO = ex.parse("0")
SPIRAL = SystemSpec(ZERO, OSC)
PHI_COSH = FuncHandle.from_text("-1/(alpha*r^3)")


def make_trajectory(ys, fs=None):
    ys = np.asarray(ys, dtype=float)
    fs = np.zeros_like(ys) if fs is None else np.asarray(fs, dtype=float)
    return Trajectory(
        ts=np.linspace(0.0, 1.0, len(ys)),
        ys=ys,
        fs=fs,
        method="dp45",
        status="completed",
        stop_reason=None,
        stats={},
    )


def test_curve_validation():
    with pytest.raises(ValueError, match="^an orbit curve needs at least two samples$"):
        OrbitCurve(theta=np.array([0.0]), rbar=np.array([1.0]), abar=np.array([0.0]))
    with pytest.raises(ValueError, match="^theta must be strictly monotone along the curve$"):
        OrbitCurve(
            theta=np.array([0.0, 1.0, 0.5]),
            rbar=np.ones(3),
            abar=np.zeros(3),
        )
    with pytest.raises(ValueError, match="^rbar must stay positive along the curve$"):
        OrbitCurve(
            theta=np.array([0.0, 1.0]),
            rbar=np.array([1.0, -1.0]),
            abar=np.zeros(2),
        )
    curve = OrbitCurve([0.0, 1.0], [1.0, 2.0], [0.5, 0.5])
    assert curve.rbar_at([0.5]) == [1.5]  # the cached nodes need no assignment
    assert repr(curve) == "OrbitCurve(theta=[0.0, 1.0], rbar=[1.0, 2.0], abar=[0.5, 0.5])"
    for record, field in ((curve, "theta"), (make_trajectory([[1.0, 0.0, 0.0, 1.0]] * 2), "ts")):
        with pytest.raises(AttributeError):
            setattr(record, field, [])


def test_time_trajectory_maps_pointwise():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)
    curve = to_orbit_curve(traj)
    ys = vec(traj.ys)
    assert all(type(x) is float for x in (*curve.theta, *curve.rbar, *curve.abar))
    assert np.array_equal(curve.theta, ys[:, 1])
    assert np.array_equal(curve.rbar, 1.0 / ys[:, 0])
    assert np.array_equal(curve.abar, -ys[:, 2] / ys[:, 3])


def test_sign_change_in_v_is_rejected():
    traj = make_trajectory(
        [[1.0, 0.0, 0.0, 1.0], [1.0, 0.5, 0.0, 0.5], [1.0, 0.6, 0.0, -1.0]]
    )
    with pytest.raises(ValueError, match="samples 1 and 2"):
        to_orbit_curve(traj)


def test_characteristic_spiral_curve():
    curve = integrate_characteristic(SPIRAL.coupling, 1.0, 0.0, 0.0, 1.0)
    # rbar'' = rbar^-3 from (1, 0) has the closed solution sqrt(1+theta^2)
    assert curve.rbar[-1] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert curve.abar[-1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    (mid,) = curve.rbar_at([0.437])
    assert mid == pytest.approx(math.sqrt(1.0 + 0.437**2), abs=1e-7)


def test_characteristic_energy_is_conserved_along_the_curve():
    curve = integrate_characteristic(SPIRAL.coupling, 1.0, 0.0, 0.0, 1.0)
    c1 = 0.5 * vec(curve.abar) ** 2 + 0.5 / vec(curve.rbar) ** 2
    assert np.max(np.abs(c1 - 0.5)) < 1e-8


def test_characteristic_with_singular_phi_at_rest():
    # phi = -1/(alpha r^3) cannot be evaluated at abar = 0; the symmetric
    # probe supplies the finite limit and the curve is a catenary
    curve = integrate_characteristic(PHI_COSH, 1.0, 0.0, 0.0, 1.0)
    assert curve.rbar[-1] == pytest.approx(math.cosh(1.0), abs=1e-9)
    assert curve.abar[-1] == pytest.approx(math.sinh(1.0), abs=1e-9)


def test_characteristic_runs_backwards():
    curve = integrate_characteristic(
        PHI_COSH, math.cosh(1.0), math.sinh(1.0), 1.0, 0.0
    )
    assert curve.theta[0] == 1.0
    assert curve.theta[-1] == pytest.approx(0.0, abs=1e-14)
    assert np.all(np.diff(curve.theta) < 0.0)
    assert curve.rbar[-1] == pytest.approx(1.0, abs=1e-9)
    assert curve.rbar_at([0.437]) == pytest.approx([math.cosh(0.437)], abs=1e-7)


def test_scalar_curve_reads_match_the_array_path_bit_for_bit():
    forward = to_orbit_curve(integrate(SPIRAL, spiral_start(), 0.0, 1.4))
    backward = integrate_characteristic(PHI_COSH, math.cosh(1.0), math.sinh(1.0), 1.0, 0.0)
    rng = np.random.default_rng(29)
    for curve in (forward, backward):
        lo, hi = curve.theta_range
        uniform = np.linspace(lo, hi, 97).tolist()
        for grid in (uniform, sorted(curve.theta), sorted(rng.uniform(lo, hi, 200).tolist())):
            got = curve.rbar_at(grid)
            want = reference_hermite_eval(*curve._nodes, grid)[:, 0].tolist()
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            for theta, one in zip(grid[::11], want[::11]):
                assert curve.rbar_at([theta])[0].hex() == one.hex()
        for theta in (lo - 1e-3, hi + 1e-3):
            with pytest.raises(IntegrationError, match=r"^sample time outside \["):
                curve.rbar_at([theta])


def test_characteristic_argument_validation():
    with pytest.raises(ValueError, match="positive"):
        integrate_characteristic(PHI_COSH, -1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="differ"):
        integrate_characteristic(PHI_COSH, 1.0, 0.0, 0.3, 0.3)


def test_trajectory_follows_its_own_characteristic():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)
    curve = integrate_characteristic(SPIRAL.coupling, 1.0, 0.0, 0.0, math.tan(1.0))
    assert orbit_match(to_orbit_curve(traj), curve) < 1e-6


def test_orbit_match_of_a_curve_with_itself():
    curve = integrate_characteristic(SPIRAL.coupling, 1.0, 0.0, 0.0, 1.0)
    assert orbit_match(curve, curve) == 0.0


def test_orbit_match_separates_different_orbits():
    a = integrate_characteristic(SPIRAL.coupling, 1.0, 0.0, 0.0, 1.0)
    b = integrate_characteristic(SPIRAL.coupling, 1.2, 0.0, 0.0, 1.0)
    assert orbit_match(a, b) > 0.1


def test_orbit_match_requires_overlap():
    a = integrate_characteristic(SPIRAL.coupling, 1.0, 0.0, 0.0, 1.0)
    b = integrate_characteristic(SPIRAL.coupling, 1.0, 0.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="overlap"):
        orbit_match(a, b)


def test_affinity_of_the_trivial_coupling():
    result = affinity_test(
        FuncHandle.from_text("0"), 0.0, 0.0, (0.5, 2.0), (0.1, 1.0)
    )
    assert isinstance(result, AffinityResult)
    assert result.affine
    assert result.residual == pytest.approx(0.0, abs=1e-14)
    assert (result.A, result.B, result.C) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_affinity_finds_the_catenary_coefficients():
    result = affinity_test(PHI_COSH, 0.0, 0.0, (0.5, 2.0), (0.1, 1.0))
    assert result.affine
    assert result.A == pytest.approx(0.0, abs=1e-9)
    assert result.B == pytest.approx(1.0, abs=1e-9)
    assert result.C == pytest.approx(0.0, abs=1e-9)


def test_affinity_rejects_the_spiral_coupling():
    result = affinity_test(SPIRAL.coupling, 0.0, 0.0, (0.5, 2.0), (0.1, 1.0))
    assert not result.affine
    assert result.residual > 0.01


# couplings whose orbit equation is linear (the trivial and catenary ones)
# or not (the spiral potential and polynomial phis)
AFFINITY_POOL = (
    FuncHandle.from_text("0"),
    PHI_COSH,
    OSC,
    FuncHandle.from_text("alpha*r"),
    FuncHandle.from_text("r^2*t - 3*alpha"),
    FuncHandle.from_text("1 + alpha^2*r - theta*alpha^3*r^2"),
)


@pytest.mark.parametrize("n", range(6, 13))
def test_the_closed_form_fit_matches_least_squares(n):
    for phi in AFFINITY_POOL:
        for theta, t, rbar_range, abar_range in (
            (0.0, 0.0, (0.5, 2.0), (0.1, 1.0)),
            (0.3, 1.2, (0.2, 3.5), (-1.5, 0.7)),
        ):
            got = affinity_test(phi, theta, t, rbar_range, abar_range, n)
            want = reference_affinity_fit(phi, theta, t, rbar_range, abar_range, n)
            assert got.affine == want.affine
            assert got[1:] == pytest.approx(want[1:], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "phi_text",
    [
        # inf - inf, a NaN, where (1e154 r)^2 overflows (r > 1.34)
        "(1e154*r)*(1e154*r) - (1e154*r)*(1e154*r)",
        # -inf at every point of the grid, where alpha < 0
        "1e300*1e300*alpha",
    ],
    ids=("nan", "inf"),
)
def test_a_non_finite_grid_gives_a_nan_fit(phi_text):
    result = affinity_test(FuncHandle.from_text(phi_text), 0.0, 0.0, (0.5, 2.0), (0.1, 1.0))
    assert result.affine is False
    assert all(map(math.isnan, result[1:]))


def test_a_fit_near_the_float_limit_stays_finite():
    # f reaches 4e307, so its unscaled sums would pass the float range
    big = FuncHandle.from_text("-1e307*alpha")
    result = affinity_test(big, 0.0, 0.0, (0.5, 2.0), (0.1, 1.0))
    want = reference_affinity_fit(big, 0.0, 0.0, (0.5, 2.0), (0.1, 1.0))
    assert result.affine == want.affine
    assert result[1:] == pytest.approx(want[1:], rel=1e-12)


def test_affinity_argument_validation():
    with pytest.raises(ValueError, match="6x6"):
        affinity_test(PHI_COSH, 0.0, 0.0, (0.5, 2.0), (0.1, 1.0), n=5)
    with pytest.raises(ValueError, match="rbar_range"):
        affinity_test(PHI_COSH, 0.0, 0.0, (-0.5, 2.0), (0.1, 1.0))
    with pytest.raises(ValueError, match="rbar_range"):
        affinity_test(PHI_COSH, 0.0, 0.0, (2.0, 0.5), (0.1, 1.0))
    with pytest.raises(ValueError, match="abar_range"):
        affinity_test(PHI_COSH, 0.0, 0.0, (0.5, 2.0), (1.0, 0.1))


def test_linear_reference_matches_the_characteristic():
    # phi = -1/(alpha r^3) makes the orbit equation rbar'' = rbar (A = C = 0,
    # B = 1), solved by rbar = cosh(theta) + 0.2 sinh(theta) from (1, 0.2)
    fit = affinity_test(PHI_COSH, 0.0, 0.0, (0.5, 2.0), (0.1, 1.0))
    assert fit.affine and fit[1:4] == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
    thetas = [i / 200 for i in range(201)]
    linear = OrbitCurve(
        thetas,
        [math.cosh(x) + 0.2 * math.sinh(x) for x in thetas],
        [math.sinh(x) + 0.2 * math.cosh(x) for x in thetas],
    )
    full = integrate_characteristic(PHI_COSH, 1.0, 0.2, 0.0, 1.0)
    assert orbit_match(linear, full) < 1e-6
