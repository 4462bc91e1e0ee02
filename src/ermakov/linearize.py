"""The orbit-equation view: 1/r against the angle.

With rbar = 1/r as dependent variable and theta as the independent one,
the radial dynamics becomes the second-order orbit equation

    d^2 rbar / dtheta^2 = (abar / rbar^2) phi(-abar, 1/rbar, theta, t),
    abar = d rbar / dtheta = -u/v,

with t a mere parameter.  This module maps time trajectories onto that
curve, integrates the equation directly as the characteristic system
(d rbar/dtheta = abar, d abar/dtheta = the right side), and tests
whether the right side is affine in (abar, rbar), which is exactly when
the orbit equation is linear.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from .expr import _Record
from .integrate import Solver, Trajectory, hermite_eval, integrate_ode
from .systems import STAGE_FAILURES, FuncHandle, Potential, SingularStateError, linspace, nan_max

# a class-1 coupling, or a potential standing for the phi it induces
Coupling = Union[FuncHandle, Potential]

__all__ = [
    "OrbitCurve",
    "AffinityResult",
    "to_orbit_curve",
    "integrate_characteristic",
    "orbit_match",
    "affinity_test",
]


class OrbitCurve(_Record):
    """Samples (theta, rbar, abar) of an orbit, each a sequence of floats,
    theta strictly monotone.

    abar is d rbar / dtheta, so the (rbar, abar) columns are value and
    slope for Hermite interpolation.
    """

    _fields = ("theta", "rbar", "abar")  # and a __dict__ for _nodes

    def __init__(self, theta: Sequence[float], rbar: Sequence[float], abar: Sequence[float]):
        if len(theta) < 2:
            raise ValueError("an orbit curve needs at least two samples")
        steps = [b - a for a, b in zip(theta, theta[1:])]
        if not (all(d > 0.0 for d in steps) or all(d < 0.0 for d in steps)):
            raise ValueError("theta must be strictly monotone along the curve")
        if any(x <= 0.0 for x in rbar):
            raise ValueError("rbar must stay positive along the curve")
        super().__init__(theta, rbar, abar)

    def __len__(self) -> int:
        return len(self.theta)

    @property
    def theta_range(self) -> Tuple[float, float]:
        th0, th1 = self.theta[0], self.theta[-1]
        return min(th0, th1), max(th0, th1)

    @cached_property
    def _nodes(self) -> tuple:
        """(theta, rbar rows, abar rows) in increasing theta, the nodes of
        ``rbar_at``."""
        th, rb, ab = self.theta, [[x] for x in self.rbar], [[x] for x in self.abar]
        if th[0] > th[-1]:
            th, rb, ab = th[::-1], rb[::-1], ab[::-1]
        return th, rb, ab

    def rbar_at(self, thetas):
        """rbar at nondecreasing angles thetas, cubic Hermite, as a list of
        floats."""
        return hermite_eval(*self._nodes, thetas)[0]


def to_orbit_curve(traj: Trajectory) -> OrbitCurve:
    """Pointwise map of a time trajectory: (r, theta, u, v) ->
    (theta, 1/r, -u/v).

    Requires v of one sign along the trajectory (theta monotone)."""
    ys = traj.ys
    vs = [y[3] for y in ys]
    if not (all(v > 0.0 for v in vs) or all(v < 0.0 for v in vs)):
        i = next((i for i in range(len(vs) - 1) if vs[i] * vs[i + 1] <= 0.0), 0)
        raise ValueError(
            f"v changes sign between samples {i} and {i + 1} "
            f"(t={traj.ts[i]!r}..{traj.ts[i + 1]!r}); theta is not monotone"
        )
    return OrbitCurve(
        theta=[y[1] for y in ys],
        rbar=[1.0 / y[0] for y in ys],
        abar=[-u / v for _, _, u, v in ys],
    )


def _curvature_fn(phi: Coupling, t_param: float):
    """Right side of d abar/dtheta, with two refinements.

    For a potential the product (abar/rbar^2) phi reduces exactly to
    -dV/drbar, which stays finite at abar = 0.  For a generic phi whose
    evaluation fails at abar = 0 the limit is probed symmetrically at
    +-eps; off zero, failures propagate."""
    if isinstance(phi, Potential):
        slope = phi.slope

        def reduced(theta: float, rbar: float, abar: float) -> float:
            return -slope(rbar, t_param)

        return reduced

    def raw(theta: float, rbar: float, abar: float) -> float:
        return (abar / (rbar * rbar)) * phi(-abar, 1.0 / rbar, theta, t_param)

    def curvature(theta: float, rbar: float, abar: float) -> float:
        try:
            return raw(theta, rbar, abar)
        except STAGE_FAILURES:
            if abar != 0.0:
                raise
            eps = 1e-7
            return 0.5 * (raw(theta, rbar, eps) + raw(theta, rbar, -eps))

    return curvature


def integrate_characteristic(
    phi: Coupling,
    rbar0: float,
    abar0: float,
    theta0: float,
    theta1: float,
    t_param: float = 0.0,
    solver: Solver = Solver(),
) -> OrbitCurve:
    """Integrate the characteristic system in the angle:

        d rbar / dtheta = abar,
        d abar / dtheta = (abar / rbar^2) phi(-abar, 1/rbar, theta, t).

    t is frozen at t_param.  theta may run in either direction; the
    curve keeps the direction of integration."""
    if not rbar0 > 0.0:
        raise ValueError(f"rbar0={rbar0!r} must be positive")
    if theta1 == theta0:
        raise ValueError("theta1 must differ from theta0")
    curvature = _curvature_fn(phi, t_param)
    forward = theta1 > theta0
    sign = 1.0 if forward else -1.0

    def rhs(tau: float, y: list) -> tuple:
        rbar, abar = y
        if rbar <= 0.0:
            raise SingularStateError(f"rbar={rbar!r} left the positive domain")
        theta = theta0 + sign * tau
        return sign * abar, sign * curvature(theta, rbar, abar)

    def check(tau: float, y: list) -> Optional[str]:
        if y[0] <= 0.0:
            return f"rbar={y[0]!r} not positive at theta={theta0 + sign * tau!r}"
        return None

    traj = integrate_ode(
        rhs, (rbar0, abar0), 0.0, abs(theta1 - theta0), solver, accept_check=check
    )
    return OrbitCurve(
        theta=[theta0 + sign * tau for tau in traj.ts],
        rbar=[y[0] for y in traj.ys],
        abar=[y[1] for y in traj.ys],
    )


def orbit_match(first: OrbitCurve, curve: OrbitCurve, n_grid: int = 400) -> float:
    """Max |rbar| discrepancy between two orbit curves over a uniform grid
    on their common theta range.

    Both sides are Hermite-interpolated, so the result is meaningful
    between nodes as well."""
    lo1, hi1 = first.theta_range
    lo2, hi2 = curve.theta_range
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if not lo < hi:
        raise ValueError(
            f"theta ranges [{lo1!r}, {hi1!r}] and [{lo2!r}, {hi2!r}] "
            f"do not overlap"
        )
    grid = linspace(lo, hi, n_grid)
    return nan_max(abs(a - b) for a, b in zip(first.rbar_at(grid), curve.rbar_at(grid)))


class AffinityResult(NamedTuple):
    """Least-squares verdict on whether the orbit equation is linear at
    one angle: right side ~ A abar + B rbar + C."""

    affine: bool
    A: float
    B: float
    C: float
    residual: float


def affinity_test(
    phi: Coupling,
    theta: float,
    t: float,
    rbar_range: Tuple[float, float],
    abar_range: Tuple[float, float],
    n: int = 8,
) -> AffinityResult:
    """Fit (abar/rbar^2) phi(-abar, 1/rbar, theta, t) = f to A abar +
    B rbar + C over an n-by-n grid and report the max residual over
    max(1, max |f|); affine = residual < 1e-8.

    On the full grid the centred abar and rbar columns are orthogonal, so
    least squares gives A and B each as one quotient of ``math.fsum``s of
    f / max(1, max |f|), and C from the means.  A non-finite f on the grid
    gives affine False and NaN for the rest.  Singular phi evaluations
    propagate; choose ranges that avoid the singular set."""
    if n < 6:
        raise ValueError(f"need at least a 6x6 grid, got n={n!r}")
    rb_lo, rb_hi = rbar_range
    ab_lo, ab_hi = abar_range
    if not (0.0 < rb_lo < rb_hi):
        raise ValueError(f"rbar_range {rbar_range!r} must be positive and ordered")
    if not ab_lo < ab_hi:
        raise ValueError(f"abar_range {abar_range!r} must be ordered")
    curvature = _curvature_fn(phi, t)
    rbs, abs_ = linspace(rb_lo, rb_hi, n), linspace(ab_lo, ab_hi, n)
    grid = [(ab, rb) for rb in rbs for ab in abs_]
    target = [curvature(theta, rb, ab) for ab, rb in grid]
    if not all(map(math.isfinite, target)):
        return AffinityResult(False, math.nan, math.nan, math.nan, math.nan)
    scale = max(1.0, max(map(abs, target)))
    fs = [f / scale for f in target]
    ab_mean, rb_mean = math.fsum(abs_) / n, math.fsum(rbs) / n
    ab_dev = [ab - ab_mean for ab, _ in grid]
    rb_dev = [rb - rb_mean for _, rb in grid]
    a_fit = math.fsum(map(mul, ab_dev, fs)) / math.fsum(map(mul, ab_dev, ab_dev))
    b_fit = math.fsum(map(mul, rb_dev, fs)) / math.fsum(map(mul, rb_dev, rb_dev))
    c_fit = math.fsum(fs) / len(fs) - a_fit * ab_mean - b_fit * rb_mean
    residual = max(abs(f - (a_fit * ab + b_fit * rb + c_fit)) for f, (ab, rb) in zip(fs, grid))
    return AffinityResult(residual < 1e-8, a_fit * scale, b_fit * scale, c_fit * scale, residual)
