"""Conserved quantities: the Ermakov invariant, the Casimir pair of the
degenerate (class-1) structure with its exact gradients, and the
angle-to-time quadrature.

Reports record conventions (``I_CONVENTIONS``, ``c2_conventions``) beside
the values because two of them are real choices rather than mathematics:

* the forcing integral Lambda(theta) = integral of G from 0 to theta
  starts at zero;
* the second Casimir multiplies its radial quadrature by the branch sign
  sigma = sign(-u/v), so it is conserved on both sides of a turning
  point, with the quadrature taken from the turning point itself.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

from . import expr as ex
from .expr import DomainError, Expr
from .systems import DEFAULT_FLOORS, Floors, PhaseState, Potential

__all__ = [
    "I_CONVENTIONS",
    "BranchError",
    "forcing_integral",
    "ermakov_invariant",
    "grad_ermakov",
    "casimir_C1",
    "casimir_C2",
    "grad_casimirs",
    "c2_conventions",
    "h_of_theta",
    "elapsed_time",
    "spiral_radius",
]


class BranchError(ValueError):
    """The branch sign sigma = sign(-u/v) is undefined (u = 0 away from a
    turning point)."""


# absolute quadrature tolerances: Lambda(theta), and the two integrals
# along an orbit (the radial one of C2, elapsed time)
_FORCING_TOL = 1e-12
_ORBIT_TOL = 1e-10

I_CONVENTIONS = {"lambda_lower_limit": 0.0}


@functools.lru_cache(maxsize=64)
def _forcing(g: Expr) -> tuple:
    """G compiled in theta, and whether it has theta, kept by the value of
    G: I and its gradient read them at every drift sample and verified
    state."""
    return ex.compile(g, ("theta",)), "theta" in ex.free_vars(g)


def forcing_integral(g: Expr, theta: float) -> float:
    """Lambda(theta): the forcing G integrated from 0 to theta, exactly
    G * theta when G is a constant."""
    g_fn, varies = _forcing(g)
    if not varies:
        return g_fn(theta) * theta
    return ex.quad_adaptive(g_fn, 0.0, theta, _FORCING_TOL)


def ermakov_invariant(g: Expr, s: PhaseState) -> float:
    """I = v^2/2 + Lambda(theta); the Hamiltonian of both structure classes.
    Its conventions are ``I_CONVENTIONS``."""
    return 0.5 * s.v * s.v + forcing_integral(g, s.theta)


def grad_ermakov(g: Expr, s: PhaseState) -> tuple:
    """Phase-space gradient of the invariant: (0, G(theta), 0, v)."""
    return (0.0, _forcing(g)[0](s.theta), 0.0, s.v)


def casimir_C1(
    potential: Potential,
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> float:
    """First Casimir of a pseudo-potential structure:

        C1 = (1/2)(u/v)^2 + V(1/r, t).
    """
    floors.check(v=s.v)
    alpha = s.u / s.v
    return 0.5 * alpha * alpha + potential.fn(1.0 / s.r, t)


def _turning_point(potential: Potential, c1: float, rbar: float, t: float) -> float:
    """Solve V(lam, t) = c1 for the turning point sharing a well with rbar.

    Scans geometrically on both sides of rbar for a sign change of
    c1 - V, then bisects.  Raises if no bracket is found."""

    def gap(lam: float) -> float:
        return c1 - potential.fn(lam, t)

    g0 = gap(rbar)
    if g0 < 0.0:
        raise DomainError(
            f"state lies outside its own well: c1 - V(1/r) = {g0!r} < 0"
        )
    for direction in (0.93, 1.07):
        lam_prev = rbar
        lam = rbar
        for _ in range(400):
            lam *= direction
            try:
                g_here = gap(lam)
            except ex.ExprError:
                break
            if g_here <= 0.0:
                inside, outside = lam_prev, lam  # c1 - V > 0 at inside only
                for _ in range(200):  # a bound: it stops at its fixed point
                    mid = 0.5 * (inside + outside)
                    if gap(mid) > 0.0:
                        if mid == inside:
                            break
                        inside = mid
                    else:
                        if mid == outside:
                            break
                        outside = mid
                return 0.5 * (inside + outside)
            lam_prev = lam
    raise DomainError("no turning point V(lam) = c1 found near rbar")


def _from_turning_point(
    potential: Potential, c1: float, lam0: float, lam1: float, t: float, f, tol: float
) -> float:
    """The integral of f(c1 - V(lam), lam) over lam from the turning point
    lam0 to lam1, for an f with an inverse-square-root singularity in the
    gap c1 - V: lam = lam0 +/- s^2 turns it into the integral of the
    bounded 2 s f over s from 0 to sqrt|lam1 - lam0|, on Gauss-Kronrod
    (which never samples s = 0)."""
    direction = 1.0 if lam1 > lam0 else -1.0
    slope = potential.slope(lam0, t)
    # approaching the well from the turning point: c1 - V must grow
    if direction * slope >= 0.0:
        raise DomainError(
            f"turning point at lam0={lam0!r} is not integrable in the "
            f"direction of 1/r (V' = {slope!r})"
        )

    def transformed(sv: float) -> float:
        lam = lam0 + direction * sv * sv
        gap = c1 - potential.fn(lam, t)
        if gap <= 0.0:
            # roundoff right next to the turning point
            gap = abs(slope) * sv * sv
        return 2.0 * sv * f(gap, lam)

    s_max = math.sqrt(abs(lam1 - lam0))
    return direction * ex.quad_adaptive(transformed, 0.0, s_max, tol)


def _dF_dc1(potential: Potential, c1: float, rbar: float, t: float) -> float:
    """d/dc1 of F(c1, rbar), the radial term of C2 (its quadrature from
    the turning point lam0(c1), or the closed form on the oscillator).

    Differentiating the s-substituted quadrature would leave the integrand
    s (c1 - V)^(-3/2) (1 - V'(lam)/V'(lam0)), which cancels
    catastrophically as s -> 0.  Instead the path is split at lam_m, a
    quarter of the way from lam0 to rbar.  On [lam0, lam_m], integrating
    by parts gives an integrand, (c1 - V)^(1/2) V''/V'^2, that vanishes at
    the moving end, so its c1-derivative has no endpoint term; on
    [lam_m, rbar] the limits are fixed:

        sqrt(2) dF/dc1 = -1/(V'(lam_m) sqrt(c1 - V(lam_m)))
                         - int_{lam0}^{lam_m} (c1 - V)^(-1/2) V''/V'^2 dlam
                         - (1/2) int_{lam_m}^{rbar} (c1 - V)^(-3/2) dlam.

    The first integral needs V' != 0 on [lam0, lam_m].
    """
    if potential.singular_oscillator:
        # F = sqrt(2 c1 rbar^2 - 1) / (2 c1)
        rho = rbar * rbar
        return (1.0 - c1 * rho) / (2.0 * c1 * c1 * math.sqrt(2.0 * c1 * rho - 1.0))
    pot, slope, curvature = potential.fn, potential.slope, potential.curvature
    lam0 = _turning_point(potential, c1, rbar, t)
    lam_m = lam0 + 0.25 * (rbar - lam0)
    boundary = 1.0 / (slope(lam_m, t) * math.sqrt(c1 - pot(lam_m, t)))
    # the three terms are of the size of the first: an absolute tolerance
    # below _ORBIT_TOL of it asks the integrals for digits the gap
    # c1 - V, which cancels near lam0, does not hold
    tol = _ORBIT_TOL * max(1.0, abs(boundary))

    def by_parts(gap: float, lam: float) -> float:
        return curvature(lam, t) / (math.sqrt(gap) * slope(lam, t) ** 2)

    near = _from_turning_point(potential, c1, lam0, lam_m, t, by_parts, tol)
    far = ex.quad_adaptive(lambda lam: (c1 - pot(lam, t)) ** -1.5, lam_m, rbar, tol)
    return -(boundary + near + 0.5 * far) / math.sqrt(2.0)


def c2_conventions(potential: Potential) -> dict:
    """The conventions of ``casimir_C2`` for this potential."""
    return {
        "branch_sign": "sign(-u/v)",
        "lower_limit": "turning_point",
        "form": "closed" if potential.singular_oscillator else "quadrature",
    }


def casimir_C2(
    potential: Potential,
    s: PhaseState,
    t: float = 0.0,
    c1: Optional[float] = None,
    floors: Floors = DEFAULT_FLOORS,
) -> float:
    """Second Casimir of a pseudo-potential structure:

        C2 = theta - sigma * (1/sqrt(2)) * integral_{lam0}^{1/r}
                 (c1 - V(lam, t))^(-1/2) dlam,
        sigma = sign(-u/v).

    The lower limit lam0 is the turning point V = c1, making C2
    continuous through it; there the quadrature vanishes and C2 = theta
    even though sigma is undefined.  For the singular oscillator
    V = 1/(2 lam^2) the closed form

        theta - sigma * (1/(2 c1)) * sqrt(2 c1 / r^2 - 1)

    is used instead of quadrature, which elsewhere runs from lam0 through
    ``_from_turning_point``.  ``c2_conventions`` names the choices.
    """
    if c1 is None:
        c1 = casimir_C1(potential, s, t, floors)
    if potential.singular_oscillator:
        radicand = 2.0 * c1 / (s.r * s.r) - 1.0
        scale = max(1.0, abs(2.0 * c1 / (s.r * s.r)))
        if radicand < -1e-9 * scale:
            raise DomainError(f"negative radicand {radicand!r} in closed-form C2")
        radicand = max(radicand, 0.0)
        quad = math.sqrt(radicand) / (2.0 * c1)
        at_turning_point = radicand <= 1e-9 * scale
    else:
        rbar = 1.0 / s.r
        lam0 = _turning_point(potential, c1, rbar, t)
        quad = 0.0 if rbar == lam0 else _from_turning_point(
            potential, c1, lam0, rbar, t, lambda gap, lam: 1.0 / math.sqrt(gap), _ORBIT_TOL
        ) / math.sqrt(2.0)
        at_turning_point = abs(quad) <= 1e-9
    if s.u == 0.0:
        if at_turning_point:
            return s.theta
        raise BranchError("u = 0 away from the turning point: branch sign undefined")
    return s.theta - math.copysign(1.0, -s.u / s.v) * quad


def grad_casimirs(
    potential: Potential,
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> tuple:
    """Phase-space gradients (grad C1, grad C2) at fixed t, alpha = u/v:

        grad C1 = (-V'(1/r, t)/r^2, 0, alpha/v, -alpha^2/v).

    With C2 = theta - sigma F(c1, 1/r) as in ``casimir_C2``,
    dF/drbar = 1/sqrt(2 (c1 - V(1/r))) = 1/|alpha| and sigma/|alpha| = -1/alpha, so

        grad C2 = (0, 1, 0, 0) - sigma dF/dc1 grad C1 - (1/(alpha r^2), 0, 0, 0).

    Undefined at u = 0, where 1/|alpha| is; the v floor is checked first.
    """
    floors.check(v=s.v)
    alpha = s.u / s.v
    grad1 = (-potential.slope(1.0 / s.r, t) / (s.r * s.r), 0.0, alpha / s.v, -alpha * alpha / s.v)
    if s.u == 0.0:
        raise BranchError("u = 0: the gradient of C2 is undefined")
    c1 = casimir_C1(potential, s, t, floors)
    k = -math.copysign(1.0, -alpha) * _dF_dc1(potential, c1, 1.0 / s.r, t)
    return grad1, (k * grad1[0] - 1.0 / (alpha * s.r * s.r), 1.0, k * grad1[2], k * grad1[3])


def h_of_theta(g: Expr, theta: float, invariant: float) -> float:
    """h(theta, I) = sqrt(2 (I - Lambda(theta))); equals |v| on shell."""
    radicand = 2.0 * (invariant - forcing_integral(g, theta))
    if radicand < 0.0:
        if radicand > -1e-12 * max(1.0, abs(invariant)):
            return 0.0
        raise DomainError(
            f"negative radicand {radicand!r}: theta={theta!r} is beyond the "
            f"turning angle for I={invariant!r}"
        )
    return math.sqrt(radicand)


def elapsed_time(
    orbit: Callable[[float], float],
    g: Expr,
    invariant: float,
    theta0: float,
    theta1: float,
) -> float:
    """Time elapsed while theta sweeps [theta0, theta1] on a known orbit:

        t1 - t0 = integral r(lam)^2 / h(lam, I) dlam.

    A turning angle (h -> 0) inside the interval surfaces as a
    quadrature error."""

    def integrand(lam: float) -> float:
        r_val = orbit(lam)
        h_val = h_of_theta(g, lam, invariant)
        if h_val == 0.0:
            raise DomainError(f"h vanishes at theta={lam!r} (turning angle)")
        return r_val * r_val / h_val

    return ex.quad_adaptive(integrand, theta0, theta1, _ORBIT_TOL)


def spiral_radius(c1: float, c2: float, theta: float) -> float:
    """Radius of the singular-oscillator orbit at one angle:

        r^2 = 2 c1 / (1 + 4 c1^2 (theta - c2)^2),

    the square taken as d * d, as numpy squares."""
    if not (c1 > 0.0):
        raise ValueError(f"c1 must be positive, got {c1!r}")
    d = theta - c2
    return math.sqrt(2.0 * c1 / (1.0 + 4.0 * c1 * c1 * (d * d)))
