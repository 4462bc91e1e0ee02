"""The ``orbit`` and ``linearize`` commands: the orbit-equation checks.

``orbit`` compares a simulated singular-oscillator spiral with the
closed-form orbit its Casimirs give, and the elapsed time, read off
t(theta), with its quadrature; ``linearize`` maps a trajectory onto the
orbit equation and fits it in closed form to test whether it is linear.
Both run on floats.  :func:`ermakov.cli.main` imports this module only
for these two commands, so no other command compiles it or
:mod:`ermakov.linearize`, and writes the reports they return.
"""

from __future__ import annotations

from . import invariants as inv
from .config import ConfigError, RunConfig
from .integrate import Trajectory, hermite_eval
from .linearize import affinity_test, integrate_characteristic, orbit_match, to_orbit_curve
from .systems import Solver, linspace, nan_max

__all__ = ["cmd_orbit", "cmd_linearize"]


def _phi_of(cfg: RunConfig):
    """The orbit-equation coupling: a class-1 phi, or the potential itself,
    whose reduced curvature -dV/drbar stays finite at abar = 0.  Class 2
    is refused: its curvature has a v-dependent term the orbit equation
    does not carry."""
    if cfg.spec.kind == "class2":
        raise ConfigError("linearize applies to class1 and pseudo_potential systems")
    return cfg.spec.coupling


def _times_at(traj: Trajectory, thetas) -> list:
    """t at nondecreasing angles thetas in the range of a strictly monotone
    theta(t): cubic Hermite on the nodes (theta_i, t_i) with slopes
    dt/dtheta = r_i^2/v_i."""
    ys = traj.ys
    return hermite_eval([y[1] for y in ys], traj.ts, [r * r / v for r, _, _, v in ys], thetas)


def cmd_orbit(cfg: RunConfig) -> tuple:
    spec = cfg.spec
    potential = spec.coupling
    if spec.kind != "pseudo_potential" or not potential.singular_oscillator:
        raise ConfigError(
            "orbit applies to pseudo_potential configs with V = 1/(2 rbar^2)"
        )
    traj = cfg.trajectory()
    c1 = inv.casimir_C1(potential, cfg.s0, cfg.t0, cfg.floors)
    c2 = inv.casimir_C2(potential, cfg.s0, cfg.t0, c1=c1, floors=cfg.floors)
    curve = to_orbit_curve(traj)
    lo, hi = cfg.orbit.theta_span
    c_lo, c_hi = curve.theta_range
    lo, hi = max(lo, c_lo), min(hi, c_hi)
    if not lo < hi:
        raise ValueError(
            f"orbit.theta_span does not overlap the simulated range "
            f"[{c_lo!r}, {c_hi!r}]"
        )
    grid = linspace(lo, hi, cfg.orbit.n_grid)
    max_orbit_error = nan_max(
        abs(1.0 / rbar - inv.spiral_radius(c1, c2, theta))
        for rbar, theta in zip(curve.rbar_at(grid), grid)
    )

    i_val = inv.ermakov_invariant(spec.g, cfg.s0)
    # a duration: theta runs backwards in time where v < 0
    t_lo, t_hi = _times_at(traj, [lo, hi])
    elapsed_sim = abs(t_hi - t_lo)
    elapsed_quad = inv.elapsed_time(
        lambda th: 1.0 / curve.rbar_at([th])[0], spec.g, i_val, lo, hi
    )
    time_error = abs(elapsed_sim - elapsed_quad)

    passed = (
        max_orbit_error < cfg.orbit.tolerance
        and time_error < cfg.orbit.time_tolerance
    )
    doc = {
        "command": "orbit",
        "C1": c1,
        "C2": c2,
        "I": i_val,
        "theta_span": [lo, hi],
        "max_orbit_error": max_orbit_error,
        "max_time_quadrature_error": time_error,
        "elapsed_simulated": elapsed_sim,
        "elapsed_quadrature": elapsed_quad,
        "tolerance": cfg.orbit.tolerance,
        "time_tolerance": cfg.orbit.time_tolerance,
        "status": traj.status,
        "pass": bool(passed),
        "conventions": {"C2": inv.c2_conventions(potential)},
    }
    verdict = "PASS" if passed else "FAIL"
    line = (
        f"orbit: C1={c1:.6g} C2={c2:.6g} orbit_error={max_orbit_error:.3e} "
        f"time_error={time_error:.3e} -> {verdict}"
    )
    return 0 if passed else 1, line, {"orbit.json": doc}


def cmd_linearize(cfg: RunConfig) -> tuple:
    phi = _phi_of(cfg)
    traj = cfg.trajectory()
    curve = to_orbit_curve(traj)  # raises on v sign change
    char = integrate_characteristic(
        phi,
        rbar0=curve.rbar[0],
        abar0=curve.abar[0],
        theta0=curve.theta[0],
        theta1=curve.theta[-1],
        t_param=cfg.t0,
        # the theta characteristic stays on DP45 with the default step
        # budget: an rk4 dt is a time step, not an angle step
        solver=Solver(rtol=cfg.solver.rtol, atol=cfg.solver.atol),
    )
    mismatch = orbit_match(curve, char, n_grid=cfg.linearize.n_grid)
    probe = cfg.linearize.affinity
    aff = affinity_test(
        phi, probe.theta, probe.t, probe.rbar_range, probe.abar_range, probe.n
    )

    passed = mismatch <= cfg.linearize.tolerance
    doc = {
        "command": "linearize",
        "orbit_match": mismatch,
        "tolerance": cfg.linearize.tolerance,
        "affinity": {
            "affine": aff.affine,
            "A": aff.A,
            "B": aff.B,
            "C": aff.C,
            "residual": aff.residual,
        },
        "theta_range": list(curve.theta_range),
        "status": traj.status,
        "pass": bool(passed),
    }
    verdict = "PASS" if passed else "FAIL"
    line = f"linearize: orbit_match={mismatch:.3e} affine={aff.affine} -> {verdict}"
    curve_csv = (["theta", "rbar", "abar"], zip(curve.theta, curve.rbar, curve.abar))
    return 0 if passed else 1, line, {"curve.csv": curve_csv, "linearize.json": doc}
