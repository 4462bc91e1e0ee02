"""Command line entry point.

Four commands, all driven by a JSON config (see :mod:`ermakov.config`):

    ermakov simulate  --config run.json [--out DIR] [--seed N]
    ermakov verify    --config run.json --which jacobi|flow|casimir|consistency|determinant
    ermakov orbit     --config run.json
    ermakov linearize --config run.json

Exit codes: 0 pass, 1 numerical or tolerance failure, 2 configuration
error.  Outputs are files with LF endings and no volatile fields, so
identical config plus seed reproduces byte-identical reports: CSV with a
header row and floats as ``%.17g``; JSON as
``json.dumps(doc, sort_keys=True, indent=2)`` writes it, floats as
``float.__repr__`` and non-finite ones as ``NaN``/``Infinity``.

Only ``verify`` (for its seeded draw), ``orbit`` and ``linearize``
load numpy; ``simulate`` runs on Python floats.  The ``poisson`` and
``linearize`` modules are loaded by the commands that use them, so that
a cold start does not compile them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import expr as ex
from . import invariants as inv
from .config import ConfigError, RunConfig, _seed, load_config, sample_states
from .integrate import IntegrationError, Solver, Trajectory, drift, integrate
from .systems import FuncHandle, PhaseState, nan_max, vector_field

__all__ = ["main"]


def _json(obj, pad="\n"):
    """obj as ``json.dumps(obj, sort_keys=True, indent=2)`` spells it, its
    inner lines indented one step past pad.  Leaves go through the stdlib's
    C encoder, and so does each table (see ``_table``) in one call.  Keys
    must be str."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"report keys must be str: {list(obj)!r}")
        items = [inner + json.dumps(k) + ": " + _json(obj[k], inner) for k in sorted(obj)]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = _table(obj, inner) or ",".join(inner + _json(x, inner) for x in obj)
        return "[" + body + pad + "]"
    return json.dumps(obj)


def _table(rows, pad):
    """The rows of a table, flat dicts on one set of str keys that hold only
    floats (such as ``per_state``), at indent pad and joined by commas; None
    for any other list.  The floats are encoded in one call and filled into
    a row template."""
    first = rows[0]
    if type(first) is not dict or set(map(type, first)) != {str}:
        return None
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(first)}:
        return None
    keys = sorted(first)
    try:
        flat = [row[k] for row in rows for k in keys]
    except KeyError:  # unequal key sets
        return None
    if set(map(type, flat)) != {float}:
        return None
    entries = ",".join(pad + "  " + json.dumps(k).replace("%", "%%") + ": %s" for k in keys)
    row = pad + "{" + entries + pad + "}"
    return ",".join([row] * len(rows)) % tuple(json.dumps(flat)[1:-1].split(", "))


def _write_json(path: Path, obj: dict):
    text = _json(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        line = ",".join(["%.17g"] * len(header)) + "\n"
        for row in rows:
            fh.write(line % tuple(row))


def _base_report(cfg: RunConfig, seed: int) -> dict:
    return {
        "config_sha256": cfg.sha256,
        "seed": seed,
        "conventions": {},
    }


def _phi_of(cfg: RunConfig):
    """The orbit-equation coupling: a class-1 phi, or the potential itself,
    whose reduced curvature -dV/drbar stays finite at abar = 0.  Class 2
    is refused: its curvature has a v-dependent term the orbit equation
    does not carry."""
    if cfg.spec.kind == "class2":
        raise ConfigError("linearize applies to class1 and pseudo_potential systems")
    return cfg.spec.coupling


def _matrix_field(cfg: RunConfig) -> poisson.MatrixField:
    from . import poisson

    spec = cfg.spec
    if spec.kind == "class2":
        return poisson.matrix_field_class2(spec.coupling, cfg.floors)
    phi = spec.coupling.phi if spec.kind == "pseudo_potential" else spec.coupling
    return poisson.matrix_field_class1(phi, cfg.floors)


def _state_row(s: PhaseState, residual: float) -> dict:
    return {
        "r": s.r,
        "theta": s.theta,
        "u": s.u,
        "v": s.v,
        "residual": residual,
    }


def _run_trajectory(cfg: RunConfig) -> Trajectory:
    if cfg.s0 is None:
        raise ConfigError("initial_state is required for this command")
    return integrate(cfg.spec, cfg.s0, cfg.t0, cfg.t1, cfg.solver, cfg.floors)


def cmd_simulate(cfg: RunConfig, out_dir: Path, seed: int) -> int:
    spec = cfg.spec
    traj = _run_trajectory(cfg)
    conventions = {"I": inv.I_CONVENTIONS}
    quantities = {"I": lambda s, t: inv.ermakov_invariant(spec.g, s)}
    header = ["t", "r", "theta", "u", "v", "I"]
    if spec.kind == "pseudo_potential":
        potential = spec.coupling
        conventions["C2"] = inv.c2_conventions(potential)
        quantities["C1"] = lambda s, t: inv.casimir_C1(potential, s, t, cfg.floors)
        quantities["C2"] = lambda s, t: inv.casimir_C2(potential, s, t, floors=cfg.floors)
        header += ["C1", "C2"]

    report = drift(traj, quantities)
    columns = [report[name].values for name in header[5:]]
    rows = ([t, *y, *values] for t, y, *values in zip(traj.ts, traj.ys, *columns))
    _write_csv(out_dir / "trajectory.csv", header, rows)

    doc = _base_report(cfg, seed)
    doc.update(
        {
            "command": "simulate",
            "method": traj.method,
            "status": traj.status,
            "stop_reason": traj.stop_reason,
            "t_final": traj.ts[-1],
            "n_samples": len(traj),
            "drift": report.as_dict(),
        }
    )
    doc["conventions"] = conventions
    _write_json(out_dir / "drift.json", doc)
    print(
        f"simulate: {traj.status} at t={traj.ts[-1]:.6g}, "
        f"max drift {report.max_drift:.3e}"
    )
    return 0


def _verify_jacobi(cfg, states, tamper):
    from . import poisson

    field = _matrix_field(cfg)
    if tamper:
        field = poisson.perturb_j34(field, ex.parse("0.1*r"))
    tol = cfg.verify.tolerance.get("jacobi", 1e-6)
    per_state = []
    for s in states:
        res = poisson.jacobi_residuals(field, s, 0.0)
        per_state.append(nan_max(map(abs, res)))
    return tol, per_state, {"tampered": tamper}


def _verify_flow(cfg, states):
    from . import poisson

    field = _matrix_field(cfg)
    tol = cfg.verify.tolerance.get("flow", 1e-10)
    per_state = []
    for s in states:
        grad = inv.grad_ermakov(cfg.spec.g, s)
        jf = poisson.hamiltonian_flow(field, grad, s)
        flow = vector_field(cfg.spec, s, 0.0, cfg.floors)
        scale = max(1.0, nan_max(map(abs, flow)))
        per_state.append(nan_max([abs(a - b) for a, b in zip(jf, flow)]) / scale)
    return tol, per_state, {}


def _verify_casimir(cfg, states):
    from . import poisson

    spec = cfg.spec
    potential = cfg.verify.casimir_potential
    if spec.kind == "pseudo_potential":
        potential = spec.coupling
    if potential is None:
        raise ConfigError(
            "casimir verification needs a pseudo_potential system or "
            "verify.casimir_potential"
        )
    field = _matrix_field(cfg)
    tol = cfg.verify.tolerance.get("casimir", 1e-7)
    per_state = []
    for s in states:
        grad1 = inv.grad_casimir_C1(potential, s, 0.0, cfg.floors)
        grad2 = inv.grad_casimir_C2(potential, s, 0.0, cfg.floors)
        res1 = poisson.casimir_residuals(field, grad1, s)
        res2 = poisson.casimir_residuals(field, grad2, s)
        per_state.append(nan_max(map(abs, res1 + res2)))
    return tol, per_state, {"matrix_kind": field.kind}


def _verify_consistency(cfg, states):
    from . import poisson

    phi = cfg.spec.coupling
    if cfg.spec.kind != "class2":
        raise ConfigError("consistency verification applies to class2 systems")
    psi = phi.psi
    if cfg.verify.phi_override is not None:
        phi = FuncHandle(tree=cfg.verify.phi_override, name="phi_override")
    tol = cfg.verify.tolerance.get("consistency", 1e-7)
    per_state = []
    for s in states:
        per_state.append(
            abs(poisson.consistency_residual(psi, phi, s, 0.0, floors=cfg.floors))
        )
    return tol, per_state, {"phi_overridden": cfg.verify.phi_override is not None}


def _verify_determinant(cfg, states):
    from . import poisson

    spec = cfg.spec
    field = _matrix_field(cfg)
    per_state = []
    if spec.kind in ("class1", "pseudo_potential"):
        tol = cfg.verify.tolerance.get("determinant", 1e-10)
        for s in states:
            m = field(s)
            per_state.append(abs(poisson.determinant(m)) / m.norm() ** 4)
        return tol, per_state, {"mode": "degenerate"}
    tol = cfg.verify.tolerance.get("determinant", 1e-8)
    pf_devs, quoted_devs = [], []
    for s in states:
        m = field(s)
        det = poisson.determinant(m)
        psi_val = spec.coupling.psi(s.alpha(cfg.floors.v_min), s.r, s.theta, 0.0)
        closed = (s.u * psi_val / s.r**2) ** 2
        res = abs(det - closed) / max(1e-30, closed)
        # det = Pf^2 must be positive where u psi != 0, at any tolerance
        per_state.append(max(res, tol) if det <= 0.0 < closed else res)
        quoted = poisson.det_class2_quoted(psi_val, s)
        quoted_devs.append(abs(det - quoted) / max(1e-30, abs(det)))
        pf = poisson.pfaffian(m)
        pf_devs.append(abs(det - pf * pf) / max(1e-30, abs(det), pf * pf))
    # the quoted closed form disagrees with this matrix family (see README);
    # its worst deviation is reported for the record only
    return tol, per_state, {
        "mode": "closed_form",
        "pfaffian_identity_max": nan_max(pf_devs),
        "quoted_form_max_rel_dev": nan_max(quoted_devs),
    }


def cmd_verify(
    cfg: RunConfig, out_dir: Path, seed: int, which: str, tamper: bool
) -> int:
    import numpy as np

    vs = cfg.verify
    branch = vs.branch
    rng = np.random.default_rng(seed)
    states = sample_states(rng, vs.samples, vs.u_floor, branch)
    tampered = tamper or vs.tamper_j34

    if which == "jacobi":
        tol, per_state, extra = _verify_jacobi(cfg, states, tampered)
    elif which == "flow":
        tol, per_state, extra = _verify_flow(cfg, states)
    elif which == "casimir":
        tol, per_state, extra = _verify_casimir(cfg, states)
    elif which == "consistency":
        tol, per_state, extra = _verify_consistency(cfg, states)
    elif which == "determinant":
        tol, per_state, extra = _verify_determinant(cfg, states)
    else:
        raise ConfigError(f"unknown verification {which!r}")

    # a NaN residual fails the sweep
    max_residual = nan_max(per_state)
    passed = bool(max_residual < tol)
    doc = _base_report(cfg, seed)
    doc.update(
        {
            "command": "verify",
            "which": which,
            "system_kind": cfg.spec.kind,
            "samples": vs.samples,
            "branch": branch,
            "tolerance": tol,
            "max_residual": max_residual,
            "pass": passed,
            "per_state": [
                _state_row(s, res) for s, res in zip(states, per_state)
            ],
        }
    )
    doc.update(extra)
    _write_json(out_dir / f"verify_{which}.json", doc)
    verdict = "PASS" if passed else "FAIL"
    print(
        f"verify {which}: max_residual={max_residual:.3e} "
        f"tolerance={tol:.1e} -> {verdict}"
    )
    return 0 if passed else 1


def _time_at_theta(traj: Trajectory, theta_star: float) -> float:
    """Invert the monotone theta(t) of a trajectory by bisection on the
    Hermite dense output."""
    first, last = traj.ys[0][1], traj.ys[-1][1]
    increasing = last > first
    lo_val, hi_val = (first, last) if increasing else (last, first)
    if not lo_val <= theta_star <= hi_val:
        raise ValueError(
            f"theta={theta_star!r} outside the simulated range "
            f"[{lo_val!r}, {hi_val!r}]"
        )
    lo_t, hi_t = traj.ts[0], traj.ts[-1]
    for _ in range(200):
        mid = 0.5 * (lo_t + hi_t)
        th_mid = float(traj.sample(mid)[1])
        if (th_mid < theta_star) == increasing:
            lo_t = mid
        else:
            hi_t = mid
        if hi_t - lo_t <= 1e-15 * max(1.0, abs(hi_t)):
            break
    return 0.5 * (lo_t + hi_t)


def cmd_orbit(cfg: RunConfig, out_dir: Path, seed: int) -> int:
    import numpy as np

    from .linearize import to_orbit_curve

    spec = cfg.spec
    potential = spec.coupling
    if spec.kind != "pseudo_potential" or not potential.singular_oscillator:
        raise ConfigError(
            "orbit applies to pseudo_potential configs with V = 1/(2 rbar^2)"
        )
    if cfg.s0 is None:
        raise ConfigError("initial_state is required for orbit")
    c1 = inv.casimir_C1(potential, cfg.s0, cfg.t0, cfg.floors)
    c2 = inv.casimir_C2(potential, cfg.s0, cfg.t0, c1=c1, floors=cfg.floors)

    traj = _run_trajectory(cfg)
    curve = to_orbit_curve(traj)
    lo, hi = cfg.orbit.theta_span
    c_lo, c_hi = curve.theta_range
    lo, hi = max(lo, c_lo), min(hi, c_hi)
    if not lo < hi:
        raise ValueError(
            f"orbit.theta_span does not overlap the simulated range "
            f"[{c_lo!r}, {c_hi!r}]"
        )
    grid = np.linspace(lo, hi, cfg.orbit.n_grid)
    r_sim = 1.0 / curve.rbar_at(grid)
    r_formula = inv.spiral_radius(c1, c2, grid)
    max_orbit_error = float(np.max(np.abs(r_sim - r_formula)))

    i_val = inv.ermakov_invariant(spec.g, cfg.s0)
    # a duration: theta runs backwards in time where v < 0
    elapsed_sim = abs(_time_at_theta(traj, hi) - _time_at_theta(traj, lo))
    elapsed_quad = inv.elapsed_time(
        lambda th: 1.0 / curve.rbar_at(th), spec.g, i_val, lo, hi
    )
    time_error = abs(elapsed_sim - elapsed_quad)

    passed = (
        max_orbit_error < cfg.orbit.tolerance
        and time_error < cfg.orbit.time_tolerance
    )
    doc = _base_report(cfg, seed)
    doc.update(
        {
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
        }
    )
    doc["conventions"] = {"C2": inv.c2_conventions(potential)}
    _write_json(out_dir / "orbit.json", doc)
    verdict = "PASS" if passed else "FAIL"
    print(
        f"orbit: C1={c1:.6g} C2={c2:.6g} orbit_error={max_orbit_error:.3e} "
        f"time_error={time_error:.3e} -> {verdict}"
    )
    return 0 if passed else 1


def cmd_linearize(cfg: RunConfig, out_dir: Path, seed: int) -> int:
    from .linearize import (
        affinity_test,
        integrate_characteristic,
        orbit_match,
        to_orbit_curve,
    )

    phi = _phi_of(cfg)
    traj = _run_trajectory(cfg)
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

    _write_csv(
        out_dir / "curve.csv",
        ["theta", "rbar", "abar"],
        zip(curve.theta, curve.rbar, curve.abar),
    )
    passed = mismatch <= cfg.linearize.tolerance
    doc = _base_report(cfg, seed)
    doc.update(
        {
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
    )
    _write_json(out_dir / "linearize.json", doc)
    verdict = "PASS" if passed else "FAIL"
    print(
        f"linearize: orbit_match={mismatch:.3e} affine={aff.affine} -> {verdict}"
    )
    return 0 if passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and kept."""
    parser = argparse.ArgumentParser(
        prog="ermakov",
        description="Simulate, verify and linearize Ermakov systems in "
        "their generalized Hamiltonian form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "integrate the flow, write trajectory.csv and drift.json",
        "verify": "run a residual sweep over sampled states",
        "orbit": "compare a simulated spiral against its closed-form orbit",
        "linearize": "map to the orbit equation and test linearity",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override verify.seed")
        if name == "verify":
            cmd.add_argument(
                "--which",
                required=True,
                choices=("jacobi", "flow", "casimir", "consistency", "determinant"),
            )
            cmd.add_argument(
                "--tamper-j34",
                action="store_true",
                help="debug: inject a J34 perturbation; the sweep must fail",
            )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        seed = cfg.verify.seed if args.seed is None else _seed(args.seed, "--seed")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, seed)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, seed, args.which, args.tamper_j34)
        if args.command == "orbit":
            return cmd_orbit(cfg, out_dir, seed)
        return cmd_linearize(cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
