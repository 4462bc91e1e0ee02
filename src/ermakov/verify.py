"""The ``verify`` command: residual sweeps of the Poisson structure over
seeded sample states.

One sweep per ``--which``: the Jacobi identity, the Hamiltonian flow,
the Casimirs, the class-2 consistency condition and the determinant.
:func:`ermakov.cli.main` imports this module only for ``verify``, so no
other command compiles it or :mod:`ermakov.poisson`, and writes the
report that :func:`cmd_verify` returns.
"""

from __future__ import annotations

from . import expr as ex
from . import invariants as inv
from . import poisson
from .config import ConfigError, RunConfig, sample_states
from .systems import FuncHandle, PhaseState, nan_max, vector_field

__all__ = ["cmd_verify"]


def _matrix_field(cfg: RunConfig) -> poisson.MatrixField:
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


def _verify_jacobi(cfg, states, tamper):
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
        grads = (
            inv.grad_casimir_C1(potential, s, 0.0, cfg.floors),
            inv.grad_casimir_C2(potential, s, 0.0, cfg.floors),
        )
        per_state.append(nan_max(map(abs, poisson.casimir_residuals(field, grads, s))))
    return tol, per_state, {"matrix_kind": field.kind}


def _verify_consistency(cfg, states):
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


def cmd_verify(cfg: RunConfig, seed: int, which: str, tamper: bool) -> tuple:
    import numpy as np

    vs = cfg.verify
    branch = vs.branch
    rng = np.random.default_rng(seed)
    states = sample_states(rng, vs.samples, vs.u_floor, branch)

    if which == "jacobi":
        tol, per_state, extra = _verify_jacobi(cfg, states, tamper)
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
    doc = {
        "command": "verify",
        "which": which,
        "system_kind": cfg.spec.kind,
        "samples": vs.samples,
        "branch": branch,
        "tolerance": tol,
        "max_residual": max_residual,
        "pass": passed,
        "per_state": [_state_row(s, res) for s, res in zip(states, per_state)],
        **extra,
    }
    verdict = "PASS" if passed else "FAIL"
    line = f"verify {which}: max_residual={max_residual:.3e} tolerance={tol:.1e} -> {verdict}"
    return 0 if passed else 1, line, {f"verify_{which}.json": doc}
