"""The ``verify`` command: residual sweeps of the Poisson structure over
seeded sample states.

One sweep per name in :data:`ermakov.config.SWEEPS`: the Jacobi identity,
the Hamiltonian flow, the Casimirs, the class-2 consistency condition and
the determinant.  Each is ``(cfg, field, states) -> (tolerance, per-state
residuals, extra report fields)`` in ``_SWEEPS``, with its own default
tolerance, on the one matrix field that :func:`cmd_verify` builds.
:func:`ermakov.cli.main` imports this module only for ``verify``, so no
other command compiles it or :mod:`ermakov.poisson`, and writes the
report that :func:`cmd_verify` returns.  The states are drawn from the
standard library's ``random.Random(seed)``, whose ``random()`` stream
for an int seed Python keeps across versions, so the command has no
runtime dependency.
"""

from __future__ import annotations

import random

from . import invariants as inv
from . import poisson
from .config import ConfigError, RunConfig, sample_states
from .systems import FuncHandle, nan_max, vector_field

__all__ = ["cmd_verify"]


def _verify_jacobi(cfg, field, states):
    tol = cfg.verify.tolerance.get("jacobi", 1e-6)
    per_state = [nan_max(map(abs, poisson.jacobi_residuals(field, s, 0.0))) for s in states]
    return tol, per_state, {}


def _verify_flow(cfg, field, states):
    tol = cfg.verify.tolerance.get("flow", 1e-10)
    spec, floors = cfg.spec, cfg.floors
    g, grad_ermakov, hamiltonian_flow = spec.g, inv.grad_ermakov, poisson.hamiltonian_flow
    per_state = []
    for s in states:
        jr, jq, ju, jv = hamiltonian_flow(field, grad_ermakov(g, s), s)
        fr, fq, fu, fv = vector_field(spec, s, 0.0, floors)
        scale = max(1.0, nan_max((abs(fr), abs(fq), abs(fu), abs(fv))))
        per_state.append(nan_max((abs(jr - fr), abs(jq - fq), abs(ju - fu), abs(jv - fv))) / scale)
    return tol, per_state, {}


def _verify_casimir(cfg, field, states):
    spec = cfg.spec
    potential = cfg.verify.casimir_potential
    if potential is None and spec.kind == "pseudo_potential":
        potential = spec.coupling
    if potential is None:
        raise ConfigError(
            "casimir verification needs a pseudo_potential system or "
            "verify.casimir_potential"
        )
    tol = cfg.verify.tolerance.get("casimir", 1e-7)
    per_state = []
    for s in states:
        grads = (
            inv.grad_casimir_C1(potential, s, 0.0, cfg.floors),
            inv.grad_casimir_C2(potential, s, 0.0, cfg.floors),
        )
        per_state.append(nan_max(map(abs, poisson.casimir_residuals(field, grads, s))))
    return tol, per_state, {"matrix_kind": field.kind}


def _verify_consistency(cfg, field, states):
    phi = cfg.spec.coupling
    if cfg.spec.kind != "class2":
        raise ConfigError("consistency verification applies to class2 systems")
    psi = phi.psi
    if cfg.verify.phi_override is not None:
        phi = FuncHandle(cfg.verify.phi_override)
    tol = cfg.verify.tolerance.get("consistency", 1e-7)
    per_state = [
        abs(poisson.consistency_residual(psi, phi, s, 0.0, floors=cfg.floors)) for s in states
    ]
    return tol, per_state, {"phi_overridden": cfg.verify.phi_override is not None}


def _verify_determinant(cfg, field, states):
    spec = cfg.spec
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
        psi_val = spec.coupling.last[2]  # psi at the state, as field's phi call read it
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


_SWEEPS = {
    "jacobi": _verify_jacobi,
    "flow": _verify_flow,
    "casimir": _verify_casimir,
    "consistency": _verify_consistency,
    "determinant": _verify_determinant,
}


def cmd_verify(cfg: RunConfig, seed: int, which: str, tamper: bool) -> tuple:
    if tamper and which != "jacobi":
        raise ConfigError("--tamper-j34 applies only to --which jacobi")
    vs = cfg.verify
    states = sample_states(random.Random(seed), vs.samples, vs.u_floor, vs.branch)
    field = poisson.matrix_field(cfg.spec.coupling, cfg.floors)
    if tamper:
        field = poisson.perturb_j34(field)
    tol, per_state, extra = _SWEEPS[which](cfg, field, states)
    if which == "jacobi":
        extra["tampered"] = tamper

    # a NaN residual fails the sweep
    max_residual = nan_max(per_state)
    passed = bool(max_residual < tol)
    doc = {
        "command": "verify",
        "which": which,
        "system_kind": cfg.spec.kind,
        "samples": vs.samples,
        "branch": vs.branch,
        "tolerance": tol,
        "max_residual": max_residual,
        "pass": passed,
        "per_state": [
            {"r": r, "theta": theta, "u": u, "v": v, "residual": res}
            for (r, theta, u, v), res in zip(states, per_state)
        ],
        **extra,
    }
    verdict = "PASS" if passed else "FAIL"
    line = f"verify {which}: max_residual={max_residual:.3e} tolerance={tol:.1e} -> {verdict}"
    return 0 if passed else 1, line, {f"verify_{which}.json": doc}
