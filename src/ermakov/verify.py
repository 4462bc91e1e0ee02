"""The ``verify`` command: residual sweeps of the Poisson structure over
seeded sample states.

One sweep per name in :data:`ermakov.config.SWEEPS`: the Jacobi identity,
the Hamiltonian flow, the Casimirs, the class-2 consistency condition and
the determinant.  Each is ``(cfg, field) -> (tolerance, residual, fixed
report fields, reduced names)`` in ``_SWEEPS``: it does its setup once,
and ``residual`` maps one state to its residual, then one value per
reduced name if it has any.  :func:`cmd_verify` builds the one matrix
field and holds the one loop over the states, which builds the report's
rows and reduces each named value with ``nan_max``.
:func:`ermakov.cli.main` imports this module only for ``verify``, so no
other command compiles it or :mod:`ermakov.poisson`, and writes the
report.  The states come from the standard library's
``random.Random(seed)``, whose ``random()`` stream for an int seed Python
keeps across versions, so the command has no runtime dependency.
"""

from __future__ import annotations

import random

from . import invariants as inv
from . import poisson
from .config import ConfigError, RunConfig, sample_states
from .systems import FuncHandle, nan_max, vector_field

__all__ = ["cmd_verify"]


def _verify_jacobi(cfg, field):
    tol = cfg.verify.tolerance.get("jacobi", 1e-6)
    return tol, lambda s: nan_max(map(abs, poisson.jacobi_residuals(field, s, 0.0))), {}, ()


def _verify_flow(cfg, field):
    spec, floors = cfg.spec, cfg.floors
    g, grad_ermakov, hamiltonian_flow = spec.g, inv.grad_ermakov, poisson.hamiltonian_flow

    def residual(s):
        jr, jq, ju, jv = hamiltonian_flow(field, grad_ermakov(g, s), s)
        fr, fq, fu, fv = vector_field(spec, s, 0.0, floors)
        scale = max(1.0, nan_max((abs(fr), abs(fq), abs(fu), abs(fv))))
        return nan_max((abs(jr - fr), abs(jq - fq), abs(ju - fu), abs(jv - fv))) / scale

    return cfg.verify.tolerance.get("flow", 1e-10), residual, {}, ()


def _verify_casimir(cfg, field):
    spec, floors = cfg.spec, cfg.floors
    potential = cfg.verify.casimir_potential
    if potential is None and spec.kind == "pseudo_potential":
        potential = spec.coupling
    if potential is None:
        raise ConfigError(
            "casimir verification needs a pseudo_potential system or verify.casimir_potential"
        )

    def residual(s):
        grads = inv.grad_casimirs(potential, s, 0.0, floors)
        return nan_max(map(abs, poisson.casimir_residuals(field, grads, s)))

    return cfg.verify.tolerance.get("casimir", 1e-7), residual, {"matrix_kind": field.kind}, ()


def _verify_consistency(cfg, field):
    phi, floors, override = cfg.spec.coupling, cfg.floors, cfg.verify.phi_override
    if cfg.spec.kind != "class2":
        raise ConfigError("consistency verification applies to class2 systems")
    psi, phi = phi.psi, phi if override is None else FuncHandle(override)
    return (
        cfg.verify.tolerance.get("consistency", 1e-7),
        lambda s: abs(poisson.consistency_residual(psi, phi, s, 0.0, floors=floors)),
        {"phi_overridden": override is not None},
        (),
    )


def _verify_determinant(cfg, field):
    phi = cfg.spec.coupling
    if cfg.spec.kind in ("class1", "pseudo_potential"):
        tol, mode = cfg.verify.tolerance.get("determinant", 1e-10), {"mode": "degenerate"}
        return tol, lambda s: abs(poisson.determinant(m := field(s))) / m.norm() ** 4, mode, ()
    tol = cfg.verify.tolerance.get("determinant", 1e-8)

    def residual(s):
        m = field(s)
        det = poisson.determinant(m)
        psi_val = phi.last[2]  # psi at the state, as field's phi call read it
        closed = (s.u * psi_val / s.r**2) ** 2
        res = abs(det - closed) / max(1e-30, closed)
        pf = poisson.pfaffian(m)
        # det = Pf^2 must be positive where u psi != 0, at any tolerance; the
        # quoted closed form disagrees with this matrix family (see README),
        # so its deviation is reported for the record only
        return (
            max(res, tol) if det <= 0.0 < closed else res,
            abs(det - poisson.det_class2_quoted(psi_val, s)) / max(1e-30, abs(det)),
            abs(det - pf * pf) / max(1e-30, abs(det), pf * pf),
        )

    reduced = ("quoted_form_max_rel_dev", "pfaffian_identity_max")
    return tol, residual, {"mode": "closed_form"}, reduced


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
    tol, residual, extra, reduced = _SWEEPS[which](cfg, field)
    per_state, rows, columns = [], [], []
    for s in states:
        res = residual(s)
        if reduced:  # the residual, then one value per reduced field
            res, *values = res
            columns.append(values)
        per_state.append(res)
        r, theta, u, v = s
        rows.append({"r": r, "theta": theta, "u": u, "v": v, "residual": res})
    extra.update(zip(reduced, map(nan_max, zip(*columns))))
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
        "per_state": rows,
        **extra,
    }
    verdict = "PASS" if passed else "FAIL"
    line = f"verify {which}: max_residual={max_residual:.3e} tolerance={tol:.1e} -> {verdict}"
    return 0 if passed else 1, line, {f"verify_{which}.json": doc}
