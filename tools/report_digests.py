#!/usr/bin/env python3
"""Digest every report the ermakov commands write for the shipped configs.

    python3 tools/report_digests.py --seed N

For each ``configs/*.json`` it runs ``simulate``, the five ``verify``
sweeps, ``orbit`` and ``linearize`` with ``--seed N``, in this process,
against the package in this checkout's ``src/``.  The class-2 stress
config ``bench/configs/class2_quadrature.json`` (the only one whose psi
is not constant) gets ``simulate`` and the ``flow``, ``consistency``,
``determinant`` and ``jacobi`` sweeps, and the ``casimir`` sweep, which it
refuses for want of a potential.  No shipped config reaches the quadrature ``C2``, its
turning-point scan or dV/drbar away from the singular oscillator, so one
more document, ``OFF_OSCILLATOR`` (forced, with a linear term added to
``V = 1/(2 rbar^2)``), is written to the temporary directory and gets
every command.  ``NAN_PHI`` (a class-1 phi that cancels to NaN where
``(1e154 r)^2`` overflows) gets the ``jacobi``, ``flow`` and
``determinant`` sweeps (``NAN_PHI_COMMANDS``), which fail on NaN rows
inside the ``per_state`` table; the last carries NaN in J34 through the
cofactor determinant and the Pfaffian.  Twelve variants of the shipped configs, ``VARIANTS``,
reach the integrator and class-2 settings the shipped configs leave at
their defaults: the spiral on fixed-step RK4, the spiral with a step
budget it exhausts, the spiral run on until it stops at the ``r_min``
floor, the same run at a looser DP45 tolerance, whose step controller
rejects steps, and on RK4 steps so long that stages fail and the step
is halved (the two stops on step-size underflow stay unreached), the
spiral mirrored to v < 0, whose theta falls with time, the
spiral with one-point ``orbit`` and ``linearize`` grids,
``class2_psi1`` with an alpha- and r-dependent psi, a
nonzero ``lam0`` and a looser ``quad_tol``, ``class2_psi1`` with a
``chi`` and a ``floors.psi_min`` that its ``verify flow`` sweep trips,
and ``class2_psi1`` with a theta-dependent psi and a nonzero ``lam0``,
whose integrand carries the psi_theta/(r^2 lambda) term and whose
``verify flow`` states with alpha <= 0 hit the lambda = 0 crossing
error, ``class2_psi1`` with an ``exp`` in psi that overflows inside a
quadrature panel (its ``simulate`` and ``verify flow`` fail there), and
the class-1 catenary coupling ``phi = -1/(alpha r^3)``, whose orbit
equation is linear, so that ``linearize`` reports
``affine: true`` (its ``orbit`` is refused); each gets
``VARIANT_COMMANDS``.  Three more variants of ``class2_psi1``,
``SWEEP_VARIANTS``, each get their own sweeps: the same ``chi`` with no
psi floor and the theta-dependent psi on the fixed branch from a
negative ``lam0`` (no path crosses lambda = 0) get the ``jacobi``,
``consistency`` and ``determinant`` sweeps, which pass with the chi and
theta terms in the phi integrand, and ``verify.phi_override`` 0 gets the
``consistency`` sweep, which fails.  Each shipped config also gets the
``jacobi`` sweep with ``--tamper-j34``, and the ``flow`` sweep with it,
which is refused (``TAMPER_COMMANDS``), and each
again with ``verify.u_floor`` 0.3 (``U_FLOOR_VARIANT``) gets the
``jacobi`` and ``casimir`` sweeps.  It prints one line per command with its exit code
and the sha256 of what it printed, then the sha256 of each report it
wrote.  Two checkouts that print the same lines write byte-identical
reports and messages.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ("simulate",),
    *(("verify", "--which", which)
      for which in ("jacobi", "flow", "casimir", "consistency", "determinant")),
    ("orbit",),
    ("linearize",),
)

STRESS_CONFIG = ROOT / "bench" / "configs" / "class2_quadrature.json"
STRESS_COMMANDS = (
    ("simulate",),
    *(("verify", "--which", which)
      for which in ("flow", "consistency", "determinant", "jacobi", "casimir")),
)

OFF_OSCILLATOR = {
    "system": {
        "kind": "pseudo_potential",
        "g": "0.1*cos(theta)",
        "potential": "1/(2*rbar^2) + 0.1*rbar",
    },
    "initial_state": {"r": 1.0, "theta": 0.0, "u": -0.2, "v": 1.0},
    "time_span": [0.0, 1.0],
    "verify": {"samples": 200, "seed": 20260823, "branch": "fixed"},
}

# phi is (inf - inf), a NaN, where (1e154 r)^2 overflows
NAN_PHI = {
    "system": {"kind": "class1", "phi": "(1e154*r)*(1e154*r) - (1e154*r)*(1e154*r)"},
    "verify": {"samples": 50},
}
NAN_PHI_COMMANDS = (
    ("verify", "--which", "jacobi"),
    ("verify", "--which", "flow"),
    ("verify", "--which", "determinant"),
)

# (document name, shipped config it starts from, sections it replaces)
VARIANTS = (
    ("spiral_rk4.json", "spiral.json", {"integrator": {"method": "rk4", "dt": 0.002}}),
    ("spiral_budget.json", "spiral.json", {"integrator": {"max_steps": 20}}),
    # r = cos(t) crosses the r_min floor 0.01 at t = 1.56089: a stopped
    # trajectory, its last steps and dense reads near its end
    ("spiral_floor_stop.json", "spiral.json", {"time_span": [0.0, 1.6]}),
    # the DP45 step controller rejecting steps: 16 rejections on the way
    # to the r_min stop
    (
        "spiral_rejects.json",
        "spiral.json",
        {"time_span": [0.0, 1.6], "integrator": {"method": "dp45", "rtol": 1e-6, "atol": 1e-9}},
    ),
    # RK4 steps whose stages fail near r = 0: 3 failed stages, each step
    # halved and retried
    (
        "spiral_halving.json",
        "spiral.json",
        {"time_span": [0.0, 1.6], "integrator": {"method": "rk4", "dt": 0.25}},
    ),
    # theta decreasing: falling nodes, which hermite_eval reads reversed,
    # and a simulated duration taken between decreasing times
    (
        "spiral_mirrored.json",
        "spiral.json",
        {
            "initial_state": {"r": 1.0, "theta": 0.0, "u": 0.0, "v": -1.0},
            "orbit": {"theta_span": [-1.0, 0.0]},
        },
    ),
    # a one-point grid, which np.linspace gives as [lo]
    (
        "spiral_grid1.json",
        "spiral.json",
        {
            "orbit": {"theta_span": [0.0, 1.0], "n_grid": 1},
            "linearize": {
                "n_grid": 1,
                "affinity": {
                    "theta": 0.3, "rbar_range": [0.5, 2.0], "abar_range": [0.1, 1.0], "n": 8
                },
            },
        },
    ),
    (
        "class2_lam0.json",
        "class2_psi1.json",
        {
            "system": {
                "kind": "class2",
                "g": "cos(theta)",
                "psi": "1+alpha^2*r",
                "lam0": 0.3,
                "quad_tol": 1e-11,
            }
        },
    ),
    (
        "class2_chi_floor.json",
        "class2_psi1.json",
        {
            "system": {
                "kind": "class2",
                "g": "cos(theta)",
                "psi": "1+alpha+alpha^2*r",
                "chi": "0.1*r*sin(theta)+t",
            },
            "floors": {"psi_min": 0.8},
        },
    ),
    # psi depends on theta: the integrand's psi_theta/(r^2 lam) term, and
    # the error of a path from lam0 across lambda = 0
    (
        "class2_theta.json",
        "class2_psi1.json",
        {
            "system": {
                "kind": "class2",
                "g": "cos(theta)",
                "psi": "1+alpha^2*r+0.1*alpha*sin(theta)",
                "lam0": 0.3,
            }
        },
    ),
    # exp(0.05 r / lambda^2) overflows near lambda = 0, which no state's
    # alpha reaches but every path from lam0 = 0 nears: the first state
    # faults inside a quadrature panel on an operation that raises, and
    # the message names the first such sample in the panel's order
    (
        "class2_overflow.json",
        "class2_psi1.json",
        {"system": {"kind": "class2", "g": "cos(theta)", "psi": "1+alpha^2*r+exp(0.05*r/alpha^2)"}},
    ),
    # the catenary coupling: the one document whose orbit equation is
    # linear, so its affinity fit reports affine: true
    (
        "class1_cosh.json",
        "spiral.json",
        {
            "system": {"kind": "class1", "g": "0", "phi": "-1/(alpha*r^3)"},
            "initial_state": {"r": 1, "theta": 0, "u": -0.5, "v": 1},
            "time_span": [0, 0.5],
        },
    ),
)
VARIANT_COMMANDS = (("simulate",), ("orbit",), ("linearize",), ("verify", "--which", "flow"))

CLASS2_SWEEPS = tuple(
    ("verify", "--which", which) for which in ("jacobi", "consistency", "determinant")
)

# (document name, shipped config it starts from, sections it replaces,
# commands)
SWEEP_VARIANTS = (
    # the chi term of the phi integrand, with no psi floor to trip
    (
        "class2_chi.json",
        "class2_psi1.json",
        {
            "system": {
                "kind": "class2",
                "g": "cos(theta)",
                "psi": "1+alpha+alpha^2*r",
                "chi": "0.1*r*sin(theta)+t",
            }
        },
        CLASS2_SWEEPS,
    ),
    # the psi_theta term, on paths from lam0 < 0 to states with alpha < 0
    (
        "class2_theta_fixed.json",
        "class2_psi1.json",
        {
            "system": {
                "kind": "class2",
                "g": "cos(theta)",
                "psi": "1+alpha^2*r+0.1*alpha*sin(theta)",
                "lam0": -0.3,
            },
            "verify": {"samples": 200, "branch": "fixed"},
        },
        CLASS2_SWEEPS,
    ),
    # a phi that is not the one psi constructs: the consistency sweep fails
    (
        "class2_phi_override.json",
        "class2_psi1.json",
        {"verify": {"samples": 200, "phi_override": "0"}},
        (("verify", "--which", "consistency"),),
    ),
)

TAMPER_COMMANDS = (
    ("verify", "--which", "jacobi", "--tamper-j34"),
    ("verify", "--which", "flow", "--tamper-j34"),
)

# a larger u floor moves every sampled |u|, on both branches
U_FLOOR_VARIANT = {"u_floor": 0.3}
U_FLOOR_COMMANDS = (("verify", "--which", "jacobi"), ("verify", "--which", "casimir"))


def _write_doc(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def digests(main, config: Path, seed: int, out: Path, commands=COMMANDS):
    """Yield (command label, exit code, sha256 of its output,
    {report name: sha256})."""
    for argv in commands:
        run_dir = out / config.stem / "-".join(argv)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            rc = main([*argv, "--config", str(config), "--out", str(run_dir), "--seed", str(seed)])
        reports = {
            path.name: _sha256(path.read_bytes())
            for path in sorted(run_dir.glob("*")) if path.is_file()
        }
        yield " ".join(argv), rc, _sha256(printed.getvalue().encode()), reports


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from ermakov.cli import main as ermakov_main

    shipped = sorted((ROOT / "configs").glob("*.json"))
    runs = [(config, COMMANDS + TAMPER_COMMANDS) for config in shipped]
    runs.append((STRESS_CONFIG, STRESS_COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        runs.append((_write_doc(Path(tmp) / "off_oscillator.json", OFF_OSCILLATOR), COMMANDS))
        runs.append((_write_doc(Path(tmp) / "nan_phi.json", NAN_PHI), NAN_PHI_COMMANDS))
        variants = [(*variant, VARIANT_COMMANDS) for variant in VARIANTS] + list(SWEEP_VARIANTS)
        for name, base, sections, commands in variants:
            doc = json.loads((ROOT / "configs" / base).read_text(encoding="utf-8"))
            runs.append((_write_doc(Path(tmp) / name, dict(doc, **sections)), commands))
        for config in shipped:
            doc = json.loads(config.read_text(encoding="utf-8"))
            doc["verify"] = dict(doc.get("verify", {}), **U_FLOOR_VARIANT)
            path = Path(tmp) / f"{config.stem}_u_floor.json"
            runs.append((_write_doc(path, doc), U_FLOOR_COMMANDS))
        for config, commands in runs:
            for label, rc, printed, reports in digests(
                ermakov_main, config, args.seed, Path(tmp), commands
            ):
                print(f"{config.name} {label}: exit {rc}, output {printed}")
                for name, digest in reports.items():
                    print(f"    {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
