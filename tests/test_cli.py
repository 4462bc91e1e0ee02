import argparse
import ast
import copy
import functools
import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ermakov import cli, poisson, verify
from ermakov import expr as ex
from ermakov.cli import main
from ermakov.config import (
    _STATE_KEYS,
    SWEEPS,
    AffinityProbe,
    LinearizeSettings,
    VerifySettings,
    load_config,
    parse_config,
    sample_states,
)
from ermakov.invariants import spiral_radius
from ermakov.orbit import _times_at
from ermakov.systems import (
    Class2Phi,
    Flow4,
    FuncHandle,
    PhaseState,
    SingularStateError,
    linspace,
    vector_field,
)

from helpers import (
    VARS,
    count_outermost_calls,
    deepest_at_bound,
    float_bits,
    random_tree,
    reference_sample_states,
)
from test_acceptance import time_at_theta

np = pytest.importorskip("numpy")

SPIRAL_DOC = {
    "system": {"kind": "pseudo_potential", "g": "0", "potential": "1/(2*rbar^2)"},
    "initial_state": {"r": 1.0, "theta": 0.0, "u": 0.0, "v": 1.0},
    "time_span": [0.0, 1.4],
    "integrator": {"method": "dp45", "rtol": 1e-10, "atol": 1e-12},
    "floors": {"r_min": 0.01, "v_min": 0.001},
    "verify": {"samples": 150, "branch": "fixed"},
    "orbit": {"theta_span": [0.0, 1.0]},
}

CLASS2_DOC = {
    "system": {"kind": "class2", "g": "cos(theta)", "psi": "1"},
    "initial_state": {"r": 1.0, "theta": 0.0, "u": 0.2, "v": 1.0},
    "time_span": [0.0, 1.0],
    "verify": {"samples": 100, "casimir_potential": "1/(2*rbar^2)"},
}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_simulate_circular_system(tmp_path):
    doc = {
        "system": {"kind": "class1", "g": "0", "phi": "0"},
        "initial_state": {"r": 2.0, "theta": 0.0, "u": 0.0, "v": 1.0},
        "time_span": [0.0, 8.0],
    }
    cfg = write_config(tmp_path, doc)
    code, out = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t", "r", "theta", "u", "v", "I"]
    assert rows[-1][0] == 8.0
    assert rows[-1][2] == pytest.approx(2.0, abs=1e-10)
    report = json.loads((out / "drift.json").read_text())
    assert report["status"] == "completed"
    assert report["stop_reason"] is None
    assert report["drift"]["I"]["drift"] < 1e-12
    assert report["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert report["conventions"]["I"] == {"lambda_lower_limit": 0.0}


def test_simulate_spiral_matches_the_orbit_formula(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t", "r", "theta", "u", "v", "I", "C1", "C2"]
    for row in rows:
        _, r, theta, _, _, i_val, c1, c2 = row
        assert i_val == pytest.approx(0.5, abs=1e-9)
        assert c1 == pytest.approx(0.5, abs=1e-9)
        assert c2 == pytest.approx(0.0, abs=1e-7)
        assert r == pytest.approx(spiral_radius(0.5, 0.0, theta), abs=1e-6)
    report = json.loads((out / "drift.json").read_text())
    assert report["drift"]["C1"]["drift"] < 1e-8


def test_csv_is_lf_terminated_at_full_precision(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 0
    raw = (out / "trajectory.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    # every value must round-trip through its own text
    for line in raw.decode().splitlines()[1:]:
        for text in line.split(","):
            assert "%.17g" % float(text) == text


def test_simulate_reports_a_singular_stop(tmp_path):
    doc = dict(SPIRAL_DOC, time_span=[0.0, 5.0])
    cfg = write_config(tmp_path, doc)
    code, out = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 0
    report = json.loads((out / "drift.json").read_text())
    assert report["status"] == "singular_stop"
    assert "r_min" in report["stop_reason"]
    assert 1.55 < report["t_final"] < math.pi / 2.0


def test_identical_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code_a, out_a = run(tmp_path / "a", "simulate", "--config", str(cfg))
    code_b, out_b = run(tmp_path / "b", "simulate", "--config", str(cfg))
    assert code_a == code_b == 0
    assert (out_a / "trajectory.csv").read_bytes() == (
        out_b / "trajectory.csv"
    ).read_bytes()
    assert (out_a / "drift.json").read_bytes() == (out_b / "drift.json").read_bytes()
    code_c, out_c = run(tmp_path / "c", "verify", "--config", str(cfg), "--which", "jacobi")
    code_d, out_d = run(tmp_path / "d", "verify", "--config", str(cfg), "--which", "jacobi")
    assert code_c == code_d == 0
    assert (out_c / "verify_jacobi.json").read_bytes() == (
        out_d / "verify_jacobi.json"
    ).read_bytes()


def test_verify_jacobi_and_the_tamper_control(tmp_path, capsys):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", "jacobi")
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "verify_jacobi.json").read_text())
    assert report["pass"] is True
    assert report["max_residual"] < 1e-6
    assert report["tampered"] is False
    assert len(report["per_state"]) == 150

    code2, out2 = run(
        tmp_path / "t", "verify", "--config", str(cfg), "--which", "jacobi", "--tamper-j34"
    )
    assert code2 == 1
    assert "FAIL" in capsys.readouterr().out
    report2 = json.loads((out2 / "verify_jacobi.json").read_text())
    assert report2["pass"] is False
    assert report2["max_residual"] > 1e-3


@pytest.mark.parametrize("which", ["flow", "casimir", "consistency", "determinant"])
def test_the_tamper_flag_is_refused_outside_jacobi(tmp_path, capsys, which):
    # each of these sweeps once ignored the flag and passed
    cfg = write_config(tmp_path, CLASS2_DOC if which == "consistency" else SPIRAL_DOC)
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", which, "--tamper-j34")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --tamper-j34 applies only to --which jacobi\n"
    assert not out.exists()


def test_one_list_names_the_sweeps():
    (commands,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (which,) = [a for a in commands.choices["verify"]._actions if a.dest == "which"]
    assert tuple(verify._SWEEPS) == SWEEPS == tuple(which.choices)


@pytest.mark.parametrize(
    "which, tamper", [(which, False) for which in SWEEPS] + [("jacobi", True)]
)
def test_each_sweep_runs_on_one_matrix_field(tmp_path, monkeypatch, which, tamper):
    cfg = write_config(tmp_path, CLASS2_DOC if which == "consistency" else SPIRAL_DOC)
    builds = count_outermost_calls(monkeypatch, poisson, "matrix_field")
    flags = ("--tamper-j34",) if tamper else ()
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", which, *flags)
    assert code == (1 if tamper else 0)
    # consistency reads no field, so it may skip the build
    assert builds[0] == 1 or (which == "consistency" and builds[0] == 0)
    report = json.loads((out / f"verify_{which}.json").read_text())
    # only the jacobi report says whether its field was tampered with
    assert report.get("tampered", "absent") == (tamper if which == "jacobi" else "absent")


@pytest.mark.parametrize("doc", [SPIRAL_DOC, CLASS2_DOC], ids=("pseudo", "class2"))
def test_verify_flow_reconstruction(tmp_path, doc):
    cfg = write_config(tmp_path, doc)
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", "flow")
    assert code == 0
    report = json.loads((out / f"verify_flow.json").read_text())
    assert report["max_residual"] < 1e-10


# phi is inf - inf, a NaN, where (1e154 r)^2 overflows (r > 1.34) and 0 below
NAN_PHI_DOC = {
    "system": {"kind": "class1", "phi": "(1e154*r)*(1e154*r) - (1e154*r)*(1e154*r)"},
    "verify": {"samples": 50},
}


def square_overflows(row) -> bool:
    """(1e154 r)^2 at the row's r is inf, so phi is inf - inf."""
    r = row["r"]
    return math.isinf((1e154 * r) * (1e154 * r))


def partial_overflows(row) -> bool:
    """d/dr of (1e154 r)^2, 1e154 (1e154 r) + (1e154 r) 1e154 as
    differentiated, is inf at the row's r (from r > 0.899 on), so the
    partial is inf - inf."""
    r = row["r"]
    return math.isinf(1e154 * (1e154 * r) + (1e154 * r) * 1e154)


@pytest.mark.parametrize("seed", [1, 3])
def test_a_nan_residual_fails_the_sweep(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, NAN_PHI_DOC)
    code, out = run(
        tmp_path, "verify", "--config", str(cfg), "--which", "flow", "--seed", str(seed)
    )
    report = json.loads((out / "verify_flow.json").read_text())
    residuals = [row["residual"] for row in report["per_state"]]
    # the first is finite, so max() over the residuals would pass over the NaNs
    assert not math.isnan(residuals[0])
    assert list(map(math.isnan, residuals)) == list(map(square_overflows, report["per_state"]))
    assert any(map(math.isnan, residuals))
    assert code == 1
    assert report["pass"] is False
    assert math.isnan(report["max_residual"])
    assert "max_residual=nan" in capsys.readouterr().out


def test_a_nan_jacobi_residual_fails_the_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, NAN_PHI_DOC)
    code, out = run(
        tmp_path, "verify", "--config", str(cfg), "--which", "jacobi", "--seed", "1"
    )
    report = json.loads((out / "verify_jacobi.json").read_text())
    residuals = [row["residual"] for row in report["per_state"]]
    assert not math.isnan(residuals[0])
    # phi is NaN where its square overflows; d(phi)/dr, NaN from a smaller
    # r on, is not formed: no Jacobi sum reads it
    assert list(map(math.isnan, residuals)) == list(map(square_overflows, report["per_state"]))
    assert sum(map(partial_overflows, report["per_state"])) > sum(map(math.isnan, residuals))
    assert any(map(math.isnan, residuals))
    assert code == 1
    assert report["pass"] is False
    assert math.isnan(report["max_residual"])
    assert "max_residual=nan" in capsys.readouterr().out


def test_a_nan_casimir_component_fails_its_state(tmp_path, monkeypatch):
    from ermakov import poisson

    original = poisson.casimir_residuals

    def nan_in_the_third(field, grad_c, s, t=0.0):
        res = list(original(field, grad_c, s, t))
        res[2] = math.nan
        return tuple(res)

    monkeypatch.setattr(poisson, "casimir_residuals", nan_in_the_third)
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", "casimir")
    report = json.loads((out / "verify_casimir.json").read_text())
    assert all(math.isnan(row["residual"]) for row in report["per_state"])
    assert code == 1
    assert math.isnan(report["max_residual"])


# psi is 1 + (inf - inf), a NaN, where (1e154 r)^2 overflows (r > 1.34)
NAN_PSI_DOC = {
    "system": {
        "kind": "class2",
        "g": "0",
        "psi": "1 + ((1e154*r)*(1e154*r) - (1e154*r)*(1e154*r))",
    },
    "verify": {"samples": 50},
}


def test_nan_determinant_deviations_are_reported(tmp_path):
    cfg = write_config(tmp_path, NAN_PSI_DOC)
    code, out = run(
        tmp_path, "verify", "--config", str(cfg), "--which", "determinant", "--seed", "1"
    )
    report = json.loads((out / "verify_determinant.json").read_text())
    residuals = [row["residual"] for row in report["per_state"]]
    # the first state is finite, so max() would fold past the NaNs
    assert not math.isnan(residuals[0])
    # phi's integrand takes psi's partial d/dr, NaN where it overflows
    assert list(map(math.isnan, residuals)) == list(map(partial_overflows, report["per_state"]))
    assert any(map(math.isnan, residuals))
    assert code == 1
    assert math.isnan(report["max_residual"])
    assert math.isnan(report["pfaffian_identity_max"])
    assert math.isnan(report["quoted_form_max_rel_dev"])


@pytest.mark.parametrize("seed", [0, 3, 17, 20260823, 2**32 + 5, 2**70 + 3, 2**200 + 7])
def test_the_draw_is_the_per_number_reference_bit_for_bit(seed):
    for branch, width in (("fixed", 4), ("any", 6)):
        for u_floor in (0.05, 0.3, 2.0, 5e-324):
            for n in (0, 1, 7, 150):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                states = sample_states(rng, n, u_floor, branch)
                want = reference_sample_states(ref_rng, n, u_floor, branch)
                assert [float_bits(s) for s in states] == [float_bits(s) for s in want]
                assert all(
                    type(s) is PhaseState and all(type(x) is float for x in s) for s in states
                )
                # both took four doubles per state, six on "any"
                assert rng.random() == ref_rng.random()
                skipped = random.Random(seed)
                for _ in range(width * n + 1):
                    skipped.random()
                assert rng.getstate() == skipped.getstate()


@pytest.mark.parametrize("u_floor", [2.5, math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_a_u_floor_above_two_or_not_finite_is_refused(u_floor):
    # a floor at or below 0 would draw u of either sign on the "fixed"
    # branch, which pins u < 0; the config loader refuses it too
    with pytest.raises(ValueError, match="u_floor must be positive and at most 2, got"):
        sample_states(random.Random(1), 3, u_floor, "fixed")
    if math.isfinite(u_floor) and u_floor <= 2.0:
        return  # uniform takes [u_floor, 2] for any finite u_floor below 2
    # unrefused, the per-number reference would draw |u| above 2 or NaN
    states = reference_sample_states(random.Random(1), 3, u_floor, "fixed")
    assert not any(0.0 < -s.u <= 2.0 for s in states)


def test_verify_casimir_depends_on_the_matrix_kind(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", "casimir")
    assert code == 0
    report = json.loads((out / "verify_casimir.json").read_text())
    assert report["matrix_kind"] == "class1"
    assert report["max_residual"] < 1e-7

    # same gradients against the nondegenerate class-2 matrix: no Casimirs
    cfg2 = write_config(tmp_path, CLASS2_DOC, "c2.json")
    code2, out2 = run(tmp_path / "x", "verify", "--config", str(cfg2), "--which", "casimir")
    assert code2 == 1
    report2 = json.loads((out2 / "verify_casimir.json").read_text())
    assert report2["matrix_kind"] == "class2"
    assert report2["max_residual"] > 1.0


def test_verify_casimir_checks_the_configured_potential(tmp_path):
    # the spiral's matrix does not annihilate the Casimir gradients of a
    # foreign potential: the configured one is checked, not the system's
    reports = []
    for name, potential in (("foreign", "1/(2*rbar^2) + 0.1*rbar"), ("own", "1/(2*rbar^2)")):
        cfg = write_config(tmp_path, _edit(SPIRAL_DOC, "verify.casimir_potential", potential))
        code, out = run(tmp_path / name, "verify", "--config", str(cfg), "--which", "casimir")
        reports.append((code, json.loads((out / "verify_casimir.json").read_text())))
    assert reports[0][0] == 1 and reports[0][1]["max_residual"] > 1e-3
    # the system's own potential, given, gives the residuals of its absence
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path / "absent", "verify", "--config", str(cfg), "--which", "casimir")
    absent = json.loads((out / "verify_casimir.json").read_text())
    assert reports[1][0] == code == 0 and reports[1][1]["per_state"] == absent["per_state"]


def test_verify_consistency_and_the_zero_phi_control(tmp_path):
    cfg = write_config(tmp_path, CLASS2_DOC)
    code, _ = run(tmp_path, "verify", "--config", str(cfg), "--which", "consistency")
    assert code == 0

    broken = dict(CLASS2_DOC, verify=dict(CLASS2_DOC["verify"], phi_override="0"))
    cfg2 = write_config(tmp_path, broken, "broken.json")
    code2, out2 = run(tmp_path / "x", "verify", "--config", str(cfg2), "--which", "consistency")
    assert code2 == 1
    report = json.loads((out2 / "verify_consistency.json").read_text())
    assert report["phi_overridden"] is True
    # psi = 1, phi = 0 leaves the full 2/r mismatch, r in [0.5, 3]
    assert report["max_residual"] == pytest.approx(4.0, rel=0.1)


def test_verify_consistency_needs_class2(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, _ = run(tmp_path, "verify", "--config", str(cfg), "--which", "consistency")
    assert code == 2


def test_verify_determinant_degenerate_case_passes(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", "determinant")
    assert code == 0
    report = json.loads((out / "verify_determinant.json").read_text())
    assert report["mode"] == "degenerate"
    assert report["max_residual"] < 1e-10


def test_verify_determinant_quoted_form_disagrees(tmp_path):
    # the class-2 sweep checks det against (u psi / r^2)^2 and passes; the
    # quoted closed form does not match the cofactor determinant, which the
    # report records; the Pfaffian identity holds
    cfg = write_config(tmp_path, CLASS2_DOC)
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", "determinant")
    assert code == 0
    report = json.loads((out / "verify_determinant.json").read_text())
    assert report["mode"] == "closed_form"
    assert report["pass"] is True
    assert report["max_residual"] < 1e-8
    assert report["quoted_form_max_rel_dev"] > 1.0
    assert report["pfaffian_identity_max"] < 1e-8


@pytest.mark.parametrize(
    "doc, which, tolerance",
    [
        (SPIRAL_DOC, "jacobi", 1e-6),
        (SPIRAL_DOC, "flow", 1e-10),
        (SPIRAL_DOC, "casimir", 1e-7),
        (CLASS2_DOC, "consistency", 1e-7),
        (SPIRAL_DOC, "determinant", 1e-10),
        (CLASS2_DOC, "determinant", 1e-8),
    ],
    ids=("jacobi", "flow", "casimir", "consistency", "determinant-class1", "determinant-class2"),
)
def test_each_sweep_reports_its_default_tolerance(tmp_path, doc, which, tolerance):
    doc = dict(doc, verify=dict(doc["verify"], samples=3))
    assert "tolerance" not in doc["verify"]
    cfg = write_config(tmp_path, doc)
    run(tmp_path, "verify", "--config", str(cfg), "--which", which)
    report = json.loads((tmp_path / "out" / f"verify_{which}.json").read_text())
    assert report["tolerance"] == tolerance


def test_orbit_command_on_the_spiral(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, "orbit", "--config", str(cfg))
    assert code == 0
    report = json.loads((out / "orbit.json").read_text())
    assert report["pass"] is True
    assert report["C1"] == pytest.approx(0.5, abs=1e-12)
    assert report["C2"] == pytest.approx(0.0, abs=1e-12)
    assert report["max_orbit_error"] < 1e-6
    assert report["max_time_quadrature_error"] < 1e-5
    assert report["elapsed_quadrature"] == pytest.approx(math.pi / 4.0, abs=1e-5)
    assert report["conventions"]["C2"]["form"] == "closed"


def test_orbit_command_off_the_turning_point(tmp_path):
    doc = dict(
        SPIRAL_DOC,
        initial_state={"r": 1.0, "theta": 0.0, "u": -1.0, "v": 1.0},
        time_span=[0.0, 0.7],
        floors={"r_min": 0.01, "v_min": 0.001},
    )
    cfg = write_config(tmp_path, doc)
    code, out = run(tmp_path, "orbit", "--config", str(cfg))
    assert code == 0
    report = json.loads((out / "orbit.json").read_text())
    assert report["C1"] == pytest.approx(1.0, abs=1e-12)
    assert report["C2"] == pytest.approx(-0.5, abs=1e-12)
    assert report["pass"] is True


# v < 0: theta falls with time, and the orbit reads as the spiral's mirror
# image, the simulated time between the span's ends a duration
MIRRORED_DOC = dict(
    SPIRAL_DOC,
    initial_state={"r": 1.0, "theta": 0.0, "u": 0.0, "v": -1.0},
    orbit={"theta_span": [-1.0, 0.0]},
)


def test_orbit_command_on_the_mirrored_spiral(tmp_path):
    reports = []
    for name, doc in (("spiral", SPIRAL_DOC), ("mirrored", MIRRORED_DOC)):
        cfg = write_config(tmp_path, doc, f"{name}.json")
        code = main(["orbit", "--config", str(cfg), "--out", str(tmp_path / name)])
        assert code == 0
        reports.append(json.loads((tmp_path / name / "orbit.json").read_text()))
    spiral, report = reports
    assert report["pass"] is True
    assert report["theta_span"] == [-1.0, 0.0]
    assert report["elapsed_simulated"] == pytest.approx(math.pi / 4.0, abs=1e-5)
    for key in ("elapsed_simulated", "elapsed_quadrature", "max_time_quadrature_error"):
        assert report[key] == spiral[key], key
    assert report["max_orbit_error"] == pytest.approx(spiral["max_orbit_error"], rel=1e-6)


@pytest.mark.parametrize("doc", [SPIRAL_DOC, MIRRORED_DOC], ids=("forward", "mirrored"))
def test_the_time_read_inverts_theta(doc):
    traj = parse_config(json.dumps(doc).encode()).trajectory()
    # on the spiral r = cos t and theta = v0 tan t, so t = atan(v0 theta)
    v0 = doc["initial_state"]["v"]
    lo, hi = doc["orbit"]["theta_span"]
    # the two reads orbit makes, at the ends of its span
    ends = _times_at(traj, [lo, hi])
    assert max(abs(t - math.atan(v0 * th)) for t, th in zip(ends, (lo, hi))) < 1e-9
    # between nodes, the cubic's own error
    thetas = linspace(lo, hi, 21)
    times = _times_at(traj, thetas)
    assert max(abs(t - math.atan(v0 * th)) for t, th in zip(times, thetas)) < 1e-7


def test_the_time_read_agrees_with_bisection():
    traj = parse_config(json.dumps(SPIRAL_DOC).encode()).trajectory()
    thetas = linspace(0.0, 1.0, 21)
    for theta, t in zip(thetas, _times_at(traj, thetas)):
        assert t == pytest.approx(time_at_theta(traj, theta), abs=1e-7)


def test_orbit_requires_the_singular_oscillator(tmp_path):
    cfg = write_config(tmp_path, CLASS2_DOC)
    code, _ = run(tmp_path, "orbit", "--config", str(cfg))
    assert code == 2


def test_linearize_spiral_curve(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, "linearize", "--config", str(cfg))
    assert code == 0
    report = json.loads((out / "linearize.json").read_text())
    assert report["pass"] is True
    assert report["orbit_match"] < 1e-6
    assert report["affinity"]["affine"] is False
    assert report["affinity"]["residual"] > 0.01
    header, rows = read_csv(out / "curve.csv")
    assert header == ["theta", "rbar", "abar"]
    assert rows[0][1] == pytest.approx(1.0)


def test_linearize_detects_a_linear_orbit_equation(tmp_path):
    doc = {
        "system": {"kind": "class1", "g": "0", "phi": "-1/(alpha*r^3)"},
        "initial_state": {"r": 1.0, "theta": 0.0, "u": -0.5, "v": 1.0},
        "time_span": [0.0, 0.4],
    }
    cfg = write_config(tmp_path, doc)
    code, out = run(tmp_path, "linearize", "--config", str(cfg))
    assert code == 0
    report = json.loads((out / "linearize.json").read_text())
    assert report["affinity"]["affine"] is True
    assert report["affinity"]["B"] == pytest.approx(1.0, abs=1e-9)
    assert report["orbit_match"] < 1e-6


def test_linearize_refuses_class2(tmp_path, capsys):
    # the orbit equation lacks class 2's 2 u v^2 psi / r term
    cfg = write_config(tmp_path, CLASS2_DOC)
    code, out = run(tmp_path, "linearize", "--config", str(cfg))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: linearize applies to class1 and pseudo_potential systems\n"
    )
    assert not out.exists()


def test_linearize_fails_when_theta_turns_back(tmp_path, capsys):
    doc = {
        "system": {"kind": "class1", "g": "1"},
        "initial_state": {"r": 3.0, "theta": 0.0, "u": 0.0, "v": 1.0},
        "time_span": [0.0, 10.0],
        "integrator": {"method": "rk4", "dt": 5.0},
    }
    cfg = write_config(tmp_path, doc)
    code, _ = run(tmp_path, "linearize", "--config", str(cfg))
    assert code == 1
    assert "changes sign" in capsys.readouterr().err


def test_seed_override_is_recorded(tmp_path):
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(
        tmp_path, "verify", "--config", str(cfg), "--which", "flow", "--seed", "7"
    )
    assert code == 0
    report = json.loads((out / "verify_flow.json").read_text())
    assert report["seed"] == 7


def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a file where the directory goes, then a directory where the first
    # report goes: each once ended in a traceback
    cfg = write_config(tmp_path, SPIRAL_DOC)
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    for target, reason in ((blocked, "File exists"), (out, "Is a directory")):
        assert main(["simulate", "--config", str(cfg), "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write reports to {str(target)!r}: {reason}\n"
    assert blocked.read_text() == ""
    assert [p.name for p in out.iterdir()] == ["trajectory.csv"]
    assert list((out / "trajectory.csv").iterdir()) == []


def test_a_report_set_is_written_whole_or_not_at_all(tmp_path, capsys):
    spiral = write_config(tmp_path, SPIRAL_DOC)
    free = dict(SPIRAL_DOC, system={"kind": "class1", "g": "0", "phi": "0"})
    circular = write_config(tmp_path, free, "circular.json")
    # a directory where the second report goes: the first is not written
    out = tmp_path / "out"
    (out / "drift.json").mkdir(parents=True)
    assert main(["simulate", "--config", str(spiral), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write reports to {str(out)!r}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == ["drift.json"]
    # an earlier run's set is replaced by the next run's, every report of it
    (out / "drift.json").rmdir()
    for cfg, into in ((spiral, out), (circular, out), (circular, tmp_path / "fresh")):
        assert main(["simulate", "--config", str(cfg), "--out", str(into)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["drift.json", "trajectory.csv"]
    for name in ("drift.json", "trajectory.csv"):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_a_failed_report_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, SPIRAL_DOC)

    def full(path, obj):
        Path(path).write_text("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_json", full)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [("simulate",), ("verify", "--which", "flow"), ("orbit",), ("linearize",)],
    ids=lambda argv: argv[0],
)
def test_a_negative_seed_flag_is_a_config_error(tmp_path, capsys, argv):
    # checked as the verify.seed key is, before any output is made
    cfg = write_config(tmp_path, SPIRAL_DOC)
    code, out = run(tmp_path, *argv, "--config", str(cfg), "--seed", "-1")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


def test_config_errors_exit_2(tmp_path, capsys):
    bad_expr = dict(SPIRAL_DOC, system={"kind": "pseudo_potential", "g": "cos(", "potential": "rbar"})
    cfg = write_config(tmp_path, bad_expr)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err

    unknown = dict(SPIRAL_DOC, wat=1)
    cfg2 = write_config(tmp_path, unknown, "unknown.json")
    assert main(["simulate", "--config", str(cfg2), "--out", str(tmp_path)]) == 2

    headless = {k: v for k, v in SPIRAL_DOC.items() if k != "initial_state"}
    cfg3 = write_config(tmp_path, headless, "headless.json")
    assert main(["simulate", "--config", str(cfg3), "--out", str(tmp_path)]) == 2

    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2


_DROP = object()


def _edit(base, path, value):
    """A deep copy of ``base`` with the entry at ``path`` (a dotted key)
    set to ``value``, or removed when ``value`` is _DROP."""
    doc = copy.deepcopy(base)
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node.setdefault(key, {})
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


# (id, document or raw bytes, the one line printed to stderr); each
# document carries exactly one fault
CONFIG_FAULTS = [
    ("unknown-top", _edit(SPIRAL_DOC, "wat", 1), "unknown keys ['wat'] in config"),
    ("unknown-system", _edit(SPIRAL_DOC, "system.wat", 1), "unknown keys ['wat'] in system"),
    ("unknown-state", _edit(SPIRAL_DOC, "initial_state.w", 1), "unknown keys ['w'] in initial_state"),
    ("unknown-integrator", _edit(SPIRAL_DOC, "integrator.order", 5), "unknown keys ['order'] in integrator"),
    ("unknown-floors", _edit(SPIRAL_DOC, "floors.w_min", 1), "unknown keys ['w_min'] in floors"),
    # no command reads a frequency-shift term F(theta): the flow ignored it
    ("system-f", _edit(SPIRAL_DOC, "system.f", "3*theta^2"), "unknown keys ['f'] in system"),
    # DP45 picks its own steps; a dt there was accepted and ignored
    ("dt-dp45", _edit(SPIRAL_DOC, "integrator.dt", 0.5), "integrator.dt applies only to rk4, not dp45"),
    (
        "psi-min-class1",
        _edit(_edit(SPIRAL_DOC, "system", {"kind": "class1", "phi": "0"}), "floors.psi_min", 0.5),
        "floors.psi_min applies only to class2, not class1",
    ),
    ("unknown-verify", _edit(SPIRAL_DOC, "verify.sample", 3), "unknown keys ['sample'] in verify"),
    ("unknown-tolerance", _edit(SPIRAL_DOC, "verify.tolerance.orbit", 1), "unknown keys ['orbit'] in verify.tolerance"),
    ("unknown-orbit", _edit(SPIRAL_DOC, "orbit.span", 1), "unknown keys ['span'] in orbit"),
    ("unknown-linearize", _edit(SPIRAL_DOC, "linearize.grid", 1), "unknown keys ['grid'] in linearize"),
    ("unknown-affinity", _edit(SPIRAL_DOC, "linearize.affinity.m", 1), "unknown keys ['m'] in linearize.affinity"),
    ("object-system", _edit(SPIRAL_DOC, "system", "x"), "config.system must be an object"),
    ("object-state", _edit(SPIRAL_DOC, "initial_state", [1]), "config.initial_state must be an object"),
    ("object-integrator", _edit(SPIRAL_DOC, "integrator", 1), "config.integrator must be an object"),
    ("object-floors", _edit(SPIRAL_DOC, "floors", None), "config.floors must be an object"),
    ("object-verify", _edit(SPIRAL_DOC, "verify", []), "config.verify must be an object"),
    ("object-tolerance", _edit(SPIRAL_DOC, "verify.tolerance", 1e-6), "verify.tolerance must be an object"),
    ("object-orbit", _edit(SPIRAL_DOC, "orbit", "x"), "config.orbit must be an object"),
    ("object-linearize", _edit(SPIRAL_DOC, "linearize", 0), "config.linearize must be an object"),
    ("object-affinity", _edit(SPIRAL_DOC, "linearize.affinity", 8), "linearize.affinity must be an object"),
    ("top-level", b"[1, 2]", "top level must be a JSON object"),
    ("not-json", b"{\"system\": ", "not valid UTF-8 JSON: Expecting value: line 1 column 12 (char 11)"),
    (
        "not-utf8",
        b"\xff{}",
        "not valid UTF-8 JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    ("missing-system", _edit(SPIRAL_DOC, "system", _DROP), "config.system is required"),
    (
        "class1-psi",
        _edit(SPIRAL_DOC, "system", {"kind": "class1", "phi": "0", "psi": "1"}),
        "unknown keys ['psi'] in system",
    ),
    ("pseudo-potential-phi", _edit(SPIRAL_DOC, "system.phi", "0"), "unknown keys ['phi'] in system"),
    ("class2-potential", _edit(CLASS2_DOC, "system.potential", "rbar"), "unknown keys ['potential'] in system"),
    ("missing-psi", _edit(CLASS2_DOC, "system.psi", _DROP), "system.psi is required for class2"),
    (
        "missing-potential",
        _edit(SPIRAL_DOC, "system.potential", _DROP),
        "system.potential is required for pseudo_potential",
    ),
    ("missing-state-r", _edit(SPIRAL_DOC, "initial_state.r", _DROP), "initial_state.r is required"),
    (
        "system-kind",
        _edit(SPIRAL_DOC, "system.kind", "class3"),
        "system.kind must be class1, class2 or pseudo_potential, got 'class3'",
    ),
    ("expr-type", _edit(SPIRAL_DOC, "system.g", 0), "system.g must be an expression string, got 0"),
    ("null-g", _edit(SPIRAL_DOC, "system.g", None), "system.g must be an expression string, got None"),
    (
        "null-phi",
        _edit(SPIRAL_DOC, "system", {"kind": "class1", "phi": None}),
        "system.phi must be an expression string, got None",
    ),
    ("null-psi", _edit(CLASS2_DOC, "system.psi", None), "system.psi must be an expression string, got None"),
    (
        "null-potential",
        _edit(SPIRAL_DOC, "system.potential", None),
        "system.potential must be an expression string, got None",
    ),
    (
        "expr-syntax",
        _edit(CLASS2_DOC, "system.psi", "1+"),
        "system.psi: expected a number, name or '(', found 'end of input' (offset 2)",
    ),
    (
        "expr-verify",
        _edit(SPIRAL_DOC, "verify.casimir_potential", ["rbar"]),
        "verify.casimir_potential must be an expression string, got ['rbar']",
    ),
    (
        "system-variables",
        _edit(SPIRAL_DOC, "system.g", "r"),
        "system: G uses variables ['r'], only theta is allowed",
    ),
    (
        "potential-variables",
        _edit(SPIRAL_DOC, "system.potential", "theta/rbar"),
        "system: potential uses variables ['theta'], only (rbar, t) are allowed",
    ),
    (
        "chi-variables",
        _edit(CLASS2_DOC, "system.chi", "alpha"),
        "system: chi uses variables ['alpha'] outside (r, theta, t)",
    ),
    (
        "casimir-potential-variables",
        _edit(CLASS2_DOC, "verify.casimir_potential", "theta/rbar"),
        "verify.casimir_potential: potential uses variables ['theta'], only (rbar, t) are allowed",
    ),
    ("number-state", _edit(SPIRAL_DOC, "initial_state.u", "0"), "initial_state.u must be a number, got '0'"),
    ("number-lam0", _edit(CLASS2_DOC, "system.lam0", True), "system.lam0 must be a number, got True"),
    (
        "number-affinity",
        _edit(SPIRAL_DOC, "linearize.affinity.theta", None),
        "linearize.affinity.theta must be a number, got None",
    ),
    ("state-domain", _edit(SPIRAL_DOC, "initial_state.r", -1), "initial_state: r must be positive, got -1.0"),
    ("positive-floor", _edit(SPIRAL_DOC, "floors.r_min", 0), "floors.r_min must be positive, got 0.0"),
    ("positive-quad-tol", _edit(CLASS2_DOC, "system.quad_tol", -1e-9), "system.quad_tol must be positive, got -1e-09"),
    ("positive-rtol", _edit(SPIRAL_DOC, "integrator.rtol", 0), "integrator.rtol must be positive, got 0.0"),
    ("positive-dt", _edit(SPIRAL_DOC, "integrator.dt", "0.1"), "integrator.dt must be a number, got '0.1'"),
    (
        "positive-tolerance",
        _edit(SPIRAL_DOC, "verify.tolerance.jacobi", 0),
        "verify.tolerance.jacobi must be positive, got 0.0",
    ),
    ("unknown-fd-step", _edit(SPIRAL_DOC, "verify.fd_step", 1e-5), "unknown keys ['fd_step'] in verify"),
    (
        "positive-orbit",
        _edit(SPIRAL_DOC, "orbit.time_tolerance", 0),
        "orbit.time_tolerance must be positive, got 0.0",
    ),
    (
        "positive-linearize",
        _edit(SPIRAL_DOC, "linearize.tolerance", False),
        "linearize.tolerance must be a number, got False",
    ),
    (
        "count-samples",
        _edit(SPIRAL_DOC, "verify.samples", 0),
        "verify.samples must be a positive integer, got 0",
    ),
    (
        "count-max-steps",
        _edit(SPIRAL_DOC, "integrator.max_steps", 10.0),
        "integrator.max_steps must be a positive integer, got 10.0",
    ),
    ("count-orbit", _edit(SPIRAL_DOC, "orbit.n_grid", True), "orbit.n_grid must be a positive integer, got True"),
    (
        "count-affinity",
        _edit(SPIRAL_DOC, "linearize.affinity.n", -8),
        "linearize.affinity.n must be a positive integer, got -8",
    ),
    (
        "affinity-grid",
        _edit(SPIRAL_DOC, "linearize.affinity.n", 5),
        "linearize.affinity.n must be at least 6, got 5",
    ),
    # JSON's 1e400 parses to inf; time_span [0, inf] once ran no step and exited 0
    (
        "span-infinite",
        json.dumps(_edit(SPIRAL_DOC, "time_span", "SPAN")).replace('"SPAN"', "[0.0, 1e400]").encode(),
        "time_span[1] must be finite, got inf",
    ),
    ("state-nan", _edit(SPIRAL_DOC, "initial_state.theta", math.nan), "initial_state.theta must be finite, got nan"),
    ("state-huge-integer", _edit(SPIRAL_DOC, "initial_state.u", -(10**400)), "initial_state.u must be finite, got -inf"),
    ("span-length", _edit(SPIRAL_DOC, "time_span", [1.0]), "time_span must be a two-element array"),
    ("span-number", _edit(SPIRAL_DOC, "time_span", [0.0, "1"]), "time_span[1] must be a number, got '1'"),
    (
        "span-order",
        _edit(SPIRAL_DOC, "orbit.theta_span", [1, 0]),
        "orbit.theta_span must increase, got [1.0, 0.0]",
    ),
    # once refused by affinity_test, after both integrations, with exit 1
    (
        "rbar-range-positive",
        _edit(SPIRAL_DOC, "linearize.affinity.rbar_range", [-1.0, 2.0]),
        "linearize.affinity.rbar_range must be positive, got [-1.0, 2.0]",
    ),
    (
        "span-affinity",
        _edit(SPIRAL_DOC, "linearize.affinity.abar_range", [0.5, 0.5]),
        "linearize.affinity.abar_range must increase, got [0.5, 0.5]",
    ),
    (
        "method",
        _edit(SPIRAL_DOC, "integrator.method", "euler"),
        "integrator.method must be rk4 or dp45, got 'euler'",
    ),
    # --tamper-j34 is the one switch of the tamper control
    (
        "tamper-key",
        _edit(SPIRAL_DOC, "verify.tamper_j34", True),
        "unknown keys ['tamper_j34'] in verify",
    ),
    # deeper expressions once overflowed the stack of the parser or of
    # differentiate and == on the tree
    (
        "depth-nesting",
        _edit(SPIRAL_DOC, "system.g", "(" * 300 + "theta" + ")" * 300),
        "system.g: expression nested deeper than 32 levels (offset 32)",
    ),
    (
        "depth-sum",
        _edit(SPIRAL_DOC, "system", {"kind": "class1", "phi": "+".join(["sin(r)*r"] * 400)}),
        "system.phi: expression tree deeper than 32 levels (offset 0)",
    ),
    (
        "seed",
        _edit(SPIRAL_DOC, "verify.seed", -3),
        "verify.seed must be a nonnegative integer, got -3",
    ),
    (
        "seed-bool",
        _edit(SPIRAL_DOC, "verify.seed", False),
        "verify.seed must be a nonnegative integer, got False",
    ),
    (
        "branch",
        _edit(SPIRAL_DOC, "verify.branch", "both"),
        "verify.branch must be any or fixed, got 'both'",
    ),
    (
        "u-floor",
        _edit(SPIRAL_DOC, "verify.u_floor", 3.0),
        "verify.u_floor must be at most 2, got 3.0",
    ),
]


@pytest.mark.parametrize(
    "document, message", [case[1:] for case in CONFIG_FAULTS], ids=[case[0] for case in CONFIG_FAULTS]
)
def test_each_config_fault_has_its_own_message(tmp_path, capsys, document, message):
    path = tmp_path / "run.json"
    path.write_bytes(document if isinstance(document, bytes) else json.dumps(document).encode())
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "orbit", "linearize"])
def test_a_command_that_integrates_needs_an_initial_state(tmp_path, capsys, command):
    cfg = write_config(tmp_path, _edit(SPIRAL_DOC, "initial_state", _DROP))
    code, out = run(tmp_path, command, "--config", str(cfg))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: initial_state is required for this command\n"
    assert not out.exists()


def test_a_run_that_fails_leaves_no_out(tmp_path, capsys):
    # the step budget runs out inside the command, after the config loaded
    cfg = write_config(tmp_path, _edit(SPIRAL_DOC, "integrator.max_steps", 20))
    code, out = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: step budget 20 exhausted at t=")
    assert not out.exists()


# the exit-code contract: each expression slot, with the kind of system
# that reads it and the variables it may use, and each kind's coupling key
_SLOTS = {
    "g": ("class1", ("theta",)),
    "phi": ("class1", ("alpha", "r", "theta", "t")),
    "psi": ("class2", ("alpha", "r", "theta", "t")),
    "potential": ("pseudo_potential", ("t", "rbar")),
}
_COUPLINGS = {
    "class1": ("phi", "-1/(alpha*r^3)"),
    "class2": ("psi", "1+alpha^2*r"),
    "pseudo_potential": ("potential", "1/(2*rbar^2)"),
}


def _contract_texts(rng, names):
    """Random trees in the slot's variables, and nestings at and just past
    the depth bound."""
    for _ in range(5):
        tree = random_tree(rng, 4)
        for var in VARS:
            tree = ex.substitute(tree, var, ex.Var(rng.choice(names)))
        yield ex.to_text(tree)
    for tree in deepest_at_bound(names[-1]):
        yield ex.to_text(tree)
        yield f"sqrt({ex.to_text(tree)})"
    for pairs in (ex.MAX_DEPTH - 1, ex.MAX_DEPTH, 300):
        yield "(" * pairs + names[-1] + ")" * pairs
    yield "+".join([f"sin({names[-1]})*{names[-1]}"] * 400)


def test_every_expression_gives_an_exit_code_and_no_traceback(tmp_path, capsys):
    rng = random.Random(21)
    commands = (["simulate"], *(["verify", "--which", w] for w in SWEEPS), ["orbit"], ["linearize"])
    for slot, (kind, names) in _SLOTS.items():
        key, default = _COUPLINGS[kind]
        for text in _contract_texts(rng, names):
            doc = {
                "system": {"kind": kind, "g": "0", key: default, slot: text},
                "initial_state": {"r": 1.0, "theta": 0.1, "u": 0.2, "v": 1.0},
                "time_span": [0.0, 0.2],
                "integrator": {"max_steps": 400},
                # a pseudo_potential system's own potential, fuzzed, feeds its casimir sweep
                "verify": {"samples": 4} if kind == "pseudo_potential"
                else {"samples": 4, "casimir_potential": "1/(2*rbar^2)"},
                "orbit": {"n_grid": 20},
                "linearize": {"n_grid": 20, "affinity": {"n": 6}},
            }
            path = write_config(tmp_path, doc)
            for argv in commands:
                code = main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
                assert code in (0, 1, 2), (slot, text, argv)
    capsys.readouterr()


# a class-2 document that sets every class-2 setting away from its default
CLASS2_SETTINGS = {
    "system": {
        "kind": "class2",
        "g": "cos(theta)",
        "psi": "1+alpha+alpha^2*r",
        "chi": "0.1*r*sin(theta)+t",
        "lam0": 0.3,
        "quad_tol": 1e-8,
    },
    "floors": {"psi_min": 0.8},
}


def _class2_flow(phi: Class2Phi, s: PhaseState, t: float = 0.0) -> Flow4:
    """The class-2 flow at s, written out from one Class2Phi."""
    r, theta, u, v = s.r, s.theta, s.u, s.v
    g = math.cos(theta)
    alpha = u / v
    psi_val = phi.psi(alpha, r, theta, t)
    coupling = u * v * (phi(alpha, r, theta, t) + 2.0 * v * psi_val / r)
    return Flow4(u, v / (r * r), -u * g / (r * r * v) + coupling, -g / (r * r))


def test_class2_settings_reach_the_flow(monkeypatch):
    cfg = parse_config(json.dumps(CLASS2_SETTINGS).encode())
    psi = FuncHandle.from_text("1+alpha+alpha^2*r")
    chi = ex.parse("0.1*r*sin(theta)+t")
    s = PhaseState(r=1.3, theta=0.4, u=0.9, v=0.7)
    quadratures = []
    quad_adaptive = ex.quad_adaptive

    def recording(f, a, b, tol):
        quadratures.append((a, b, tol))
        return quad_adaptive(f, a, b, tol)

    monkeypatch.setattr(ex, "quad_adaptive", recording)
    flow = vector_field(cfg.spec, s, 0.0, cfg.floors)
    # the one phi quadrature runs from lam0 to alpha at quad_tol
    assert quadratures == [(0.3, s.u / s.v, 1e-8)]
    assert flow == _class2_flow(Class2Phi(psi, chi, lam0=0.3, tol=1e-8, psi_min=0.8), s)
    # each other setting left at its default moves the flow; on this psi,
    # the quadrature meets both tolerances with one panel, so tol does not
    for phi in (
        Class2Phi(psi, None, lam0=0.3, tol=1e-8, psi_min=0.8),
        Class2Phi(psi, chi, tol=1e-8, psi_min=0.8),
        Class2Phi(psi),
    ):
        assert flow.udot != _class2_flow(phi, s).udot


def test_settings_keep_their_defaults_apart():
    first = VerifySettings()
    assert first.tolerance == {}
    with pytest.raises(TypeError):  # the shared default is read-only
        first.tolerance["flow"] = 1e-9
    assert VerifySettings(tolerance={"flow": 1e-9}).tolerance == {"flow": 1e-9}
    assert LinearizeSettings().affinity == AffinityProbe()
    assert _STATE_KEYS == ("r", "theta", "u", "v")
    with pytest.raises(AttributeError):
        first.samples = 1


def test_class2_psi_floor_is_the_configured_one():
    cfg = parse_config(json.dumps(CLASS2_SETTINGS).encode())
    # psi(-0.5) = 0.75 at r = 1: above the default floor, below the configured one
    s = PhaseState(r=1.0, theta=0.4, u=-0.5, v=1.0)
    _class2_flow(Class2Phi(FuncHandle.from_text("1+alpha+alpha^2*r")), s)
    with pytest.raises(SingularStateError, match=r"at or below floor psi_min=0\.8 "):
        vector_field(cfg.spec, s, 0.0, cfg.floors)


@pytest.mark.parametrize("which", ["flow", "consistency"])
def test_class2_verify_runs_one_quadrature_per_sample(tmp_path, monkeypatch, which):
    doc = dict(CLASS2_DOC, verify={"samples": 25, "seed": 5})
    doc["system"] = {"kind": "class2", "g": "cos(theta)", "psi": "1+alpha^2*r"}
    cfg = write_config(tmp_path, doc)
    quads = count_outermost_calls(monkeypatch, ex, "quad_adaptive")
    builds = count_outermost_calls(monkeypatch, Class2Phi, "__init__")
    code, _ = run(tmp_path, "verify", "--config", str(cfg), "--which", which)
    assert code == 0
    assert quads[0] == 25
    assert builds[0] == 1


def test_class2_stress_jacobi_sweep_passes(tmp_path):
    # central differences at a 1e-5 step left up to 8.9e-7 of their own
    # h^2 error on this config (seeds 0-99, against 1e-6); the exact
    # partials leave rounding and quadrature noise, 1.4e-12 at worst
    config = Path(__file__).resolve().parent.parent / "bench" / "configs" / "class2_quadrature.json"
    code, out = run(tmp_path, "verify", "--config", str(config), "--which", "jacobi", "--seed", "13")
    report = json.loads((out / "verify_jacobi.json").read_text())
    assert code == 0
    assert report["pass"] is True
    assert report["max_residual"] < 1e-10


def test_class2_quad_tol_below_rounding_still_runs(tmp_path):
    # 1e-18 is below what doubles resolve on phi (about 0.3 here): each
    # quadrature stops at its rounding floor instead of failing the step
    doc = dict(CLASS2_DOC, verify={"samples": 20})
    doc["system"] = {"kind": "class2", "g": "cos(theta)", "psi": "1+alpha^2*r", "quad_tol": 1e-18}
    cfg = write_config(tmp_path, doc)
    code, out = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 0
    assert json.loads((out / "drift.json").read_text())["status"] == "completed"
    code, out = run(tmp_path, "verify", "--config", str(cfg), "--which", "flow")
    assert code == 0


OFF_OSCILLATOR_DOC = {
    "system": {
        "kind": "pseudo_potential",
        "g": "0.1*cos(theta)",
        "potential": "1/(2*rbar^2) + 0.1*rbar",
    },
    "initial_state": {"r": 1.0, "theta": 0.0, "u": -0.2, "v": 1.0},
    "time_span": [0.0, 1.0],
    "verify": {"samples": 200, "seed": 8, "branch": "fixed"},
}


@pytest.mark.parametrize("seed", [2, 3])
def test_off_oscillator_casimir_sweep_passes(tmp_path, seed):
    # the central-difference C2 gradient failed these seeds (5.1e-7 and
    # 1.6e-7 against 1e-7); the exact one leaves rounding
    cfg = write_config(tmp_path, OFF_OSCILLATOR_DOC)
    code, out = run(
        tmp_path, "verify", "--config", str(cfg), "--which", "casimir", "--seed", str(seed)
    )
    report = json.loads((out / "verify_casimir.json").read_text())
    assert code == 0
    assert report["max_residual"] < 1e-12
    assert "fd_step" not in report


@pytest.mark.parametrize(
    "module",
    ["ermakov", *(f"ermakov.{name}" for name in (
        "cli", "config", "expr", "integrate", "invariants", "linearize", "orbit", "poisson",
        "systems", "verify",
    ))],
)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "configs").glob("*.json"))


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's src/."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


# run in a fresh interpreter; prints the package's modules that are loaded
_BARE_IMPORT = """
import sys
import ermakov
print(sorted(name for name in sys.modules if name.partition(".")[0] == "ermakov"))
"""


def test_importing_the_package_loads_no_module():
    result = subprocess.run(
        [sys.executable, "-c", _BARE_IMPORT], capture_output=True, text=True, env=_src_env(),
        check=True, timeout=120,
    )
    assert result.stdout == "['ermakov']\n"


def test_ermakov_integrate_is_the_module():
    # the package binds no name over its submodule
    probe = "import types, ermakov.integrate; print(type(ermakov.integrate) is types.ModuleType)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(),
        check=True, timeout=120,
    )
    assert result.stdout == "True\n"


# run in a fresh interpreter with no built-in sha256 module; prints each
# config's digest, then whether config took hashlib's sha256
_NO_BUILTIN_SHA256 = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from ermakov import config
for path in sys.argv[1:]:
    print(config.load_config(path).sha256)
print("@", "hashlib" in sys.modules and config.sha256 is sys.modules["hashlib"].sha256)
"""


def test_the_config_digest_falls_back_to_hashlib():
    result = subprocess.run(
        [sys.executable, "-c", _NO_BUILTIN_SHA256, *map(str, SHIPPED)], capture_output=True,
        text=True, env=_src_env(), check=True, timeout=120,
    )
    expected = [hashlib.sha256(path.read_bytes()).hexdigest() for path in SHIPPED]
    assert result.stdout.splitlines() == [*expected, "@ True"]


def _quick_start() -> str:
    """The first python block of README's Quick start section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_readme_quick_start_runs_as_written():
    result = subprocess.run(
        [sys.executable, "-c", _quick_start()], capture_output=True, text=True,
        env=_src_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    r, max_drift = map(float, result.stdout.split())
    assert abs(r - math.cos(1.4)) < 1e-8  # the exact solution is r = cos t
    assert max_drift < 1e-8


# run in a fresh interpreter; prints "@ step [exit code] numpy-loaded
# modules" after each step, where modules are those of hashlib, the
# integrator and the command modules (after loading, also dataclasses and
# inspect) that the package loaded; the Gauss-Kronrod panels and parsers
# built after loading, and the parser builds after the last command.  The
# first argument names the first command; the script ends after a first
# verify.
_COLD_START = """
import sys

before = set(sys.modules)
COMMANDS = ("ermakov.poisson", "ermakov.linearize", "ermakov.verify", "ermakov.orbit")
LAZY = ("hashlib", "_hashlib", "ermakov.integrate") + COMMANDS


def loaded(names=LAZY):
    return ",".join(name for name in names if name in set(sys.modules) - before) or "none"


import ermakov.cli
from ermakov.config import load_config

out, first, *configs = sys.argv[1:]
for path in configs:
    load_config(path)
# code generation is paid by the first integration, not by setup, which
# loads no integrator at all
print("@ load", "numpy" in sys.modules, loaded(("dataclasses", "inspect") + LAZY))
print("@ panels", sys.modules["ermakov.expr"]._gk21_panel.cache_info().currsize)
# and the parser by the first command
print("@ parsers", ermakov.cli._parser.cache_info().currsize)
if first == "verify":
    code = ermakov.cli.main(["verify", "--config", configs[0], "--which", "flow", "--out", out])
    print("@ verify", code, "numpy" in sys.modules, loaded())
    sys.exit()
for i, path in enumerate(configs):
    code = ermakov.cli.main(["simulate", "--config", path, "--out", f"{out}/{i}"])
    print("@ simulate", code, "numpy" in sys.modules, loaded())
code = ermakov.cli.main(["verify", "--config", configs[0], "--which", "flow", "--out", out])
print("@ verify", code, "numpy" in sys.modules, loaded())
try:
    ermakov.cli.main(["verify", "--config", configs[0], "--which", "bogus"])
except SystemExit as exc:
    print("@ invalid", exc.code)
code = ermakov.cli.main(["simulate", "--config", configs[0], "--out", f"{out}/again"])
print("@ simulate", code, "numpy" in sys.modules, loaded())
print("@ parsers built", ermakov.cli._parser.cache_info().misses)
# the same sweep on a parser built for it alone
ermakov.cli._parser.cache_clear()
code = ermakov.cli.main(["verify", "--config", configs[0], "--which", "flow", "--out", f"{out}/fresh"])
print("@ verify", code, "numpy" in sys.modules, loaded())
"""


def test_import_load_and_simulate_run_without_numpy(tmp_path):
    assert len(SHIPPED) == 2

    def steps(first, out):
        result = subprocess.run(
            [sys.executable, "-c", _COLD_START, str(out), first, *map(str, SHIPPED)],
            capture_output=True, text=True, env=_src_env(), check=True, timeout=120,
        )
        return result, [line[2:] for line in result.stdout.splitlines() if line.startswith("@ ")]

    # no class-decorator machinery, hashlib or integrator on the way in, and
    # each command loads only its own modules: verify compiles none of the
    # orbit or integrator code, and simulate none of the sweeps
    verify_modules = "ermakov.poisson,ermakov.verify"
    setup = ["load False none", "panels 0", "parsers 0"]
    assert steps("verify", tmp_path / "alone")[1] == [*setup, f"verify 0 False {verify_modules}"]
    result, ran = steps("simulate", tmp_path)
    assert ran == [
        *setup,
        "simulate 0 False ermakov.integrate",
        "simulate 0 False ermakov.integrate",
        f"verify 0 False ermakov.integrate,{verify_modules}",
        "invalid 2",
        f"simulate 0 False ermakov.integrate,{verify_modules}",
        "parsers built 1",
        f"verify 0 False ermakov.integrate,{verify_modules}",
    ]
    # the invalid argv fails on the kept parser as on a new one
    assert result.stderr.startswith("usage: ermakov verify [-h] --config CONFIG")
    assert result.stderr.splitlines()[-1] == (
        "ermakov verify: error: argument --which: invalid choice: 'bogus' "
        "(choose from 'jacobi', 'flow', 'casimir', 'consistency', 'determinant')"
    )
    # and leaves the reports of the commands around it as they were
    for first, later, name in (
        ("0", "again", "trajectory.csv"),
        ("0", "again", "drift.json"),
        (".", "fresh", "verify_flow.json"),
    ):
        assert (tmp_path / later / name).read_bytes() == (tmp_path / first / name).read_bytes()


@pytest.mark.parametrize("command", ["verify", "orbit", "linearize"])
def test_a_command_run_as_main_imports_the_cli_module_once(tmp_path, command):
    # run as __main__, cli.py is not ermakov.cli: a command module that
    # imported ermakov.cli would execute the file a second time
    argv = [command, "--config", str(ROOT / "configs" / "spiral.json"), "--out", str(tmp_path)]
    argv += ["--which", "flow"] if command == "verify" else []
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ermakov.cli", *argv],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    imported = [line.split("|")[-1].strip() for line in result.stderr.splitlines()]
    assert ("ermakov.verify" if command == "verify" else "ermakov.orbit") in imported
    assert "ermakov.cli" not in imported


# expr's lowering recorded from the start: which sources hold a fused panel
_PANELS_AT_LOAD = """
import sys
from ermakov import expr

sources, lower = [], expr._lower
expr._lower = lambda *key: sources.append(lower(*key)) or sources[-1]
import ermakov.cli
from ermakov.config import load_config

load_config(sys.argv[1])
print("@ load", sum("def gk21(" in source for source in sources))
ermakov.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
print("@ simulate", sum("def gk21(" in source for source in sources))
"""


def test_no_panel_is_generated_at_import_or_load(tmp_path):
    # the class-2 stress config's fused panel comes with its first quadrature
    result = subprocess.run(
        [sys.executable, "-c", _PANELS_AT_LOAD,
         str(ROOT / "bench" / "configs" / "class2_quadrature.json"), str(tmp_path)],
        capture_output=True, text=True, env=_src_env(), check=True, timeout=120,
    )
    steps = [line[2:] for line in result.stdout.splitlines() if line.startswith("@ ")]
    assert steps == ["load 0", "simulate 1"]


_IMPORT_ALL = """
import ermakov.cli, ermakov.linearize, ermakov.orbit, ermakov.poisson, ermakov.verify
from ermakov import expr
print(expr._maker.cache_info().misses, expr._derivative.cache_info().misses)
"""


def test_nothing_is_lowered_or_derived_at_import():
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], capture_output=True, text=True, env=_src_env(),
        check=True, timeout=120,
    )
    assert result.stdout == "0 0\n"


def test_a_second_run_lowers_and_derives_nothing(tmp_path, monkeypatch):
    # every command reloads its config and builds new derived trees; expr
    # keeps the lowered code and the derivatives by value, here in caches as
    # empty as a new process has, so a second run finds every one of them
    monkeypatch.setattr(ex, "_maker", functools.lru_cache(maxsize=1024)(ex._maker.__wrapped__))
    derived = functools.lru_cache(maxsize=4096)(ex._derivative.__wrapped__)
    monkeypatch.setattr(ex, "_derivative", derived)
    lowered = count_outermost_calls(monkeypatch, ex, "_lower")
    argvs = [
        [*argv, "--config", str(path)]
        for path in SHIPPED
        for argv in (["simulate"], *(["verify", "--which", w] for w in SWEEPS))
    ]
    codes = [main([*argv, "--out", str(tmp_path / "first")]) for argv in argvs]
    assert lowered[0] > 0 and derived.cache_info().misses > 0
    lowered[0], misses = 0, derived.cache_info().misses
    assert [main([*argv, "--out", str(tmp_path / "second")]) for argv in argvs] == codes
    assert lowered[0] == 0 and derived.cache_info().misses == misses
    # and no node or forcing holds lowered code of its own
    cfg = load_config(SHIPPED[0])
    assert not hasattr(cfg.spec.g, "__dict__")


# run in a fresh interpreter; prints whether the float reads gave floats and
# whether numpy was loaded
_FLOAT_READS = """
import sys
from ermakov.config import load_config
from ermakov.integrate import hermite_eval, integrate
from ermakov.linearize import integrate_characteristic, to_orbit_curve

cfg = load_config(sys.argv[1])
traj = integrate(cfg.spec, cfg.s0, cfg.t0, cfg.t1, cfg.solver, cfg.floors)
curve = to_orbit_curve(traj)
backward = integrate_characteristic(cfg.spec.coupling, 1.0, 0.0, 0.0, -1.0)
reads = [
    *(x for j in range(4)
      for x in hermite_eval(traj.ts, [y[j] for y in traj.ys], [f[j] for f in traj.fs], [0.5])),
    *curve.rbar_at([0.5]), *backward.rbar_at([-0.5]),
]
print(all(type(x) is float for x in reads), "numpy" in sys.modules)
"""


def test_orbit_curves_and_float_reads_run_without_numpy():
    result = subprocess.run(
        [sys.executable, "-c", _FLOAT_READS, str(ROOT / "configs" / "spiral.json")],
        capture_output=True, text=True, env=_src_env(), check=True, timeout=120,
    )
    assert result.stdout == "True False\n"


# run in a fresh interpreter that cannot import numpy
_NUMPY_BLOCKED = """
import sys
sys.modules["numpy"] = None
from ermakov.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_orbit_runs_with_numpy_blocked(tmp_path, capsys):
    # linearize too: its affinity fit is closed-form on floats
    for name, doc in (("spiral", SPIRAL_DOC), ("mirrored", MIRRORED_DOC)):
        config = str(write_config(tmp_path, doc, f"{name}.json"))
        for command, reports in (("orbit", ("orbit.json",)), ("linearize", ("linearize.json", "curve.csv"))):
            argv = [command, "--config", config]
            blocked = subprocess.run(
                [sys.executable, "-c", _NUMPY_BLOCKED, *argv, "--out", str(tmp_path / "blocked")],
                capture_output=True, text=True, env=_src_env(), timeout=120,
            )
            assert main([*argv, "--out", str(tmp_path / "normal")]) == blocked.returncode == 0
            assert blocked.stdout == capsys.readouterr().out
            for report in reports:
                assert (tmp_path / "blocked" / report).read_bytes() == (
                    tmp_path / "normal" / report
                ).read_bytes()


# run in a fresh interpreter that cannot import numpy; argv[1] is a JSON
# list of command lines, run in order, each exit code printed
_COMMANDS_NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None
from ermakov.cli import main
for argv in json.loads(sys.argv[1]):
    print("@", main(argv))
print("@ numpy", sys.modules["numpy"])
"""


def test_every_command_runs_with_numpy_blocked(tmp_path, capsys, monkeypatch):
    # every shipped config through each command and verify sweep, with the
    # reports written under the working directory; a command a config
    # refuses exits 2 on both sides
    argvs = [
        [*argv, "--config", str(path), "--out", f"{path.stem}-{i}"]
        for path in SHIPPED
        for i, argv in enumerate(
            (["simulate"], ["orbit"], ["linearize"], *(["verify", "--which", w] for w in SWEEPS))
        )
    ]
    blocked, normal = tmp_path / "blocked", tmp_path / "normal"
    blocked.mkdir()
    normal.mkdir()
    result = subprocess.run(
        [sys.executable, "-c", _COMMANDS_NUMPY_BLOCKED, json.dumps(argvs)],
        capture_output=True, text=True, env=_src_env(), cwd=blocked, check=True, timeout=300,
    )
    monkeypatch.chdir(normal)
    codes = [main(argv) for argv in argvs]
    steps = [line[2:] for line in result.stdout.splitlines() if line.startswith("@ ")]
    assert steps == [*map(str, codes), "numpy None"]
    verdicts = [line for line in result.stdout.splitlines() if not line.startswith("@ ")]
    assert verdicts == capsys.readouterr().out.splitlines()
    # class2_psi1 refuses orbit and linearize, and spiral consistency
    assert codes.count(2) == 3
    written = sorted(p.relative_to(normal) for p in normal.rglob("*") if p.is_file())
    # every command that ran wrote its reports
    assert {name.parts[0] for name in written} == {
        argv[-1] for argv, code in zip(argvs, codes) if code != 2
    }
    assert written == sorted(p.relative_to(blocked) for p in blocked.rglob("*") if p.is_file())
    for name in written:
        assert (blocked / name).read_bytes() == (normal / name).read_bytes()


def test_no_module_imports_numpy():
    # TYPE_CHECKING blocks included: a module is read, not run
    for path in sorted((ROOT / "src" / "ermakov").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "numpy" for name in names), path.name


# keys with template, quoting, control and non-ASCII characters
_KEYS = st.text(max_size=6) | st.sampled_from(["%", "%s", "%%", '"', "\\", "\x00\n\t", "é", "😀"])
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
_LEAVES = (
    _FLOATS
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.booleans()
    | st.none()
    | st.text(max_size=6)
    | _FLOATS.map(np.float64)
)
# how a table of flat float rows is spoiled, if at all
_FLAWS = ("none", "nan row", "mixed types", "unequal keys", "nested value")


@st.composite
def _tables(draw, children):
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    rows = [{k: draw(_FLOATS) for k in keys} for _ in range(draw(st.integers(1, 5)))]
    row, key = draw(st.sampled_from(rows)), draw(st.sampled_from(keys))
    flaw = draw(st.sampled_from(_FLAWS))
    if flaw == "nan row":
        row.update(dict.fromkeys(keys, math.nan))
    elif flaw == "mixed types":
        row[key] = draw(_LEAVES)
    elif flaw == "unequal keys":
        if draw(st.booleans()):
            del row[key]
        row[draw(_KEYS)] = 1.0
    elif flaw == "nested value":
        row[key] = draw(children)
    return rows


_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
        | _tables(children)
    ),
    max_leaves=40,
)


@given(_DOCUMENTS)
@settings(max_examples=200, deadline=None)
def test_the_report_encoder_spells_json_dumps(doc):
    assert cli._json(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_only_flat_float_tables_take_the_table_path():
    rows = [{"r": 1.0, "residual": 0.5}, {"r": -0.0, "residual": 2.5}]
    tables = (rows, [*rows, {"r": math.inf, "residual": math.nan}])
    flawed = (
        [*rows, {"r": 1.0, "residual": 1}],
        [*rows, {"r": 1.0, "residual": np.float64(1.0)}],
        [*rows, {"r": 1.0, "u": 1.0}],
        [*rows, {"r": 1.0}],
        [*rows, {"r": 1.0, "residual": 1.0, "u": 1.0}],
        [*rows, {"r": 1.0, "residual": [1.0]}],
        [*rows, [1.0, 2.0]],
        [{}, {}],
    )
    for table, is_table in [(t, True) for t in tables] + [(t, False) for t in flawed]:
        doc = {"per_state": table}
        assert cli._json(doc) == json.dumps(doc, sort_keys=True, indent=2)
        assert (cli._table(table, "\n") is not None) == is_table


@pytest.mark.parametrize(
    "doc", [{1: 1.0}, {"a": 1.0, 2: 1.0}, {"a": {None: 1}}, [{"r": 1.0}, {2: 1.0}], {("a",): 1}]
)
def test_a_report_key_that_is_not_a_str_raises(tmp_path, doc):
    with pytest.raises(TypeError, match="report keys must be str"):
        cli._write_json(tmp_path / "report.json", doc)
    assert not (tmp_path / "report.json").exists()
