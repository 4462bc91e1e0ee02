import math
from itertools import chain
from pathlib import Path

import pytest
from scipy.integrate import solve_ivp

from ermakov import expr as ex
from ermakov import integrate as integrate_module
from ermakov.cli import cmd_simulate
from ermakov.config import load_config
from ermakov.integrate import (
    QuantityDrift,
    Trajectory,
    drift,
    hermite_eval,
    integrate,
    integrate_ode,
)
from ermakov.invariants import casimir_C1, casimir_C2, ermakov_invariant
from ermakov.systems import (
    Class2Phi,
    Floors,
    FuncHandle,
    IntegrationError,
    PhaseState,
    SingularStateError,
    Solver,
    SystemSpec,
    nan_max,
    vector_field,
)

from helpers import columns, reference_hermite_eval, spiral_start, vec
from test_systems import OSC

np = pytest.importorskip("numpy")

ZERO = ex.parse("0")
PHI0 = FuncHandle.from_text("0")
FREE = SystemSpec(ZERO, PHI0)
SPIRAL = SystemSpec(ZERO, OSC)


def exact_spiral(t):
    """Flow of the pseudo-potential oscillator from (1, 0, 0, 1)."""
    return np.array([math.cos(t), math.tan(t), -math.sin(t), 1.0])


def exact_free(s0: PhaseState, t):
    """Flow of the uncoupled G=0, phi=0 system: r linear in t."""
    r = s0.r + s0.u * t
    theta = s0.theta + (s0.v / s0.u) * (1.0 / s0.r - 1.0 / r)
    return np.array([r, theta, s0.u, s0.v])


@pytest.mark.parametrize("method", ["dp45", "rk4"])
def test_circular_orbit_angle(method):
    traj = integrate(FREE, PhaseState(2.0, 0.0, 0.0, 1.0), 0.0, 8.0, solver=Solver(method=method))
    assert traj.status == "completed"
    assert traj.state(-1).theta == pytest.approx(2.0, abs=1e-10)
    assert traj.state(-1).r == 2.0  # rdot is identically zero
    assert traj.state(-1).v == 1.0


def test_linear_radius_solution():
    s0 = PhaseState(1.0, 0.0, 0.5, 1.0)
    traj = integrate(FREE, s0, 0.0, 1.0)
    err = np.max(np.abs(traj.ys[-1] - exact_free(s0, 1.0)))
    assert err < 1e-9


def test_spiral_against_closed_form():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)
    assert traj.status == "completed"
    assert np.max(np.abs(traj.ys[-1] - exact_spiral(1.0))) < 1e-9


def test_dense_output_accuracy():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)
    times = np.linspace(0.05, 0.95, 7).tolist()
    ys, fs = columns(traj.ys), columns(traj.fs)
    dense = [hermite_eval(traj.ts, y, f, times) for y, f in zip(ys, fs)]  # one read per component
    assert len(dense) == 4 and all(len(col) == 7 for col in dense)
    assert all(type(x) is float for col in dense for x in col)
    exact = np.stack([exact_spiral(t) for t in times])
    # cubic interpolation between adaptive nodes, not at stepper accuracy
    assert np.max(np.abs(np.array(dense).T - exact)) < 1e-6
    single = [hermite_eval(traj.ts, y, f, [0.5])[0] for y, f in zip(ys, fs)]  # one time
    assert np.max(np.abs(single - exact_spiral(0.5))) < 1e-7


def _hexes(col):
    return [x.hex() for x in col]


def test_scalar_dense_reads_match_the_array_path_bit_for_bit():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.4)
    lo, hi = traj.ts[0], traj.ts[-1]
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    rng = np.random.default_rng(17)
    special = [
        *traj.ts[1:-1:7],  # on nodes
        lo, hi,
        lo - 0.5 * slack, hi + 0.5 * slack, -0.0,  # clamped onto the ends
    ]
    grids = [sorted([*rng.uniform(lo, hi, size=300).tolist(), *special])]
    for n in (1, 2, 5, 40, 400):  # sparse and dense, with repeated times
        grids.append(sorted(rng.choice(grids[0], size=n).tolist()))
    ys, fs = columns(traj.ys), columns(traj.fs)
    for times in grids:
        want = reference_hermite_eval(traj.ts, traj.ys, traj.fs, times)
        for j, (y, f) in enumerate(zip(ys, fs)):
            got = hermite_eval(traj.ts, y, f, times)
            assert all(type(x) is float for x in got)
            assert _hexes(got) == _hexes(want[:, j].tolist())
    for t in special:  # one time is the one-element read
        want = reference_hermite_eval(traj.ts, traj.ys, traj.fs, [t])
        for j, (y, f) in enumerate(zip(ys, fs)):
            assert _hexes(hermite_eval(traj.ts, y, f, [t])) == _hexes(want[:, j].tolist())
    for t in (lo - 2.0 * slack, hi + 2.0 * slack, -0.2, 1.5):
        times = sorted([0.5, t])
        with pytest.raises(IntegrationError) as reference:
            reference_hermite_eval(traj.ts, traj.ys, traj.fs, times)
        for y, f in zip(ys, fs):
            with pytest.raises(IntegrationError) as walk:
                hermite_eval(traj.ts, y, f, times)
            assert str(walk.value) == str(reference.value) == f"sample point outside [0.0, {hi!r}]"


def test_falling_nodes_read_as_the_reversed_nodes_bit_for_bit():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.4)
    ts = traj.ts
    lo, hi = ts[0], ts[-1]
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    rng = np.random.default_rng(31)
    at = sorted([
        *rng.uniform(lo, hi, size=300).tolist(),
        *ts[1:-1:7],  # on nodes
        lo, hi, lo - 0.5 * slack, hi + 0.5 * slack,  # clamped onto the ends
    ])
    for y, f in zip(columns(traj.ys), columns(traj.fs)):
        rising = hermite_eval(ts, y, f, at)
        falling = hermite_eval(ts[::-1], y[::-1], f[::-1], at)
        assert _hexes(falling) == _hexes(rising)
        for x in (lo, hi):  # the clamped ends on their own
            assert _hexes(hermite_eval(ts[::-1], y[::-1], f[::-1], [x])) == _hexes(
                hermite_eval(ts, y, f, [x])
            )


def test_falling_nodes_refuse_as_the_reversed_nodes():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)
    ts, (y,), (f,) = traj.ts, columns(traj.ys)[:1], columns(traj.fs)[:1]
    hi = ts[-1]
    for x in (-0.2, 1.5, hi + 1e-9):
        with pytest.raises(IntegrationError) as rising:
            hermite_eval(ts, y, f, [x])
        with pytest.raises(IntegrationError) as falling:
            hermite_eval(ts[::-1], y[::-1], f[::-1], [x])
        assert str(falling.value) == str(rising.value) == f"sample point outside [0.0, {hi!r}]"


def test_decreasing_sample_times_are_refused():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)
    for y, f in zip(columns(traj.ys), columns(traj.fs)):
        a, b = hermite_eval(traj.ts, y, f, [0.3, 0.3])
        assert a == b  # repeats are read
        with pytest.raises(
            ValueError, match="^sample points must be nondecreasing: 0.2 after 0.3$"
        ):
            hermite_eval(traj.ts, y, f, [0.1, 0.3, 0.2])
        with pytest.raises(ValueError, match="nondecreasing"):
            hermite_eval(traj.ts, y, f, [0.5, math.nextafter(0.5, 0.0)])


def test_sampling_outside_the_range_fails():
    traj = integrate(FREE, PhaseState(2.0, 0.0, 0.0, 1.0), 0.0, 1.0)
    with pytest.raises(IntegrationError):
        hermite_eval(traj.ts, traj.ys, traj.fs, [1.5])
    with pytest.raises(IntegrationError):
        hermite_eval(traj.ts, traj.ys, traj.fs, [-0.2])


def test_reversed_or_empty_span_rejected():
    s0 = spiral_start()
    with pytest.raises(ValueError):
        integrate(SPIRAL, s0, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(SPIRAL, s0, 1.0, 0.0)


@pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0), (math.nan, 1.0)])
def test_a_non_finite_span_is_rejected(t0, t1):
    # t1 = inf once made t_end NaN, so no step ran and a one-row trajectory
    # came back "completed"
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [-x for x in y]

    with pytest.raises(ValueError, match="must be finite$"):
        integrate_ode(rhs, [1.0], t0, t1)
    assert calls == []


def test_trajectory_bookkeeping():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)
    assert np.all(np.diff(traj.ts) > 0.0)
    assert len(traj) == len(traj.ts) == len(traj.ys) == len(traj.fs)
    ts, ys, fs = map(vec, (traj.ts, traj.ys, traj.fs))
    assert ts.shape == (len(traj),) and ys.shape == fs.shape == (len(traj), 4)
    # floats are the one stored form of the nodes
    assert all(type(x) is float for x in (*traj.ts, *chain(*traj.ys), *chain(*traj.fs)))
    assert traj.method == "dp45"
    assert traj.stop_reason is None
    for key in ("n_accepted", "n_rejected", "n_stage_failures", "n_feval"):
        assert traj.stats[key] >= 0
    assert traj.stats["n_accepted"] == len(traj) - 1
    s = traj.state(0)
    assert isinstance(s, PhaseState)
    assert s.r == 1.0
    assert len(traj.states()) == len(traj)


def test_fixed_step_is_fourth_order():
    s0 = PhaseState(1.0, 0.0, 0.5, 1.0)
    target = exact_free(s0, 1.0)
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = []
    for dt in dts:
        traj = integrate(FREE, s0, 0.0, 1.0, solver=Solver(method="rk4", dt=float(dt)))
        errs.append(np.max(np.abs(traj.ys[-1] - target)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


# the spiral of configs/spiral.json to t = 1.4, bit for bit: the steppers
# run on floats with the elementwise arithmetic of numpy arrays
SPIRAL_FINAL = {
    "dp45": (
        ("0x1.5c17bbc12e48fp-3", "0x1.731086db7ee5ap+2", "-0x1.f88cddf44603bp-1", "0x1.0p+0"),
        {"n_accepted": 79, "n_rejected": 0, "n_stage_failures": 0, "n_feval": 476},
    ),
    "rk4": (
        ("0x1.5c17bbc135e51p-3", "0x1.731086dc3a27ep+2", "-0x1.f88cddf44e0b1p-1", "0x1.0p+0"),
        {"n_accepted": 1000, "n_rejected": 0, "n_stage_failures": 0, "n_feval": 4001},
    ),
}


@pytest.mark.parametrize("method", sorted(SPIRAL_FINAL))
def test_spiral_final_state_is_pinned(method):
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.4, Solver(method=method, rtol=1e-10))
    final, stats = SPIRAL_FINAL[method]
    assert tuple(traj.ys[-1]) == tuple(float.fromhex(x) for x in final)
    assert traj.ts[-1] == 1.4
    assert traj.stats == stats
    assert all(type(x) is float for x in (*traj.ts, *traj.ys[-1], *traj.fs[-1]))


def _reference_dp_step(f, t, y, h, k1):
    """One Dormand-Prince step on numpy arrays, the reference for the float
    stepper: the same tableau, numpy's elementwise arithmetic."""
    m = integrate_module
    k = [np.asarray(k1)]
    for i in range(1, 7):
        yi = y + h * sum(a * kk for a, kk in zip(m._DP_A[i], k))
        k.append(np.asarray(f(t + m._DP_C[i] * h, yi)))
    return yi, k[6], h * sum(e * kk for e, kk in zip(m._DP_E, k))


def _reference_rk4_step(f, t, y, h, k1):
    k1 = np.asarray(k1)
    k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1))
    k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2))
    k4 = np.asarray(f(t + h, y + h * k3))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _polynomial_rhs(t, y):
    # +, -, * only: numpy arrays and floats round these identically
    y0, y1, y2, y3 = y
    return [y1 * y2 - t, y0 - y3 * y3, y0 * y1 + 0.5, -y2 * y0 * 3.0]


def _planar_rhs(t, y):
    y0, y1 = y
    return [y1 * y0 - t, 0.5 - y0 * y0]


def _reference_norm(y, y_new, err, rtol=1e-10, atol=1e-12):
    """The DP45 error norm as integrate_ode took it from the error vector:
    ``_rms`` over the scales atol + rtol * max(|y|, |y_new|)."""
    sc = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
    return integrate_module._rms(err, sc)


def test_float_steppers_match_numpy_bit_for_bit():
    m = integrate_module
    rng = np.random.default_rng(5)
    # dimension 4 is the phase space; 2 the orbit equation of linearize
    for rhs, d in ((_polynomial_rhs, 4), (_planar_rhs, 2)):
        dp45, rk4 = m._stepper("dp45", d), m._stepper("rk4", d)
        for _ in range(2000):
            y = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 1, size=d)
            t, h = rng.uniform(-1, 1), 10.0 ** rng.uniform(-6, 0)
            k1 = rhs(t, y.tolist())
            stages = [k1]
            y_new, norm = dp45(rhs, t, y.tolist(), h, stages, 1e-10, 1e-12)
            f_new = stages[-1]
            ref = _reference_dp_step(rhs, t, y, h, k1)
            assert (y_new, f_new) == (ref[0].tolist(), ref[1].tolist())
            assert all(type(x) is float for x in (*y_new, *f_new, norm))
            sc = 1e-12 + 1e-10 * np.maximum(np.abs(y), np.abs(ref[0]))
            assert m._rms(ref[2].tolist(), sc.tolist()) == math.sqrt(
                float(np.mean((ref[2] / sc) ** 2))
            )
            assert norm == _reference_norm(y.tolist(), y_new, ref[2].tolist())
            assert len(stages) == 7
            stages = [k1]
            assert rk4(rhs, t, y.tolist(), h, stages, 1e-10, 1e-12) == (
                _reference_rk4_step(rhs, t, y, h, k1).tolist(), 0.0
            )
            assert len(stages) == 5


# values that overflow a stage sum, and the non-finite ones
_EXTREMES = (math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, -0.0)


def _draw_with_extremes(rng, d):
    x = (rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3, size=d)).tolist()
    for j in np.flatnonzero(rng.random(d) < 0.15):
        x[j] = _EXTREMES[rng.integers(len(_EXTREMES))]
    return x


def test_the_generated_error_norm_matches_rms_bit_for_bit():
    # NaN and inf in the state and in the stages, which ignore their input
    rng = np.random.default_rng(11)
    n_nan = 0
    for d in (2, 4):
        step = integrate_module._stepper("dp45", d)
        for _ in range(2000):
            y = _draw_with_extremes(rng, d)
            derivs = [_draw_with_extremes(rng, d) for _ in range(7)]
            t, h = rng.uniform(-1, 1), 10.0 ** rng.uniform(-6, 0)
            rtol, atol = 10.0 ** rng.uniform(-12, -3), 10.0 ** rng.uniform(-14, -6)
            stages = [derivs[0]]
            y_new, norm = step(lambda t, y: derivs[len(stages)], t, y, h, stages, rtol, atol)
            calls = iter(derivs[1:])
            with np.errstate(all="ignore"):
                ref = _reference_dp_step(lambda t, y: next(calls), t, np.array(y), h, derivs[0])
            assert np.array_equal(y_new, ref[0], equal_nan=True)
            want = _reference_norm(y, ref[0].tolist(), ref[2].tolist(), rtol, atol)
            assert norm == want or (math.isnan(norm) and math.isnan(want))
            n_nan += math.isnan(norm)
    assert 100 < n_nan < 3000


def test_the_error_norm_keeps_the_scale_argument_order():
    # y0 = -inf and a stage sum that overflows to +inf: y_new0 is NaN while
    # its error stays finite, and max(|y0|, |y_new0|) = inf scales it to 0
    derivs = [1.7e308, 1.0]
    y = [-math.inf, 1.0]
    stages = [derivs]
    y_new, norm = integrate_module._stepper("dp45", 2)(
        lambda t, y: derivs, 0.0, y, 1.0, stages, 1e-10, 1e-12
    )
    with np.errstate(all="ignore"):
        ref = _reference_dp_step(lambda t, y: derivs, 0.0, np.array(y), 1.0, derivs)
    assert math.isnan(y_new[0]) and math.isfinite(ref[2][0])
    assert math.isfinite(norm)
    assert norm == _reference_norm(y, ref[0].tolist(), ref[2].tolist())


def test_an_infinite_stage_spoils_the_dp45_step():
    # the second stage is inf and the others ignore their input: only the
    # kept 0.0 weight of that stage (0.0 * inf is NaN) reaches y_new and err
    def rhs(t, y):
        return [math.inf, -1.0] if t == 0.2 else [1.0, 2.0]

    y, k1 = [1.0, 3.0], [1.0, 2.0]
    stages = [k1]
    y_new, norm = integrate_module._stepper("dp45", 2)(rhs, 0.0, y, 1.0, stages, 1e-10, 1e-12)
    with np.errstate(invalid="ignore"):
        ref = _reference_dp_step(rhs, 0.0, np.array(y), 1.0, k1)
    assert not all(map(math.isfinite, y_new))
    assert not all(map(math.isfinite, ref[2]))
    for got, want in ((y_new, ref[0]), (stages[-1], ref[1])):
        assert np.array_equal(got, want, equal_nan=True)
    assert math.isnan(norm) and math.isnan(_reference_norm(y, y_new, ref[2].tolist()))


@pytest.mark.parametrize("method, n_stages", [("dp45", 6), ("rk4", 4)])
def test_a_raising_stage_is_counted(method, n_stages):
    step = integrate_module._stepper(method, 2)
    for failing in range(1, n_stages + 1):
        stages = [[0.5, -1.0]]

        def rhs(t, y):
            if len(stages) == failing:
                raise SingularStateError("stage left the domain")
            return [y[1], -y[0]]

        with pytest.raises(SingularStateError):
            step(rhs, 0.0, [1.0, 0.5], 0.1, stages, 1e-10, 1e-12)
        # the stages before it, each appended as it returned
        assert len(stages) == failing

        calls = [0]

        def once(t, y):
            calls[0] += 1
            if calls[0] == failing + (2 if method == "dp45" else 1):
                raise SingularStateError("stage left the domain")
            return [y[1], -y[0]]

        solver = Solver(method=method, dt=0.1 if method == "rk4" else None)
        traj = integrate_ode(once, [1.0, 0.5], 0.0, 0.5, solver)
        assert traj.status == "completed"
        assert traj.stats["n_stage_failures"] == 1
        assert traj.stats["n_feval"] == calls[0]


def test_tightening_tolerance_tightens_drift():
    quantities = {"C1": lambda s, t: casimir_C1(OSC, s, t)}
    loose = drift(
        integrate(SPIRAL, spiral_start(), 0.0, 1.0, solver=Solver(rtol=1e-5, atol=1e-7)),
        quantities,
    )
    tight = drift(
        integrate(SPIRAL, spiral_start(), 0.0, 1.0, solver=Solver(rtol=1e-7, atol=1e-9)),
        quantities,
    )
    assert tight["C1"].drift > 0.0
    assert loose["C1"].drift / tight["C1"].drift >= 10.0


@pytest.mark.parametrize(
    "spec,s0",
    [
        (SPIRAL, spiral_start()),
        (
            SystemSpec(
                ex.parse("cos(theta)"), FuncHandle.from_text("sin(theta)*alpha")
            ),
            PhaseState(1.2, 0.4, -0.3, 0.9),
        ),
    ],
    ids=("pseudo", "class1"),
)
def test_velocity_flip_round_trip(spec, s0):
    # integrating backwards is conjugate to a forward run with (u, v)
    # negated, provided the system has no explicit time dependence
    forward = integrate(spec, s0, 0.0, 1.0)
    far = forward.state(-1)
    back = integrate(
        spec, PhaseState(far.r, far.theta, -far.u, -far.v), 0.0, 1.0
    )
    end = back.state(-1)
    recovered = np.array([end.r, end.theta, -end.u, -end.v])
    assert np.max(np.abs(recovered - vec(s0))) < 1e-9


def test_max_drift_reports_a_nan_that_is_not_first(monkeypatch):
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "spiral.json")
    for drifts, shown in (((1e-10, math.nan, 2.0), "nan"), ((1e-10, 3e-9, 0.0), "3.000e-09")):
        report = {name: QuantityDrift(0.5, d, 0.1) for name, d in zip(("I", "C1", "C2"), drifts)}
        monkeypatch.setattr("ermakov.integrate.drift", lambda traj, quantities: report)
        _, line, reports = cmd_simulate(cfg)
        assert line.endswith(f"max drift {shown}")
        assert reports["drift.json"]["drift"]["C1"]["drift"] is drifts[1]


def test_drift_report_contents():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)
    report = drift(
        traj,
        {
            "I": lambda s, t: ermakov_invariant(ZERO, s),
            "C1": lambda s, t: casimir_C1(OSC, s),
            "C2": lambda s, t: casimir_C2(OSC, s),
            "const": lambda s, t: 4.2,
            "u^2": lambda s, t: s.u * s.u,
        },
    )
    assert list(report) == ["I", "C1", "C2", "const", "u^2"]
    assert report["const"].drift == 0.0
    assert report["I"].initial == 0.5
    assert report["I"].drift < 1e-8
    assert report["C1"].drift < 1e-8
    assert report["C2"].drift < 1e-6
    # a quantity that is not conserved shows O(1) drift
    assert report["u^2"].drift > 0.1
    assert nan_max(q.drift for q in report.values()) == report["u^2"].drift
    assert report["u^2"].t_at_max == pytest.approx(float(traj.ts[-1]))
    with pytest.raises(KeyError):
        report["missing"]


def test_drift_failure_names_the_sample():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)

    def flaky(s, t):
        if t > 0.5:
            raise ZeroDivisionError("boom")
        return 1.0

    with pytest.raises(ValueError, match="sample"):
        drift(traj, {"flaky": flaky})


def test_drift_lets_a_programming_error_through():
    traj = integrate(SPIRAL, spiral_start(), 0.0, 1.0)

    def broken(s, t):
        return s + t  # a PhaseState plus a float

    with pytest.raises(TypeError) as caught:
        drift(traj, {"broken": broken})
    assert "sample" not in str(caught.value)


def _constant_state_trajectory(n: int) -> Trajectory:
    rest = [1.0, 0.0, 0.0, 1.0]
    return Trajectory(
        ts=[0.5 * i for i in range(n)],
        ys=[rest] * n,
        fs=[[0.0] * 4] * n,
        method="dp45",
        status="completed",
        stop_reason=None,
        stats={},
    )


@pytest.mark.parametrize(
    "values, worst, deviation",
    [
        ([1.0, 3.0, 0.0, 3.0], 1, 2.0),  # a tie: the first maximum
        ([1.0, 5.0, math.nan, 9.0, math.nan], 2, math.nan),  # the first NaN
        ([math.nan, 1.0, 2.0], 0, math.nan),
        ([2.0, 2.0, 2.0], 0, 0.0),
    ],
    ids=("tie", "nan", "nan-first", "flat"),
)
def test_drift_picks_its_worst_sample(values, worst, deviation):
    traj = _constant_state_trajectory(len(values))
    values_at = dict(zip(traj.ts, values))
    entry = drift(traj, {"q": lambda s, t: values_at[t]})["q"]
    assert entry.t_at_max == traj.ts[worst]
    if math.isnan(deviation):
        assert math.isnan(entry.drift)
    else:
        assert entry.drift == deviation


def test_against_scipy_on_a_coupled_system():
    spec = SystemSpec(ex.parse("cos(theta)"), Class2Phi(FuncHandle.from_text("1")))
    s0 = PhaseState(1.0, 0.0, 0.2, 1.0)

    def rhs(t, y):
        return vec(vector_field(spec, PhaseState(*y), t))

    ref = solve_ivp(
        rhs, (0.0, 0.5), vec(s0), method="RK45", rtol=1e-11, atol=1e-13
    )
    assert ref.success
    traj = integrate(spec, s0, 0.0, 0.5)
    assert np.max(np.abs(traj.ys[-1] - ref.y[:, -1])) < 1e-8


def test_step_budget_is_enforced():
    with pytest.raises(IntegrationError, match="budget"):
        integrate(SPIRAL, spiral_start(), 0.0, 1.0, solver=Solver(max_steps=5))


def test_stop_at_radius_floor():
    floors = Floors(r_min=1e-2, v_min=1e-3)
    traj = integrate(SPIRAL, spiral_start(), 0.0, 5.0, floors=floors)
    assert traj.status == "singular_stop"
    assert "r_min" in traj.stop_reason
    # r(t) = cos t crosses 1e-2 just before pi/2
    assert 1.55 < traj.ts[-1] < math.pi / 2.0
    assert traj.state(-1).r >= floors.relaxed().r_min


def test_stop_at_angular_momentum_floor():
    spec = SystemSpec(ex.parse("1"), OSC)
    floors = Floors(r_min=1e-2, v_min=1e-3)
    traj = integrate(spec, spiral_start(), 0.0, 5.0, floors=floors)
    assert traj.status == "singular_stop"
    assert "v_min" in traj.stop_reason
    assert traj.ts[-1] < 1.0


def _blowup(t, y):
    return [x * x for x in y]


def _past_half(t, y):
    if y[0] > 0.5:
        raise SingularStateError("y past 0.5")
    return [1.0]


def test_blowup_stops_with_step_underflow():
    # y' = y^2 blows up at t = 1: the DP45 controller shrinks the step
    # below 1e-14 t with no stage failing
    traj = integrate_ode(_blowup, [1.0], 0.0, 2.0)
    assert (traj.status, traj.stop_reason) == (
        "singular_stop", "step size underflow at t=0.9999999999934042"
    )
    assert traj.stats == {
        "n_accepted": 1479, "n_rejected": 0, "n_stage_failures": 0, "n_feval": 8876
    }


def test_a_failing_stage_stops_on_step_underflow():
    # every stage past y = 0.5 raises: the step halves until it underflows
    traj = integrate_ode(_past_half, [0.0], 0.0, 1.0)
    assert (traj.status, traj.stop_reason) == (
        "singular_stop", "step size underflow at t=0.4999999999999999 while avoiding: y past 0.5"
    )
    assert traj.stats == {
        "n_accepted": 25, "n_rejected": 0, "n_stage_failures": 79, "n_feval": 312
    }


def test_step_underflow_is_checked_before_the_step_budget():
    # a budget spent exactly by the steps before the underflow stops
    # rather than raising, for the controller's stop and a stage failure's
    for rhs, y0, t1 in ((_blowup, [1.0], 2.0), (_past_half, [0.0], 1.0)):
        full = integrate_ode(rhs, y0, 0.0, t1)
        steps = sum(full.stats[k] for k in ("n_accepted", "n_rejected", "n_stage_failures"))
        traj = integrate_ode(rhs, y0, 0.0, t1, Solver(max_steps=steps))
        assert (traj.stop_reason, traj.stats, traj.ts) == (full.stop_reason, full.stats, full.ts)
        with pytest.raises(IntegrationError, match=f"^step budget {steps - 1} exhausted"):
            integrate_ode(rhs, y0, 0.0, t1, Solver(max_steps=steps - 1))


def test_an_underflowed_denominator_halves_the_step():
    # r^2 v underflows to zero as r shrinks (floors set far below it): a
    # float division by zero fails the stage, as the inf of array arithmetic did
    s0 = PhaseState(1e-150, 0.0, -1e-151, 1e-20)
    floors = Floors(r_min=1e-300, v_min=1e-300)
    traj = integrate(FREE, s0, 0.0, 20.0, Solver(method="rk4", dt=0.1), floors)
    assert traj.status == "singular_stop"
    assert "division by zero" in traj.stop_reason
    assert traj.stats["n_accepted"] == 123 and traj.stats["n_stage_failures"] == 40
    assert traj.ts[-1] == pytest.approx(9.8428, abs=1e-4)


@pytest.mark.parametrize(
    "bug, error",
    [(lambda: int("x"), ValueError), (lambda: 1 / 0, ZeroDivisionError)],
    ids=("value", "zero-division"),
)
def test_a_buggy_right_hand_side_raises(bug, error):
    def rhs(t, y):
        return bug() if t > 0.5 else [-x for x in y]

    with pytest.raises(error):
        integrate_ode(rhs, [1.0], 0.0, 1.0)


def test_a_domain_exit_still_halves_the_step():
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        PhaseState(r=1.0 - t, theta=0.0, u=0.0, v=1.0)  # r > 0 fails from t = 1
        return [-x for x in y]

    traj = integrate_ode(rhs, [1.0], 0.0, 2.0)
    assert traj.status == "singular_stop"
    assert "r must be positive" in traj.stop_reason
    assert traj.ts[-1] == pytest.approx(1.0, abs=1e-6)
    # every call counts: the start, the starting-step probe, each stage of
    # an accepted step and each stage a failed step made, the raising one too
    assert traj.stats["n_stage_failures"] > 0
    assert traj.stats["n_feval"] == calls[0] == 517


@pytest.mark.parametrize("method", ["dp45", "rk4"])
def test_a_non_finite_initial_derivative_is_refused(method):
    # s0 admissible is a precondition: phi is inf - inf, a NaN, at s0, and
    # f(t0, y0) is refused as one that raises is, before any step is sized
    phi = FuncHandle.from_text("(1e154*r)*(1e154*r) - (1e154*r)*(1e154*r)")
    flow = SystemSpec(ex.parse("0"), phi).flow()
    with pytest.raises(SingularStateError) as err:
        integrate_ode(flow, [2.0, 0.0, 0.2, 1.0], 0.0, 1.0, Solver(method=method))
    assert str(err.value) == (
        "non-finite derivative (0.2, 0.25, nan, -0.0) at the initial state t=0.0"
    )


@pytest.mark.parametrize("method", ["dp45", "rk4"])
def test_a_non_finite_stage_counts_each_call_once(method):
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return [math.inf if t > 0.5 else -y[0]]

    solver = Solver(method=method, dt=0.01 if method == "rk4" else None)
    traj = integrate_ode(rhs, [1.0], 0.0, 1.0, solver)
    assert traj.status == "singular_stop"
    assert "non-finite stage result" in traj.stop_reason
    assert traj.stats["n_feval"] == calls[0]


def test_dp45_decay_matches_exp():
    traj = integrate_ode(
        lambda t, y: [-x for x in y], [1.0], 0.0, 1.0, solver=Solver(rtol=1e-6, atol=1e-8)
    )
    assert traj.ys[-1][0] == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_generic_trajectories_are_not_phase_states():
    traj = integrate_ode(lambda t, y: [-x for x in y], [1.0], 0.0, 1.0)
    with pytest.raises(ValueError, match="phase-space"):
        traj.state(0)
    (y,), (f,) = columns(traj.ys), columns(traj.fs)
    assert len(hermite_eval(traj.ts, y, f, [0.5])) == 1


def test_bad_step_arguments():
    with pytest.raises(ValueError, match="method"):
        integrate(SPIRAL, spiral_start(), 0.0, 1.0, solver=Solver(method="euler"))
    with pytest.raises(ValueError, match="positive"):
        integrate(SPIRAL, spiral_start(), 0.0, 1.0, solver=Solver(method="rk4", dt=-0.1))
    calls = []
    with pytest.raises(ValueError, match="^dt applies only to rk4, not dp45$"):
        integrate_ode(lambda t, y: calls.append(t) or y, [1.0], 0.0, 1.0, Solver(dt=0.5))
    assert calls == []  # refused before f is called


def test_hermite_reproduces_cubics():
    ts = [0.0, 0.4, 1.1, 2.0]
    ys = [t**3 - 2.0 * t + 1.0 for t in ts]
    fs = [3.0 * t**2 - 2.0 for t in ts]
    query = np.linspace(0.0, 2.0, 17).tolist()
    got = hermite_eval(ts, ys, fs, query)
    want = [t**3 - 2.0 * t + 1.0 for t in query]
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12
