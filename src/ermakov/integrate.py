"""Time integration of the polar flows.

Two steppers: classical fixed-step RK4 and the Dormand-Prince embedded
4(5) pair with standard PI step-size control.  Node derivatives are kept
so trajectories support cubic Hermite dense output.

Singularities follow a stop-and-report policy.  Stage evaluations run
against floors relaxed by half; a failing stage halves the step until it
underflows.  Accepted states are checked against the configured floors.
Either way the trajectory ends at the last good state with status
"singular_stop" and a reason, rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from .systems import (
    DEFAULT_FLOORS,
    STAGE_FAILURES,
    Floors,
    PhaseState,
    SingularStateError,
    SystemSpec,
    nan_max,
    np,
    vector_field,
)

__all__ = [
    "IntegrationError",
    "Solver",
    "Trajectory",
    "QuantityDrift",
    "DriftReport",
    "hermite_eval",
    "integrate_ode",
    "integrate",
    "drift",
]


class IntegrationError(RuntimeError):
    """Step budget exhausted or a sample fell outside the trajectory."""


@dataclass(frozen=True)
class Solver:
    """Integrator settings.

    method is "rk4" (fixed step dt, span/1000 when absent) or "dp45"
    (adaptive, to rtol and atol).  max_steps bounds accepted plus
    rejected steps; exceeding it raises IntegrationError.
    """

    method: str = "dp45"
    rtol: float = 1e-10
    atol: float = 1e-12
    dt: Optional[float] = None
    max_steps: int = 200000


def hermite_eval(ts: np.ndarray, ys: np.ndarray, fs: np.ndarray, t):
    """Piecewise cubic Hermite interpolation.

    Args:
        ts: strictly increasing sample times, shape (n,).
        ys: sample values, shape (n, d).
        fs: derivatives at the samples, shape (n, d).
        t: scalar or array of query times inside [ts[0], ts[-1]].

    Returns:
        Array of shape (d,) for scalar t, else (len(t), d).
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    fs = np.asarray(fs, dtype=float)
    scalar = np.ndim(t) == 0
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = ts[0], ts[-1]
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if np.any(tq < lo - slack) or np.any(tq > hi + slack):
        raise IntegrationError(
            f"sample time outside [{lo!r}, {hi!r}]"
        )
    tq = np.clip(tq, lo, hi)
    idx = np.searchsorted(ts, tq, side="right") - 1
    idx = np.clip(idx, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    s = (tq - ts[idx]) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    hcol = h[:, None]
    out = (
        h00[:, None] * ys[idx]
        + h10[:, None] * hcol * fs[idx]
        + h01[:, None] * ys[idx + 1]
        + h11[:, None] * hcol * fs[idx + 1]
    )
    return out[0] if scalar else out


@dataclass(frozen=True)
class Trajectory:
    """Ordered integration output with enough data for dense sampling.

    ts are strictly increasing floats; ys holds one state per node and fs
    the vector field there, each a sequence of floats, and ``arrays``
    views the three as numpy arrays.  status is "completed" when t1 was
    reached and "singular_stop" when integration stopped early at the
    last good state (stop_reason says why).
    """

    ts: Sequence[float]
    ys: Sequence[Sequence[float]]
    fs: Sequence[Sequence[float]]
    method: str
    status: str
    stop_reason: Optional[str]
    stats: Mapping[str, int]

    def __len__(self) -> int:
        return len(self.ts)

    @cached_property
    def arrays(self) -> tuple:
        """(ts, ys, fs) as float arrays of shapes (n,), (n, d) and (n, d),
        built on first use and kept."""
        return tuple(np.array(nodes, dtype=float) for nodes in (self.ts, self.ys, self.fs))

    def state(self, i: int) -> PhaseState:
        y = self.ys[i]
        if len(y) != 4:
            raise ValueError("not a phase-space trajectory")
        return PhaseState(*y)

    def states(self):
        return [self.state(i) for i in range(len(self.ts))]

    @property
    def final_state(self) -> PhaseState:
        return self.state(len(self.ts) - 1)

    def sample(self, t):
        """Dense output at time(s) t via cubic Hermite interpolation."""
        return hermite_eval(*self.arrays, t)


# Dormand-Prince 4(5) tableau; the last row of A doubles as the 5th
# order weights (FSAL), _E is b - bhat for the embedded error estimate.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# The steppers work on lists of floats.  Each sum runs left to right from
# 0.0, term by term (sum() compensates from Python 3.12 on), and squares
# are x * x, so every step rounds as numpy's elementwise arithmetic does.


def _dot(coeffs: Sequence[float], values: Sequence[float]) -> float:
    acc = 0.0
    for c, x in zip(coeffs, values):
        acc += c * x
    return acc


def _combine(y: Sequence[float], h: float, coeffs: Sequence[float], ks: list) -> list:
    """y + h * (coeffs[0] ks[0] + coeffs[1] ks[1] + ...), componentwise."""
    return [yj + h * _dot(coeffs, kj) for yj, kj in zip(y, zip(*ks))]


def _rms(values: Sequence[float], scales: Sequence[float]) -> float:
    """Root mean square of values / scales.  The mean is the sum left to
    right over the count, as np.mean computes it for fewer than eight
    components."""
    acc = 0.0
    for x, sc in zip(values, scales):
        q = x / sc
        acc += q * q
    return math.sqrt(acc / len(scales))


def _dp_step(f, t, y, h, k):
    """One Dormand-Prince attempt from k = [f(t, y)].  Appends each stage
    derivative to k as it returns, the last being f at y_new.  Returns
    (y_new, err_vec)."""
    for i in range(1, 7):
        yi = _combine(y, h, _DP_A[i], k)
        k.append(f(t + _DP_C[i] * h, yi))
    # A[6] are the 5th order weights, so the last stage input is y_new
    err = [h * _dot(_DP_E, kj) for kj in zip(*k)]
    return yi, err


def _rk4_step(f, t, y, h, k):
    """One classical RK4 step from k = [f(t, y)].  Appends each stage
    derivative to k as it returns, the last being f at y_new.  Returns
    y_new."""
    half = 0.5 * h
    for dt in (half, half, h):
        k.append(f(t + dt, [yj + dt * kj for yj, kj in zip(y, k[-1])]))
    sixth = h / 6.0
    y_new = [
        yj + sixth * (a + 2.0 * b + 2.0 * c + d) for yj, a, b, c, d in zip(y, *k)
    ]
    k.append(f(t + h, y_new))
    return y_new


def _initial_step(f, t0, y0, f0, t1, rtol, atol):
    """Hairer-style starting step size guess; calls f once."""
    sc = [atol + rtol * abs(yj) for yj in y0]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    try:
        f1 = f(t0 + h0, [yj + h0 * fj for yj, fj in zip(y0, f0)])
        d2 = _rms([a - b for a, b in zip(f1, f0)], sc) / h0
    except STAGE_FAILURES:
        return h0 * 1e-2
    dmax = max(d1, d2)
    if dmax <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / dmax) ** 0.2
    return min(100.0 * h0, h1, t1 - t0)


def integrate_ode(
    f: Callable[[float, list], Sequence[float]],
    y0: Sequence[float],
    t0: float,
    t1: float,
    solver: Solver = Solver(),
    accept_check: Optional[Callable[[float, list], Optional[str]]] = None,
) -> Trajectory:
    """Integrate dy/dt = f(t, y) from t0 to t1.

    f takes the state as a list of floats and returns its derivative as
    a sequence of floats; the steppers run on Python floats.  f may
    raise one of ``STAGE_FAILURES`` (floors, r > 0, math domain,
    quadrature) to signal that a stage left the admissible region; the
    step is then halved until it underflows, at which point integration
    stops with "singular_stop".  Any other exception propagates.
    accept_check inspects each accepted (t, y) and returns a stop reason
    or None.
    """
    method, rtol, atol = solver.method, solver.rtol, solver.atol
    if not t1 > t0:
        raise ValueError(f"t1={t1!r} must exceed t0={t0!r}")
    if method not in ("rk4", "dp45"):
        raise ValueError(f"unknown method {method!r}")
    y = [float(yj) for yj in y0]
    t = t0
    f_cur = f(t0, y)  # s0 admissible is a precondition
    ts = [float(t0)]
    ys = [y]
    fs = [f_cur]
    span = t1 - t0
    n_feval = 1  # every call of f, including those that raise
    if method == "rk4":
        h = solver.dt if solver.dt is not None else span / 1000.0
    else:
        h = _initial_step(f, t0, y, f_cur, t1, rtol, atol)
        n_feval += 1  # its one probe
    if not h > 0.0:
        raise ValueError(f"step size {h!r} must be positive")

    status = "completed"
    stop_reason: Optional[str] = None
    n_accepted = n_rejected = n_failed = 0
    err_old = 1.0

    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if n_accepted + n_rejected + n_failed >= solver.max_steps:
            raise IntegrationError(
                f"step budget {solver.max_steps} exhausted at t={t!r}"
            )
        h_try = min(h, t1 - t)
        h_floor = 1e-14 * max(1.0, abs(t))
        if h_try <= h_floor:
            status = "singular_stop"
            stop_reason = f"step size underflow at t={t!r}"
            break
        k = [f_cur]  # the steppers append each derivative f returns
        try:
            if method == "rk4":
                y_new = _rk4_step(f, t, y, h_try, k)
                err_norm = 0.0
            else:
                y_new, err_vec = _dp_step(f, t, y, h_try, k)
                sc = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
                err_norm = _rms(err_vec, sc)
            f_new = k[-1]
            finite = all(map(math.isfinite, (*y_new, *f_new)))
            last_failure = None if finite else "non-finite stage result"
        except STAGE_FAILURES as exc:
            n_feval += 1  # the call that raised
            last_failure = str(exc) or type(exc).__name__
        n_feval += len(k) - 1
        if last_failure is not None:
            n_failed += 1
            if h_try <= 2.0 * h_floor:
                status = "singular_stop"
                stop_reason = (
                    f"step size underflow at t={t!r} "
                    f"while avoiding: {last_failure}"
                )
                break
            h = 0.5 * h_try
            continue

        if method == "dp45" and err_norm > 1.0:
            n_rejected += 1
            h = h_try * min(1.0, max(0.2, 0.9 * err_norm**-0.2))
            continue

        t = t + h_try
        y = y_new
        f_cur = f_new
        ts.append(t)
        ys.append(y)
        fs.append(f_cur)
        n_accepted += 1
        if method == "dp45":
            scaled = max(err_norm, 1e-10)
            factor = 0.9 * scaled**-0.14 * err_old**0.08
            h = h_try * min(5.0, max(0.2, factor))
            err_old = scaled
        if accept_check is not None:
            reason = accept_check(t, y)
            if reason is not None:
                status = "singular_stop"
                stop_reason = reason
                break

    return Trajectory(
        ts=ts,
        ys=ys,
        fs=fs,
        method=method,
        status=status,
        stop_reason=stop_reason,
        stats={
            "n_accepted": n_accepted,
            "n_rejected": n_rejected,
            "n_stage_failures": n_failed,
            "n_feval": n_feval,
        },
    )


def integrate(
    spec: SystemSpec,
    s0: PhaseState,
    t0: float,
    t1: float,
    solver: Solver = Solver(),
    floors: Floors = DEFAULT_FLOORS,
) -> Trajectory:
    """Integrate the first-order flow of a system from state s0.

    Stage evaluations use floors relaxed by half so a step may probe
    slightly past the configured limits; accepted states are checked
    against the configured floors and trigger a "singular_stop".
    """
    stage_floors = floors.relaxed()

    def rhs(t: float, y: list) -> tuple:
        try:
            flow = vector_field(spec, PhaseState(*y), t, stage_floors)
        except ZeroDivisionError as exc:
            # a denominator such as r^2 v underflowed to zero: the state is
            # singular, as the inf that array arithmetic gives here says
            raise FloatingPointError(str(exc)) from exc
        return flow.rdot, flow.thetadot, flow.udot, flow.vdot

    def check(t: float, y: list) -> Optional[str]:
        try:
            floors.check(y[0], y[3])
        except SingularStateError as exc:
            return f"{exc} at t={t!r}"
        return None

    return integrate_ode(
        rhs, (s0.r, s0.theta, s0.u, s0.v), t0, t1, solver, accept_check=check
    )


@dataclass(frozen=True)
class QuantityDrift:
    name: str
    initial: float
    drift: float
    t_at_max: float
    values: tuple = field(default=(), repr=False)  # the quantity at every node


@dataclass(frozen=True)
class DriftReport:
    """Per-quantity relative drift along a trajectory."""

    entries: tuple

    def __getitem__(self, name: str) -> QuantityDrift:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    @property
    def max_drift(self) -> float:
        return nan_max(entry.drift for entry in self.entries)

    def as_dict(self) -> dict:
        return {
            entry.name: {
                "initial": entry.initial,
                "drift": entry.drift,
                "t_at_max": entry.t_at_max,
            }
            for entry in self.entries
        }


def drift(
    traj: Trajectory,
    quantities: Mapping[str, Callable[[PhaseState, float], float]],
) -> DriftReport:
    """Maximum relative drift of each quantity over the trajectory nodes.

    Drift is max over samples of |Q(t) - Q(t0)| / max(1, |Q(t0)|), or the
    first NaN among them; each entry keeps its samples.  A quantity that fails to evaluate names the
    offending sample index.
    """
    entries = []
    states = traj.states()
    for name, func in quantities.items():
        values = []
        for i, (s, t) in enumerate(zip(states, traj.ts)):
            try:
                values.append(float(func(s, t)))
            except Exception as exc:
                raise ValueError(
                    f"quantity {name!r} failed at sample {i} "
                    f"(t={t!r}): {exc}"
                ) from exc
        q0 = values[0]
        scale = max(1.0, abs(q0))
        deviations = [abs(q - q0) / scale for q in values]
        largest = nan_max(deviations)
        worst = deviations.index(largest)  # list.index finds the NaN by identity
        entries.append(
            QuantityDrift(
                name=name,
                initial=q0,
                drift=largest,
                t_at_max=traj.ts[worst],
                values=tuple(values),
            )
        )
    return DriftReport(entries=tuple(entries))

