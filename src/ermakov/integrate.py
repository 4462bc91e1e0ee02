"""Time integration of the polar flows.

Two steppers: classical fixed-step RK4 and the Dormand-Prince embedded
4(5) pair with standard PI step-size control.  Each is generated once per
state dimension, on first use, as straight-line code on Python floats
that rounds as numpy's elementwise arithmetic on the same tableau does.
A system's flow comes lowered from ``SystemSpec.flow``, one function of
(t, y) per floors, and is stepped directly.

Trajectories store their nodes and node derivatives as lists of floats,
which support cubic Hermite dense output one column at a time: a
nondecreasing sequence of points is read in one walk over strictly
monotone nodes, rising or falling, and gives one list of floats.  One
point is the one-element case.

Singularities follow a stop-and-report policy.  Stage evaluations run
against floors relaxed by half; a failing stage halves the step until it
underflows.  Accepted states are checked against the configured floors.
Either way the trajectory ends at the last good state with status
"singular_stop" and a reason, rather than raising.

``Solver`` and ``IntegrationError`` live in :mod:`ermakov.systems`, so
that loading a config or catching the error loads no integrator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .expr import _Record
from .systems import (
    DEFAULT_FLOORS,
    STAGE_FAILURES,
    Floors,
    IntegrationError,
    PhaseState,
    SingularStateError,
    Solver,
    SystemSpec,
    nan_max,
)

__all__ = [
    "Trajectory",
    "QuantityDrift",
    "hermite_eval",
    "integrate_ode",
    "integrate",
    "drift",
]


def hermite_eval(xs, ys, dys, at):
    """Piecewise cubic Hermite interpolation of one column.

    Args:
        xs: strictly monotone nodes, n of them, rising or falling; falling
            nodes are read reversed.
        ys: the values at the nodes, n floats.
        dys: the slopes dy/dx at the nodes, n floats.
        at: a nondecreasing sequence (ValueError otherwise) of points
            inside the range of xs (IntegrationError otherwise); points
            within a relative 1e-12 outside it are clamped onto it.

    Returns:
        a list of len(at) floats, the interpolant at each point.  The first
        point's interval is found by bisection and each later one by
        walking forward over the nodes.
    """
    if xs[0] > xs[-1]:
        xs, ys, dys = xs[::-1], ys[::-1], dys[::-1]
    lo, hi = float(xs[0]), float(xs[-1])
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    last = len(xs) - 2
    i = min(max(bisect_right(xs, at[0]) - 1, 0), last) if len(at) else 0
    out = []
    prev = -math.inf
    for x in at:
        if x < prev:
            raise ValueError(f"sample points must be nondecreasing: {x!r} after {prev!r}")
        if x < lo - slack or x > hi + slack:
            raise IntegrationError(f"sample point outside [{lo!r}, {hi!r}]")
        prev = x
        x = lo if x < lo else hi if x > hi else x
        while i < last and xs[i + 1] <= x:
            i += 1
        h = xs[i + 1] - xs[i]
        s = (x - xs[i]) / h
        s2 = s * s
        s3 = s2 * s
        w00, w01 = 2.0 * s3 - 3.0 * s2 + 1.0, -2.0 * s3 + 3.0 * s2
        w10, w11 = (s3 - 2.0 * s2 + s) * h, (s3 - s2) * h
        out.append(w00 * ys[i] + w10 * dys[i] + w01 * ys[i + 1] + w11 * dys[i + 1])
    return out


class Trajectory(_Record):
    """Ordered integration output with enough data for dense sampling.

    ts are strictly increasing floats; ys holds one state per node and fs
    the vector field there, each a sequence of floats.  status is
    "completed" when t1 was reached and "singular_stop" when integration
    stopped early at the last good state (stop_reason says why).
    """

    __slots__ = _fields = ("ts", "ys", "fs", "method", "status", "stop_reason", "stats")

    def __init__(
        self, ts: Sequence[float], ys: Sequence[Sequence[float]], fs: Sequence[Sequence[float]],
        method: str, status: str, stop_reason: Optional[str], stats: Mapping[str, int],
    ):
        super().__init__(ts, ys, fs, method, status, stop_reason, stats)

    def __len__(self) -> int:
        return len(self.ts)

    def state(self, i: int) -> PhaseState:
        y = self.ys[i]
        if len(y) != 4:
            raise ValueError("not a phase-space trajectory")
        return PhaseState(*y)

    def states(self):
        return [self.state(i) for i in range(len(self.ts))]


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

# The steppers are generated once per state dimension, on first use, as
# straight-line code on floats: every stage sum is unrolled and runs left
# to right from 0.0 (sum() compensates from Python 3.12 on), coefficients
# are repr literals, and the 0.0 coefficients stay, since 0.0 * inf is NaN
# and a non-finite stage must still spoil the step.  So every step rounds
# as numpy's elementwise arithmetic on the same tableau does.  Each stage
# derivative is appended to k as f returns it, so a caller can count the
# calls made before one raised.


def _unpack(prefix: str, d: int) -> str:
    return "".join(f"{prefix}{j}, " for j in range(d))


def _dp45_source(d: int) -> str:
    """``step(f, t, y, h, k, rtol, atol)``: one Dormand-Prince attempt from
    k = [f(t, y)], the last stage being f at y_new.  Returns y_new and the
    error norm, ``_rms`` of the error estimate over the scales
    atol + rtol * max(|y|, |y_new|), with _rms's operations in its order."""
    lines = [f"{_unpack('y', d)}= y", f"{_unpack('k0_', d)}= k[0]"]
    for i in range(1, 7):
        terms = [
            "0.0" + "".join(f" + {a!r} * k{m}_{j}" for m, a in enumerate(_DP_A[i]))
            for j in range(d)
        ]
        lines += [
            "yi = [" + ", ".join(f"y{j} + h * ({x})" for j, x in enumerate(terms)) + "]",
            f"s = f(t + {_DP_C[i]!r} * h, yi)",
            "k.append(s)",
            f"{_unpack(f'k{i}_', d)}= s",
        ]
    # A[6] are the 5th order weights, so the last stage input is y_new
    lines.append(f"{_unpack('n', d)}= yi")
    for j in range(d):
        err = "h * (0.0" + "".join(f" + {e!r} * k{m}_{j}" for m, e in enumerate(_DP_E)) + ")"
        lines.append(f"q{j} = {err} / (atol + rtol * max(abs(y{j}), abs(n{j})))")
    acc = "0.0" + "".join(f" + q{j} * q{j}" for j in range(d))
    lines.append(f"return yi, sqrt(({acc}) / {d})")
    return "def step(f, t, y, h, k, rtol, atol):\n" + "".join(f"    {line}\n" for line in lines)


def _rk4_source(d: int) -> str:
    """``step(f, t, y, h, k, rtol, atol)``: one classical RK4 step from
    k = [f(t, y)], the last stage being f at y_new.  Returns y_new and an
    error norm of 0.0; rtol and atol are not read."""
    lines = [f"{_unpack('y', d)}= y", f"{_unpack('a', d)}= k[0]", "half = 0.5 * h"]
    for prev, name, dt in (("a", "b", "half"), ("b", "c", "half"), ("c", "d", "h")):
        arg = ", ".join(f"y{j} + {dt} * {prev}{j}" for j in range(d))
        lines += [f"s = f(t + {dt}, [{arg}])", "k.append(s)", f"{_unpack(name, d)}= s"]
    new = ", ".join(f"y{j} + sixth * (a{j} + 2.0 * b{j} + 2.0 * c{j} + d{j})" for j in range(d))
    lines += [
        "sixth = h / 6.0", f"y_new = [{new}]", "k.append(f(t + h, y_new))", "return y_new, 0.0"
    ]
    return "def step(f, t, y, h, k, rtol, atol):\n" + "".join(f"    {line}\n" for line in lines)


_SOURCES = {"dp45": _dp45_source, "rk4": _rk4_source}
_STEPPERS = {}  # (method, state dimension) -> generated step


def _stepper(method: str, d: int) -> Callable:
    """The generated step of ``method`` for states of d floats, kept."""
    step = _STEPPERS.get((method, d))
    if step is None:
        scope = {}
        exec(_SOURCES[method](d), {"sqrt": math.sqrt}, scope)
        step = _STEPPERS[(method, d)] = scope["step"]
    return step


def _rms(values: Sequence[float], scales: Sequence[float]) -> float:
    """Root mean square of values / scales.  The mean is the sum left to
    right over the count, as np.mean computes it for fewer than eight
    components."""
    acc = 0.0
    for x, sc in zip(values, scales):
        q = x / sc
        acc += q * q
    return math.sqrt(acc / len(scales))


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
    step is then halved.  A step below 1e-14 max(1, |t|) stops the run
    with "singular_stop", before the step budget is checked, naming the
    last attempt's failure if it failed.  Any other exception propagates.
    accept_check inspects each accepted (t, y) and returns a stop reason
    or None.
    """
    method, rtol, atol = solver.method, solver.rtol, solver.atol
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0={t0!r} and t1={t1!r} must be finite")
    if not t1 > t0:
        raise ValueError(f"t1={t1!r} must exceed t0={t0!r}")
    if method not in _SOURCES:
        raise ValueError(f"unknown method {method!r}")
    y = [float(yj) for yj in y0]
    step = _stepper(method, len(y))
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

    stop_reason: Optional[str] = None
    last_failure: Optional[str] = None  # why the last attempt failed
    n_accepted = n_rejected = n_failed = 0
    err_old = 1.0

    t_end = t1 - 1e-14 * max(1.0, abs(t1))
    while t < t_end:
        h_try = min(h, t1 - t)
        if h_try <= 1e-14 * max(1.0, abs(t)):
            avoiding = "" if last_failure is None else f" while avoiding: {last_failure}"
            stop_reason = f"step size underflow at t={t!r}{avoiding}"
            break
        if n_accepted + n_rejected + n_failed >= solver.max_steps:
            raise IntegrationError(
                f"step budget {solver.max_steps} exhausted at t={t!r}"
            )
        k = [f_cur]  # the steppers append each derivative f returns
        try:
            y_new, err_norm = step(f, t, y, h_try, k, rtol, atol)
            f_new = k[-1]
            finite = all(map(math.isfinite, (*y_new, *f_new)))
            last_failure = None if finite else "non-finite stage result"
        except STAGE_FAILURES as exc:
            n_feval += 1  # the call that raised
            last_failure = str(exc) or type(exc).__name__
        n_feval += len(k) - 1
        if last_failure is not None:
            n_failed += 1
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
            stop_reason = accept_check(t, y)
            if stop_reason is not None:
                break

    return Trajectory(
        ts=ts,
        ys=ys,
        fs=fs,
        method=method,
        status="completed" if stop_reason is None else "singular_stop",
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
    def check(t: float, y: list) -> Optional[str]:
        try:
            floors.check(y[0], y[3])
        except SingularStateError as exc:
            return f"{exc} at t={t!r}"
        return None

    return integrate_ode(
        spec.flow(floors.relaxed()),
        (s0.r, s0.theta, s0.u, s0.v),
        t0,
        t1,
        solver,
        accept_check=check,
    )


class QuantityDrift(NamedTuple):
    initial: float
    drift: float
    t_at_max: float
    values: tuple = ()  # the quantity at every node


def drift(
    traj: Trajectory,
    quantities: Mapping[str, Callable[[PhaseState, float], float]],
) -> dict:
    """Maximum relative drift of each quantity over the trajectory nodes,
    as a QuantityDrift by name, in the order of ``quantities``.

    Drift is max over samples of |Q(t) - Q(t0)| / max(1, |Q(t0)|), or the
    first NaN among them; each entry keeps its samples.  A quantity's
    ValueError or ArithmeticError (a domain failure) is re-raised as a
    ValueError naming the sample; any other exception propagates.
    """
    report = {}
    states = traj.states()
    for name, func in quantities.items():
        values = []
        for i, (s, t) in enumerate(zip(states, traj.ts)):
            try:
                values.append(float(func(s, t)))
            except (ValueError, ArithmeticError) as exc:
                raise ValueError(
                    f"quantity {name!r} failed at sample {i} "
                    f"(t={t!r}): {exc}"
                ) from exc
        q0 = values[0]
        scale = max(1.0, abs(q0))
        deviations = [abs(q - q0) / scale for q in values]
        largest = nan_max(deviations)
        worst = deviations.index(largest)  # list.index finds the NaN by identity
        report[name] = QuantityDrift(
            initial=q0,
            drift=largest,
            t_at_max=traj.ts[worst],
            values=tuple(values),
        )
    return report

