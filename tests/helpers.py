"""Shared bits for the test suite: random expression trees, a couple
of reference systems used across files, numpy reference copies of float
code, the loops that the Jacobi sums and the matrix-vector product ran
before they were written out, the central-difference Jacobi sweep that
cross-checks the exact partials, the flow as ``vector_field`` computed it per call before
each system's flow was lowered once, the Gauss-Kronrod panel as it
was computed from lists before it was generated, the |f| integral of a
panel and the ``verify flow`` residual as generators and lists summed
them, the numpy read of
dense output that the float walk of ``hermite_eval`` replaced, and the
numpy least-squares fit that the closed forms of ``affinity_test``
replaced, the unsimplified derivative that ``differentiate`` built
before it dropped dead terms, the matrices, jet and flow as they
read each state field by field, the partials of the class-2
integrand as ``Class2Phi`` lowered them while it formed phi's r- and
theta-partials, and the turning-point search as it bisected 200 times."""

import math
import operator
import random

import pytest

from ermakov import expr as ex
from ermakov.linearize import AffinityResult, _curvature_fn
from ermakov.poisson import JACOBI_TRIPLES, SkewMatrix4
from ermakov.systems import (
    _INTEGRAND, DEFAULT_FLOORS, Floors, Flow4, FuncHandle, IntegrationError, PhaseState,
    Potential, SingularStateError, nan_max,
)

np = pytest.importorskip("numpy")

VARS = ("theta", "r", "t", "alpha")


def vec(x) -> np.ndarray:
    """A PhaseState, a Flow4 or any sequence of floats as a float array."""
    if isinstance(x, PhaseState):
        x = (x.r, x.theta, x.u, x.v)
    return np.array(x, dtype=float)


_UNARY_OPS = ("neg",) + ex.FUNCTIONS
_BINARY_OPS = ("+", "-", "*", "/", "^")


def random_tree(rng: random.Random, depth: int) -> ex.Expr:
    """A random expression tree, structurally reachable by the parser
    (no negative literals; those print as unary minus)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.45:
            return ex.Num(round(rng.uniform(0.0, 4.0), 3))
        return ex.Var(rng.choice(VARS))
    if rng.random() < 0.35:
        return ex.Unary(rng.choice(_UNARY_OPS), random_tree(rng, depth - 1))
    op = rng.choice(_BINARY_OPS)
    left = random_tree(rng, depth - 1)
    right = random_tree(rng, depth - 1)
    if op == "^":
        # keep exponents tame so evaluation stays in range
        right = ex.Num(float(rng.randint(1, 3)))
    return ex.Binary(op, left, right)


def deepest_at_bound(var: str) -> list:
    """Trees in ``var`` exactly ``ex.MAX_DEPTH`` deep whose second
    derivatives are the deepest found (241, 185 and 96 levels for 32): a
    chain of powers under sqrt, of quotients on alternating sides, and of
    tan."""
    leaf, n = ex.Var(var), ex.MAX_DEPTH - 1
    powers, quotients, tans = leaf, leaf, leaf
    for i in range(n):
        powers = ex.Binary("^", powers, leaf) if i < n - 1 else ex.Unary("sqrt", powers)
        quotients = ex.Binary("/", *((quotients, leaf) if i % 2 else (leaf, quotients)))
        tans = ex.Unary("tan", tans)
    return [powers, quotients, tans]


def random_bindings(rng: random.Random) -> dict:
    return {name: rng.uniform(0.3, 2.5) for name in VARS}


def evaluable_tree(rng: random.Random, depth: int = 4, bound: float = 1e6):
    """A random tree together with bindings where it and its partials
    evaluate to something finite and moderate."""
    for _ in range(200):
        tree = random_tree(rng, depth)
        bindings = random_bindings(rng)
        var = rng.choice(VARS)
        try:
            val = ex.evaluate(tree, bindings)
            dval = ex.evaluate(ex.differentiate(tree, var), bindings)
        except ex.ExprError:
            continue
        if abs(val) < bound and abs(dval) < bound:
            return tree, bindings, var
    raise AssertionError("could not draw an evaluable expression")


def central_difference(tree, bindings, var, h=1e-6):
    hi = dict(bindings)
    lo = dict(bindings)
    hi[var] = bindings[var] + h
    lo[var] = bindings[var] - h
    return (ex.evaluate(tree, hi) - ex.evaluate(tree, lo)) / (2.0 * h)


def trusted_central_difference(tree, bindings, var):
    """Central difference, or None when the quotient has not converged
    (near poles or kinks the difference is no oracle at all)."""
    try:
        coarse = central_difference(tree, bindings, var, 1e-5)
        fine = central_difference(tree, bindings, var, 1e-6)
    except ex.ExprError:
        return None
    if abs(coarse - fine) > 1e-7 * max(1.0, abs(fine)):
        return None
    return fine


def spiral_start() -> PhaseState:
    return PhaseState(r=1.0, theta=0.0, u=0.0, v=1.0)


def count_outermost_calls(monkeypatch, owner, name: str) -> list:
    """Patch ``owner.name`` so that each outermost call adds one to the
    returned one-element list; recursive calls through the patched name
    are not counted."""
    original = getattr(owner, name)
    count, depth = [0], [0]

    def counting(*args, **kwargs):
        count[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(owner, name, counting)
    return count


# numpy reference copies: the matrix and determinant of ermakov.poisson
# and ermakov.config.sample_states as they ran on arrays and numpy
# scalars, and the loops that the Jacobi sums and the matrix-vector
# product ran before they were written out, kept so that tests can pin
# the float path bit for bit; and the
# central differences that ermakov.poisson used before its partials were
# exact, kept as an independent check of them at a loose tolerance


def reference_array(m) -> np.ndarray:
    """A SkewMatrix4 as a 4x4 array, stored entry by entry."""
    a = np.zeros((4, 4))
    upper = (
        ((1, 2), m.j12),
        ((1, 3), m.j13),
        ((1, 4), m.j14),
        ((2, 3), m.j23),
        ((2, 4), m.j24),
        ((3, 4), m.j34),
    )
    for (i, j), val in upper:
        a[i - 1, j - 1] = val
        a[j - 1, i - 1] = -val
    return a


def reference_central_differences(func, s, h):
    coords = np.array([s.r, s.theta, s.u, s.v], dtype=float)
    out = []
    for k in range(4):
        hi = coords.copy()
        lo = coords.copy()
        hi[k] += h
        lo[k] -= h
        out.append((func(PhaseState(*hi)) - func(PhaseState(*lo))) / (2.0 * h))
    return out


def reference_jacobi_residuals(field, s, t=0.0, h=1e-5) -> np.ndarray:
    center = reference_array(field(s, t))
    grads = reference_central_differences(lambda p: reference_array(field(p, t)), s, h)
    out = np.zeros(len(JACOBI_TRIPLES))
    for n, (a, b, c) in enumerate(JACOBI_TRIPLES):
        i, j, k = a - 1, b - 1, c - 1
        acc = 0.0
        for mu in range(4):
            acc += (
                center[mu, i] * grads[mu][j, k]
                + center[mu, j] * grads[mu][k, i]
                + center[mu, k] * grads[mu][i, j]
            )
        out[n] = acc
    return out


def _reference_det3(a) -> float:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def reference_determinant(m) -> float:
    a = reference_array(m)
    total = 0.0
    for col in range(4):
        minor = [[a[row][c] for c in range(4) if c != col] for row in range(1, 4)]
        total += ((-1.0) ** col) * a[0][col] * _reference_det3(minor)
    return total


# per JACOBI_TRIPLES entry a < b < c (0-based): a, b, c and the positions
# in the 6-tuple of upper entries of (b, c), (a, c) and (a, b); the cyclic
# sum's middle entry (c, a) is the negation of (a, c)
_JACOBI_SLOTS = (
    (0, 1, 2, 3, 1, 0), (0, 1, 3, 4, 2, 0), (0, 2, 3, 5, 2, 1), (1, 2, 3, 5, 4, 3)
)


def reference_jacobi_sums(m, grads) -> tuple:
    """The four cyclic sums of ``jacobi_residuals`` as it computed them
    before it was written out: from ``m.rows()``, by a table of slots."""
    center = m.rows()
    out = []
    for a, b, c, bc, ac, ab in _JACOBI_SLOTS:
        acc = 0.0
        for row, d in zip(center, grads):
            acc += row[a] * d[bc] + row[b] * -d[ac] + row[c] * d[ab]
        out.append(acc)
    return tuple(out)


def reference_times(m, g) -> tuple:
    """m times the 4-vector g as ``poisson._times`` computed it before it
    was written out: row by row over ``m.rows()``."""
    g0, g1, g2, g3 = map(float, g)
    return tuple(
        [0.0 + ((a0 * g0 + a2 * g2) + (a1 * g1 + a3 * g3)) for a0, a1, a2, a3 in m.rows()]
    )


def float_bits(values) -> list:
    """``float.hex`` of each value: equal lists mean equal bits, except
    that every NaN reads "nan" whatever its sign and payload."""
    return [float.hex(float(x)) for x in values]


def reference_sample_states(rng, n, u_floor, branch) -> list:
    """sample_states as one rng.uniform or rng.random call per number."""
    states = []
    for _ in range(n):
        r = rng.uniform(0.5, 3.0)
        theta = rng.uniform(-math.pi, math.pi)
        mag_u = rng.uniform(u_floor, 2.0)
        mag_v = rng.uniform(0.5, 3.0)
        if branch == "fixed":
            u, v = -mag_u, mag_v
        else:
            u = mag_u if rng.random() < 0.5 else -mag_u
            v = mag_v if rng.random() < 0.5 else -mag_v
        states.append(PhaseState(r=r, theta=theta, u=u, v=v))
    return states


# the matrices, the jet and the flow as they ran before each
# state was unpacked once and each record built as a bare tuple: kept so
# that tests can pin the new code to them bit for bit, errors included


def _reference_common_entries(s: PhaseState, floors):
    floors.check(s.r, s.v)
    alpha = s.u / s.v
    r2 = s.r * s.r
    return alpha, alpha, 1.0 / r2, s.u / (r2 * s.v)  # alpha, j14, j24, j23


def reference_matrix_class1(phi, s: PhaseState, t=0.0, floors=DEFAULT_FLOORS) -> SkewMatrix4:
    alpha, j14, j24, j23 = _reference_common_entries(s, floors)
    phi_val = phi(alpha, s.r, s.theta, t)
    return SkewMatrix4(0.0, alpha * alpha, j14, j23, j24, s.u * phi_val)


def reference_matrix_class2(phi, s: PhaseState, t=0.0, floors=DEFAULT_FLOORS) -> SkewMatrix4:
    alpha, j14, j24, j23 = _reference_common_entries(s, floors)
    psi_val = phi.psi(alpha, s.r, s.theta, t)
    phi_val = phi(alpha, s.r, s.theta, t)
    j13 = alpha * alpha + s.u * psi_val
    j34 = s.u * phi_val + 2.0 * s.u * s.v * psi_val / s.r
    return SkewMatrix4(0.0, j13, j14, j23, j24, j34)


def reference_jet(handle: FuncHandle, alpha, r, theta, t=0.0) -> tuple:
    point = (alpha, r, theta, t)
    return (handle.fn(*point), *[handle.partial(var).fn(*point) for var in ("alpha", "r", "theta")])


def class2_integrand_partial(phi, var: str):
    """The partial in ``var`` ("r" or "theta") of phi's class-2 integrand,
    lowered with the bound names of ``Class2Phi._lower()``, unguarded:
    ``bind(r, theta, t)``, a function of lam; None where the partial is
    the structural zero."""
    tree = _INTEGRAND[phi.psi.depends_on("theta")]
    for name in ("r", "theta"):
        tree = ex.substitute(tree, f"psi_{name}", phi.psi.partial(name).tree)
    tree = ex.differentiate(ex.substitute(tree, "psi", phi.psi.tree), var)
    return None if tree == ex.Num(0.0) else ex.compile(tree, ("alpha",), ("r", "theta", "t"))


def reference_vector_field(spec, s: PhaseState, t=0.0, floors=DEFAULT_FLOORS) -> Flow4:
    """``reference_flow`` as a Flow4, with the lowered flow's errors: r not
    positive (a NaN r) first, and a float division by zero as a
    FloatingPointError."""
    if not s.r > 0.0:
        raise SingularStateError(f"r must be positive, got {s.r!r}")
    try:
        return Flow4(*reference_flow(spec, s, t, floors))
    except ZeroDivisionError as exc:
        raise FloatingPointError(str(exc)) from exc


# spiral's floors, and states past them, alone and together, or with -0.0
# or NaN in an entry; a NaN r, which PhaseState refuses, passes the r floor
EDGE_FLOORS = Floors(r_min=0.01, v_min=0.001)
EDGE_STATES = [
    PhaseState(0.005, 0.2, -0.4, 0.9),  # r below r_min
    PhaseState(1.3, 0.2, -0.4, 0.001),  # |v| at v_min
    PhaseState(1.3, 0.2, 0.4, -0.001),
    PhaseState(1.3, 0.2, -0.4, -0.0),
    PhaseState(0.005, 0.2, -0.4, -0.001),  # both: r's error first
    PhaseState(0.01, 0.2, -0.4, 0.0011),  # at r_min, past v_min: no error
    PhaseState(1.3, -0.0, -0.4, 0.9),
    PhaseState(1.3, 0.2, -0.0, 0.9),
    PhaseState(1.3, 0.2, 0.0, -0.9),
    PhaseState(1.3, math.nan, -0.4, 0.9),
    PhaseState(1.3, 0.2, math.nan, 0.9),
    PhaseState(1.3, 0.2, -0.4, math.nan),
    tuple.__new__(PhaseState, (math.nan, 0.2, -0.4, 0.9)),
]


def outcome(fn, *args):
    """What fn(*args) gives: the type and float bits of its result, or
    the type and message of its error (per ``float_bits``)."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return "raises", type(exc), str(exc)
    return type(result), float_bits(result)


def reference_flow(spec, s: PhaseState, t: float = 0.0, floors=DEFAULT_FLOORS) -> tuple:
    """(dr/dt, dtheta/dt, du/dt, dv/dt) at s, as ``vector_field`` computed
    it from a PhaseState with the coupling dispatched by type on each call;
    a float division by zero raises ZeroDivisionError here."""
    floors.check(s.r, s.v)
    r, th, u, v = s.r, s.theta, s.u, s.v
    g = ex.compile(spec.g, ("theta",))(th)
    coupling = spec.coupling
    if isinstance(coupling, Potential):
        part = (v * v) / (r * r) * coupling.slope(1.0 / r, t)
    else:
        alpha = u / v
        if isinstance(coupling, FuncHandle):
            part = u * v * coupling(alpha, r, th, t)
        else:
            psi_val = coupling.psi(alpha, r, th, t)
            part = u * v * (coupling(alpha, r, th, t) + 2.0 * v * psi_val / r)
    udot = -u * g / (r * r * v) + part
    return u, v / (r * r), udot, -g / (r * r)


def reference_gk21(f, lo: float, hi: float, depth: int) -> tuple:
    """The Gauss-Kronrod panel of ``expr._gk21_panel()`` as it was computed
    from lists before it was generated: samples f at the centre, the left nodes and
    the right nodes, each checked as it is taken, and sums left to right
    from 0, both checked."""

    def sample(x: float) -> float:
        y = float(f(x))
        if not math.isfinite(y):
            raise ex.QuadratureError(f"non-finite integrand value {y!r} at lambda={x!r}")
        return y

    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    centre = sample(mid)
    left = [sample(mid - half * x) for x in ex._GK21_NODES[1:]]
    right = [sample(mid + half * x) for x in ex._GK21_NODES[1:]]
    # f(mid - half x) + f(mid + half x) for each positive node x
    pairs = list(map(operator.add, left, right))
    kronrod = half * (
        ex._K21_WEIGHTS[0] * centre + sum(map(operator.mul, ex._K21_WEIGHTS[1:], pairs))
    )
    gauss = half * sum(map(operator.mul, ex._G10_WEIGHTS, pairs[::2]))
    if not (math.isfinite(kronrod) and math.isfinite(gauss)):
        raise ex.QuadratureError(f"non-finite K21 or G10 sum on [{lo!r}, {hi!r}]")
    return (-abs(kronrod - gauss), depth, lo, hi, kronrod, (centre, left, right))


def reference_abs_integral(lo: float, hi: float, samples: tuple) -> float:
    """``expr._abs_integral`` as it summed a generator: the K21 estimate of
    the integral of |f| over [lo, hi] from a panel's kept samples."""
    centre, left, right = samples
    return 0.5 * (hi - lo) * (
        ex._K21_WEIGHTS[0] * abs(centre)
        + sum(w * (abs(yl) + abs(yr)) for w, yl, yr in zip(ex._K21_WEIGHTS[1:], left, right))
    )


def reference_flow_residual(jf, flow) -> float:
    """One ``verify flow`` residual as it was taken with map, zip and a
    list: the largest |J grad(H) - flow| component over max(1, the largest
    |flow| component), the first NaN where there is one."""
    scale = max(1.0, nan_max(map(abs, flow)))
    return nan_max([abs(a - b) for a, b in zip(jf, flow)]) / scale


def columns(rows) -> list:
    """Node-major rows, such as a trajectory's ys or fs, as one list of
    floats per component: the columns ``hermite_eval`` reads."""
    return [list(col) for col in zip(*rows)]


def reference_hermite_eval(ts, ys, fs, times):
    """Cubic Hermite dense output at an array of times, computed with numpy
    as ``hermite_eval`` once read it: an array of shape (len(times), d),
    the same weights and clamp, the same out-of-range message."""
    ts, ys, fs = (np.asarray(nodes, dtype=float) for nodes in (ts, ys, fs))
    lo, hi = float(ts[0]), float(ts[-1])
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    tq = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(tq < lo - slack) or np.any(tq > hi + slack):
        raise IntegrationError(f"sample point outside [{lo!r}, {hi!r}]")
    tq = np.clip(tq, lo, hi)
    idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    s = (tq - ts[idx]) / h
    s2 = s * s
    s3 = s2 * s
    weights = (2.0 * s3 - 3.0 * s2 + 1.0, (s3 - 2.0 * s2 + s) * h, -2.0 * s3 + 3.0 * s2, (s3 - s2) * h)
    w00, w10, w01, w11 = (w[:, None] for w in weights)
    return w00 * ys[idx] + w10 * fs[idx] + w01 * ys[idx + 1] + w11 * fs[idx + 1]


def reference_affinity_fit(phi, theta, t, rbar_range, abar_range, n=8) -> AffinityResult:
    """The affinity fit as ``affinity_test`` once computed it: the n-by-n
    grid as a design matrix with rows (abar, rbar, 1), solved by
    ``np.linalg.lstsq``, and the max residual over max(1, max |f|)."""
    curvature = _curvature_fn(phi, t)
    rows, lhs = [], []
    for rb in np.linspace(*rbar_range, n):
        for ab in np.linspace(*abar_range, n):
            lhs.append(curvature(theta, rb, ab))
            rows.append((ab, rb, 1.0))
    design, target = np.array(rows), np.array(lhs)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    scale = max(1.0, float(np.max(np.abs(target))))
    residual = float(np.max(np.abs(target - design @ coeffs))) / scale
    a_fit, b_fit, c_fit = (float(c) for c in coeffs)
    return AffinityResult(residual < 1e-8, a_fit, b_fit, c_fit, residual)


def reference_differentiate(e: ex.Expr, var: str) -> ex.Expr:
    """The derivative as ``differentiate`` built it before it dropped dead
    terms: every rule written out in full, a fresh Num(0.0) for each
    subtree free of ``var``, nothing simplified and nothing cached."""
    Binary, Unary, Num = ex.Binary, ex.Unary, ex.Num
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, ex.Var):
        return Num(1.0) if e.name == var else Num(0.0)
    if isinstance(e, Unary):
        f = e.arg
        df = reference_differentiate(f, var)
        return {
            "neg": lambda: Unary("neg", df),
            "sin": lambda: Binary("*", Unary("cos", f), df),
            "cos": lambda: Binary("*", Unary("neg", Unary("sin", f)), df),
            "tan": lambda: Binary("/", df, Binary("^", Unary("cos", f), Num(2.0))),
            "exp": lambda: Binary("*", Unary("exp", f), df),
            "ln": lambda: Binary("/", df, f),
            "sqrt": lambda: Binary("/", df, Binary("*", Num(2.0), Unary("sqrt", f))),
            "abs": lambda: Binary("*", Binary("/", f, Unary("abs", f)), df),
        }[e.op]()
    f, g = e.left, e.right
    df, dg = reference_differentiate(f, var), reference_differentiate(g, var)
    if e.op in ("+", "-"):
        return Binary(e.op, df, dg)
    if e.op == "*":
        return Binary("+", Binary("*", df, g), Binary("*", f, dg))
    if e.op == "/":
        num = Binary("-", Binary("*", df, g), Binary("*", f, dg))
        return Binary("/", num, Binary("^", g, Num(2.0)))
    if isinstance(g, Num):
        return Binary("*", Binary("*", g, Binary("^", f, Num(g.value - 1.0))), df)
    if isinstance(f, Num):
        return Binary("*", Binary("*", e, Unary("ln", f)), dg)
    inner = Binary("+", Binary("*", dg, Unary("ln", f)), Binary("/", Binary("*", g, df), f))
    return Binary("*", e, inner)


def reference_turning_point(potential: Potential, c1: float, rbar: float, t: float) -> float:
    """``invariants._turning_point`` as it was before its bisection stopped
    at its fixed point: the same scans, then always 200 bisection steps."""

    def gap(lam: float) -> float:
        return c1 - potential.fn(lam, t)

    g0 = gap(rbar)
    if g0 < 0.0:
        raise ex.DomainError(f"state lies outside its own well: c1 - V(1/r) = {g0!r} < 0")
    for direction in (0.93, 1.07):
        lam_prev = rbar
        lam = rbar
        for _ in range(400):
            lam *= direction
            try:
                g_here = gap(lam)
            except ex.ExprError:
                break
            if g_here <= 0.0:
                inside, outside = lam_prev, lam
                for _ in range(200):
                    mid = 0.5 * (inside + outside)
                    if gap(mid) > 0.0:
                        inside = mid
                    else:
                        outside = mid
                return 0.5 * (inside + outside)
            lam_prev = lam
    raise ex.DomainError("no turning point V(lam) = c1 found near rbar")
