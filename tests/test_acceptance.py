"""Release criteria, one test per numbered criterion.

Every test prints a single line

    criterion N [label]: PASS/FAIL (measured value vs tolerance)

so a red run is self-describing.  Criterion 2 checks the class-2
determinant against its true closed form (u psi / r^2)^2, the squared
Pfaffian.  The same test records, by passing assertions, that the quoted
closed form (u^2 psi / r^4)(2u/v^2 + psi) disagrees with the cofactor
determinant of the matrix it describes and is even negative on some
states (see README).  The companion test right below it certifies the
nondegeneracy statement the closed form was after.
"""

import math
import random

import pytest

from ermakov import expr as ex
from ermakov import invariants as inv
from ermakov import poisson
from ermakov.config import sample_states
from ermakov.integrate import drift, hermite_eval, integrate
from ermakov.linearize import (
    OrbitCurve,
    affinity_test,
    integrate_characteristic,
    orbit_match,
    to_orbit_curve,
)
from ermakov.systems import (
    Class2Phi,
    Floors,
    FuncHandle,
    PhaseState,
    Potential,
    Solver,
    SystemSpec,
)

from helpers import columns, evaluable_tree, trusted_central_difference, vec

np = pytest.importorskip("numpy")

SEED = 20260823
N_STATES = 1000
FD_STEP = 1e-5

ZERO = ex.parse("0")
OSC = Potential(ex.parse("1/(2*rbar^2)"))
SPIRAL = SystemSpec(ZERO, OSC)
SPIRAL_START = PhaseState(r=1.0, theta=0.0, u=0.0, v=1.0)

CLASS1_PHI_POOL = (
    FuncHandle.from_text("0"),
    FuncHandle.from_text("-r/alpha"),
    FuncHandle.from_text("sin(theta)*alpha"),
    FuncHandle.from_text("r^2*t"),
)
CLASS2_PSI_POOL = ("1", "2")
CLASS2_CHI_POOL = (None, "r*theta")


def states_any(n=N_STATES, u_floor=0.05):
    return sample_states(random.Random(SEED), n, u_floor, "any")


def states_fixed(n=N_STATES, u_floor=0.05):
    return sample_states(random.Random(SEED), n, u_floor, "fixed")


def verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def fd_gradient(func, s: PhaseState, h: float = FD_STEP) -> np.ndarray:
    base = vec(s)
    out = np.zeros(4)
    for k in range(4):
        hi, lo = base.copy(), base.copy()
        hi[k] += h
        lo[k] -= h
        out[k] = (func(PhaseState(*hi)) - func(PhaseState(*lo))) / (2.0 * h)
    return out


def time_at_theta(traj, theta_star: float) -> float:
    thetas, dthetas = columns(traj.ys)[1], columns(traj.fs)[1]
    lo_t, hi_t = float(traj.ts[0]), float(traj.ts[-1])
    for _ in range(200):
        mid = 0.5 * (lo_t + hi_t)
        if hermite_eval(traj.ts, thetas, dthetas, [mid])[0] < theta_star:
            lo_t = mid
        else:
            hi_t = mid
    return 0.5 * (lo_t + hi_t)


def test_criterion_1_jacobi_identities():
    states = states_any()
    worst = 0.0
    for phi in CLASS1_PHI_POOL:
        field = poisson.matrix_field(phi)
        for s in states:
            res = poisson.jacobi_residuals(field, s, 0.7)
            worst = max(worst, float(np.max(np.abs(res))))
    for psi_text in CLASS2_PSI_POOL:
        for chi_text in CLASS2_CHI_POOL:
            field = poisson.matrix_field(
                Class2Phi(
                    FuncHandle.from_text(psi_text),
                    None if chi_text is None else ex.parse(chi_text),
                )
            )
            for s in states:
                res = poisson.jacobi_residuals(field, s, 0.7)
                worst = max(worst, float(np.max(np.abs(res))))
    assert verdict(
        1,
        "jacobi identities",
        worst < 1e-6,
        f"worst residual {worst:.3e} over {len(states)} states, both pools, tol 1e-6",
    )


def test_criterion_1_tampered_structure_fails():
    field = poisson.perturb_j34(poisson.matrix_field(CLASS1_PHI_POOL[1]))
    worst = max(
        float(np.max(np.abs(poisson.jacobi_residuals(field, s, 0.0))))
        for s in states_any(100)
    )
    assert verdict(
        1,
        "tampered J34 control",
        worst > 1e-6,
        f"worst residual {worst:.3e} must exceed 1e-6",
    )


def test_criterion_2_class1_degeneracy():
    field = poisson.matrix_field(CLASS1_PHI_POOL[2])
    worst = 0.0
    for s in states_any():
        m = field(s)
        worst = max(worst, abs(poisson.determinant(m)) / m.norm() ** 4)
    assert verdict(
        2,
        "class-1 degeneracy",
        worst < 1e-10,
        f"worst |det|/norm^4 {worst:.3e}, tol 1e-10",
    )


def test_criterion_2_class2_quoted_determinant():
    # with J12 = 0 the Pfaffian is -J13 J24 + J14 J23 = -u psi / r^2, so the
    # determinant is (u psi / r^2)^2, computed here without poisson.pfaffian.
    # The quoted (u^2 psi / r^4)(2u/v^2 + psi) expands (J13 J24)^2 -
    # (J14 J23)^2 instead; it must disagree, and go negative somewhere,
    # which no real skew-symmetric matrix allows.
    psi_val = 1.0
    field = poisson.matrix_field(Class2Phi(FuncHandle.from_text("1")))
    worst = 0.0
    worst_quoted = 0.0
    min_quoted = math.inf
    for s in states_any():
        det = poisson.determinant(field(s))
        closed = (s.u * psi_val / s.r**2) ** 2
        worst = max(worst, abs(det - closed) / max(1e-30, closed))
        quoted = poisson.det_class2_quoted(psi_val, s)
        worst_quoted = max(worst_quoted, abs(det - quoted) / max(1e-30, abs(det)))
        min_quoted = min(min_quoted, quoted)
    ok = worst < 1e-8 and worst_quoted > 1.0 and min_quoted < 0.0
    assert verdict(
        2,
        "class-2 determinant closed form",
        ok,
        f"det vs (u psi/r^2)^2 worst rel deviation {worst:.3e}, tol 1e-8; "
        f"quoted form worst rel deviation {worst_quoted:.3e} > 1, "
        f"min quoted {min_quoted:.3e} < 0",
    )


def test_criterion_2_class2_nondegeneracy():
    # the substance behind the closed form: det = Pf^2 > 0 wherever
    # u psi != 0, so the class-2 structure has no Casimirs
    psi = FuncHandle.from_text("1")
    field = poisson.matrix_field(Class2Phi(psi))
    worst_dev = 0.0
    min_det = math.inf
    for s in states_any():
        m = field(s)
        det = poisson.determinant(m)
        pf = poisson.pfaffian(m)
        worst_dev = max(worst_dev, abs(det - pf * pf) / max(1e-30, det, pf * pf))
        min_det = min(min_det, det)
    ok = worst_dev < 1e-12 and min_det > 0.0
    assert verdict(
        2,
        "class-2 nondegeneracy",
        ok,
        f"det vs Pf^2 rel dev {worst_dev:.3e}, min det {min_det:.3e} > 0",
    )


def test_criterion_3_flow_reconstruction():
    g = ex.parse("cos(theta)")
    cases = (
        (
            poisson.matrix_field(CLASS1_PHI_POOL[2]),
            SystemSpec(g, CLASS1_PHI_POOL[2]),
        ),
        (
            poisson.matrix_field(Class2Phi(FuncHandle.from_text("1"))),
            SystemSpec(g, Class2Phi(FuncHandle.from_text("1"))),
        ),
    )
    from ermakov.systems import vector_field

    worst = 0.0
    for field, spec in cases:
        for s in states_any():
            grad = inv.grad_ermakov(g, s)
            lhs = vec(poisson.hamiltonian_flow(field, grad, s))
            rhs = vec(vector_field(spec, s))
            scale = max(1.0, float(np.max(np.abs(rhs))))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    assert verdict(
        3,
        "flow reconstruction",
        worst < 1e-10,
        f"worst relative deviation {worst:.3e} over both classes, tol 1e-10",
    )


def test_criterion_4_consistency_condition():
    psi = FuncHandle.from_text("2")
    spec = SystemSpec(ZERO, Class2Phi(psi, ex.parse("r*theta")))
    phi = spec.coupling
    worst = 0.0
    for s in states_any():
        worst = max(worst, abs(poisson.consistency_residual(psi, phi, s)))
    one = FuncHandle.from_text("1")
    zero_phi = FuncHandle.from_text("0")
    control_ok = all(
        abs(poisson.consistency_residual(one, zero_phi, s) - 2.0 / s.r) < 1e-12
        for s in states_any(100)
    )
    ok = worst < 1e-7 and control_ok
    assert verdict(
        4,
        "consistency condition",
        ok,
        f"constructed phi worst residual {worst:.3e} (tol 1e-7); "
        f"psi=1, phi=0 leaves exactly 2/r: {control_ok}",
    )


@pytest.mark.parametrize("g_text", ["0", "1", "cos(theta)"], ids=("G=0", "G=1", "G=cos"))
def test_criterion_5_superintegrable_spiral(g_text):
    g = ex.parse(g_text)
    spec = SystemSpec(g, OSC)
    floors = Floors(r_min=1e-2, v_min=1e-3)
    traj = integrate(
        spec, SPIRAL_START, 0.0, 5.0, solver=Solver(rtol=1e-10, atol=1e-12), floors=floors
    )
    report = drift(
        traj,
        {
            "I": lambda s, t: inv.ermakov_invariant(g, s),
            "C1": lambda s, t: inv.casimir_C1(OSC, s),
            "C2": lambda s, t: inv.casimir_C2(OSC, s),
        },
    )
    c1 = inv.casimir_C1(OSC, SPIRAL_START)
    c2 = inv.casimir_C2(OSC, SPIRAL_START)
    curve = to_orbit_curve(traj)
    lo, hi = curve.theta_range
    grid = np.linspace(lo, hi, 400).tolist()
    r_formula = [inv.spiral_radius(c1, c2, th) for th in grid]
    orbit_err = float(np.max(np.abs(1.0 / np.array(curve.rbar_at(grid)) - r_formula)))
    ok = (
        report["I"].drift < 1e-8
        and report["C1"].drift < 1e-8
        and report["C2"].drift < 1e-6
        and orbit_err < 1e-6
    )
    assert verdict(
        5,
        f"spiral G={g_text}",
        ok,
        f"drift I {report['I'].drift:.2e} C1 {report['C1'].drift:.2e} "
        f"C2 {report['C2'].drift:.2e}, orbit error {orbit_err:.2e}, "
        f"{traj.status} at t={float(traj.ts[-1]):.3f}",
    )


def test_criterion_6_casimir_dichotomy():
    states = states_fixed()
    field1 = poisson.matrix_field(SPIRAL.coupling.phi)
    field2 = poisson.matrix_field(Class2Phi(FuncHandle.from_text("1")))
    c1_fn = lambda s: inv.casimir_C1(OSC, s)
    c2_fn = lambda s: inv.casimir_C2(OSC, s)
    worst1 = 0.0
    least2 = math.inf
    for s in states:
        g1 = fd_gradient(c1_fn, s)
        g2 = fd_gradient(c2_fn, s)
        for grad in (g1, g2):
            worst1 = max(
                worst1, float(np.max(np.abs(poisson.casimir_residuals(field1, [grad], s))))
            )
            least2 = min(
                least2, float(np.max(np.abs(poisson.casimir_residuals(field2, [grad], s))))
            )
    ok = worst1 < 1e-7 and least2 > 1e-3
    assert verdict(
        6,
        "casimir dichotomy",
        ok,
        f"class-1 worst {worst1:.3e} < 1e-7; class-2 least {least2:.3e} > 1e-3 "
        f"at every state",
    )


def test_criterion_7_time_quadrature():
    traj = integrate(SPIRAL, SPIRAL_START, 0.0, 1.4, solver=Solver(rtol=1e-10, atol=1e-12))
    elapsed_sim = time_at_theta(traj, 1.0) - time_at_theta(traj, 0.0)
    c1 = inv.casimir_C1(OSC, SPIRAL_START)
    c2 = inv.casimir_C2(OSC, SPIRAL_START)
    i_val = inv.ermakov_invariant(ZERO, SPIRAL_START)
    elapsed_quad = inv.elapsed_time(
        lambda th: inv.spiral_radius(c1, c2, th), ZERO, i_val, 0.0, 1.0
    )
    spiral_err = abs(elapsed_sim - elapsed_quad)

    exact = inv.elapsed_time(lambda th: 2.0, ZERO, 0.5, 0.0, 1.0)
    exact_err = abs(exact - 4.0)
    ok = spiral_err < 1e-5 and exact_err < 1e-10
    assert verdict(
        7,
        "time quadrature",
        ok,
        f"spiral |sim - quad| {spiral_err:.2e} (tol 1e-5, both ~ pi/4); "
        f"constant-radius value {exact!r} vs 4.0 (tol 1e-10)",
    )


def test_criterion_8_linearization():
    traj = integrate(SPIRAL, SPIRAL_START, 0.0, 1.0, solver=Solver(rtol=1e-10, atol=1e-12))
    curve = to_orbit_curve(traj)
    char = integrate_characteristic(
        SPIRAL.coupling, 1.0, 0.0, 0.0, float(curve.theta[-1])
    )
    mismatch = orbit_match(curve, char)

    spiral_fit = affinity_test(SPIRAL.coupling, 0.0, 0.0, (0.5, 2.0), (0.1, 1.0))
    linear_phi = FuncHandle.from_text("-1/(alpha*r^3)")
    linear_fit = affinity_test(linear_phi, 0.0, 0.0, (0.5, 2.0), (0.1, 1.0))
    coeffs_ok = (
        abs(linear_fit.A) < 1e-6
        and abs(linear_fit.B - 1.0) < 1e-6
        and abs(linear_fit.C) < 1e-6
    )
    # rbar'' = rbar from rbar = 1, abar = 0.2: rbar = cosh(theta) + 0.2 sinh(theta)
    thetas = [i / 200 for i in range(201)]
    reference = OrbitCurve(
        thetas,
        [math.cosh(x) + 0.2 * math.sinh(x) for x in thetas],
        [math.sinh(x) + 0.2 * math.cosh(x) for x in thetas],
    )
    full = integrate_characteristic(linear_phi, 1.0, 0.2, 0.0, 1.0)
    linear_mismatch = orbit_match(reference, full)

    ok = (
        mismatch < 1e-6
        and not spiral_fit.affine
        and linear_fit.affine
        and coeffs_ok
        and linear_mismatch < 1e-6
    )
    assert verdict(
        8,
        "linearization",
        ok,
        f"spiral curve match {mismatch:.2e} (tol 1e-6); spiral affine "
        f"{spiral_fit.affine} (residual {spiral_fit.residual:.2e}); fitted "
        f"(A,B,C)=({linear_fit.A:.1e},{linear_fit.B:.6f},{linear_fit.C:.1e}); "
        f"linear reference match {linear_mismatch:.2e}",
    )


def test_criterion_9_numerics_hygiene():
    import random

    rng = random.Random(SEED)
    checked = 0
    worst_fd = 0.0
    attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 20000, "expression sampler starved"
        tree, bindings, var = evaluable_tree(rng)
        fd = trusted_central_difference(tree, bindings, var)
        if fd is None:
            continue
        sym = ex.evaluate(ex.differentiate(tree, var), bindings)
        if not (math.isfinite(sym) and abs(fd) < 1e6):
            continue
        rel = abs(sym - fd) / max(1.0, abs(fd))
        worst_fd = max(worst_fd, rel)
        checked += 1
    deriv_ok = worst_fd < 1e-5

    free = SystemSpec(ZERO, FuncHandle.from_text("0"))
    s0 = PhaseState(1.0, 0.0, 0.5, 1.0)
    r1 = s0.r + s0.u
    target = np.array([r1, (s0.v / s0.u) * (1.0 / s0.r - 1.0 / r1), s0.u, s0.v])
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = [
        float(
            np.max(
                np.abs(
                    integrate(free, s0, 0.0, 1.0, Solver(method="rk4", dt=float(dt))).ys[-1]
                    - target
                )
            )
        )
        for dt in dts
    ]
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    order_ok = abs(slope - 4.0) < 0.3

    roundtrips = 0
    for _ in range(1000):
        tree, _, _ = evaluable_tree(rng)
        if ex.parse(ex.to_text(tree)) == tree:
            roundtrips += 1
    roundtrip_ok = roundtrips == 1000

    ok = deriv_ok and order_ok and roundtrip_ok
    assert verdict(
        9,
        "numerics hygiene",
        ok,
        f"500 derivative checks worst rel {worst_fd:.2e} (tol 1e-5); "
        f"rk4 order fit {slope:.3f} (4 +- 0.3); {roundtrips}/1000 round-trips",
    )
