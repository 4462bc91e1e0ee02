import math
import random

import numpy as np
import pytest

from ermakov import expr as ex
from ermakov import poisson
from ermakov.poisson import (
    JACOBI_TRIPLES,
    SkewMatrix4,
    casimir_residuals,
    consistency_residual,
    det_class2_quoted,
    determinant,
    hamiltonian_flow,
    jacobi_residuals,
    matrix_class1,
    matrix_class2,
    matrix_field_class1,
    matrix_field_class2,
    perturb_j34,
    pfaffian,
)
from ermakov.systems import (
    Class2Phi,
    FuncHandle,
    PhaseState,
    Potential,
    SystemSpec,
    vector_field,
)
from ermakov import invariants as inv

from helpers import (
    reference_array,
    reference_central_differences,
    reference_determinant,
    reference_jacobi_residuals,
    vec,
)
from test_systems import OSC, random_states

ONE = FuncHandle.from_text("1")
TWO = FuncHandle.from_text("2")


def test_skew_matrix_layout():
    m = SkewMatrix4(j12=1.0, j13=2.0, j14=3.0, j23=4.0, j24=5.0, j34=6.0)
    a = np.array(m.rows())
    assert np.array_equal(a, -a.T)
    assert a[0, 2] == 2.0
    assert a[2, 0] == -2.0
    assert a[1, 1] == 0.0
    assert m.norm() == pytest.approx(math.sqrt(2 * (1 + 4 + 9 + 16 + 25 + 36)))


def test_class1_matrix_entries():
    phi = FuncHandle.from_text("sin(theta)*alpha")
    s = PhaseState(r=2.0, theta=0.5, u=-1.0, v=0.5)
    m = matrix_class1(phi, s)
    alpha = -2.0
    assert m.j12 == 0.0
    assert m.j13 == pytest.approx(alpha**2)
    assert m.j14 == pytest.approx(alpha)
    assert m.j24 == pytest.approx(0.25)
    assert m.j23 == pytest.approx(s.u / (s.r**2 * s.v))
    assert m.j34 == pytest.approx(s.u * math.sin(0.5) * alpha)


def test_class2_matrix_entries_constant_psi():
    s = PhaseState(r=1.0, theta=0.0, u=1.0, v=1.0)
    m = matrix_class2(Class2Phi(ONE), s)
    # alpha=1: j13 = alpha^2 + u*psi = 2, j34 = u*phi + 2uv/r with
    # phi = -2*alpha/r = -2 so the two parts cancel
    assert m.j13 == pytest.approx(2.0)
    assert m.j34 == pytest.approx(0.0, abs=1e-12)


def test_determinant_against_numpy():
    rng = random.Random(19)
    for _ in range(100):
        m = SkewMatrix4(*(rng.uniform(-2, 2) for _ in range(6)))
        assert determinant(m) == pytest.approx(
            float(np.linalg.det(reference_array(m))), rel=1e-10, abs=1e-12
        )
        assert determinant(m) == reference_determinant(m)


def test_determinant_is_pfaffian_squared():
    rng = random.Random(20)
    for _ in range(100):
        m = SkewMatrix4(*(rng.uniform(-2, 2) for _ in range(6)))
        pf = pfaffian(m)
        assert determinant(m) == pytest.approx(pf * pf, rel=1e-12, abs=1e-12)


def test_class1_matrix_is_degenerate():
    phi = FuncHandle.from_text("sin(theta)*alpha")
    for s in random_states(31, 200):
        m = matrix_class1(phi, s)
        assert abs(determinant(m)) / m.norm() ** 4 < 1e-12


def test_class2_matrix_is_nondegenerate():
    for s in random_states(32, 200):
        m = matrix_class2(Class2Phi(ONE), s)
        # det = (u psi / r^2)^2 for constant psi
        expected = (s.u / s.r**2) ** 2
        assert determinant(m) == pytest.approx(expected, rel=1e-9)
        assert determinant(m) > 0.0


def test_quoted_class2_determinant_is_not_this_matrix_determinant():
    # the closed form circulating for this structure multiplies the two
    # diagonal 2x2 products instead of squaring their difference; at
    # r=u=v=psi=1 it gives 3 while the cofactor expansion gives 1
    s = PhaseState(r=1.0, theta=0.0, u=1.0, v=1.0)
    m = matrix_class2(Class2Phi(ONE), s)
    assert determinant(m) == pytest.approx(1.0, rel=1e-12)
    assert det_class2_quoted(1.0, s) == pytest.approx(3.0, rel=1e-12)
    # and it can even go negative, which no real skew determinant can
    s2 = PhaseState(r=1.0, theta=0.0, u=-0.7, v=1.0)
    assert det_class2_quoted(1.0, s2) < 0.0 < determinant(matrix_class2(Class2Phi(ONE), s2))


PHI_POOL = [
    FuncHandle.from_text("0"),
    SystemSpec(ex.parse("0"), OSC).coupling.phi,
    FuncHandle.from_text("sin(theta)*alpha"),
    FuncHandle.from_text("r^2*t"),
]


@pytest.mark.parametrize(
    "phi", PHI_POOL, ids=("zero", "oscillator", "sin*alpha", "r^2*t")
)
def test_jacobi_identities_class1(phi):
    field = matrix_field_class1(phi)
    for s in random_states(41, 60):
        res = jacobi_residuals(field, s, t=0.7)
        assert np.max(np.abs(res)) < 1e-6


@pytest.mark.parametrize("psi", [ONE, TWO], ids=("psi=1", "psi=2"))
@pytest.mark.parametrize("chi", [None, ex.parse("r*theta")], ids=("chi=0", "chi=r*theta"))
def test_jacobi_identities_class2(psi, chi):
    field = matrix_field_class2(Class2Phi(psi, chi))
    for s in random_states(43, 30):
        res = jacobi_residuals(field, s)
        assert np.max(np.abs(res)) < 1e-6


def test_tampered_j34_breaks_jacobi():
    field = perturb_j34(matrix_field_class1(PHI_POOL[1]), ex.parse("0.1*r"))
    assert field.kind.endswith("tampered")
    worst = max(
        np.max(np.abs(jacobi_residuals(field, s))) for s in random_states(47, 30)
    )
    assert worst > 1e-3


def test_four_jacobi_triples_cover_all_index_choices():
    assert JACOBI_TRIPLES == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


@pytest.mark.parametrize(
    "make_field,make_spec",
    [
        (
            lambda: matrix_field_class1(PHI_POOL[2]),
            lambda: SystemSpec(ex.parse("cos(theta)"), PHI_POOL[2]),
        ),
        (
            lambda: matrix_field_class2(Class2Phi(ONE)),
            lambda: SystemSpec(ex.parse("cos(theta)"), Class2Phi(ONE)),
        ),
    ],
    ids=("class1", "class2"),
)
def test_hamiltonian_flow_reconstructs_vector_field(make_field, make_spec):
    field = make_field()
    spec = make_spec()
    for s in random_states(53, 100):
        grad = inv.grad_ermakov(spec.g, s)
        lhs = vec(hamiltonian_flow(field, grad, s))
        rhs = vec(vector_field(spec, s))
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-10


def test_consistency_of_constructed_phi():
    spec = SystemSpec(ex.parse("0"), Class2Phi(TWO, ex.parse("r*theta")))
    phi = spec.coupling
    for s in random_states(59, 50):
        assert abs(consistency_residual(TWO, phi, s)) < 1e-9


def test_consistency_with_theta_dependent_psi():
    psi = FuncHandle.from_text("2 + sin(theta)")
    phi = Class2Phi(psi, lam0=0.5)
    # stay on the alpha > 0 side so the quadrature path avoids zero
    for s in random_states(61, 30):
        s = PhaseState(r=s.r, theta=s.theta, u=abs(s.u), v=abs(s.v))
        assert abs(consistency_residual(psi, phi, s)) < 1e-8


def test_zero_phi_violates_consistency_by_two_over_r():
    zero = FuncHandle.from_text("0")
    for s in random_states(67, 30):
        res = consistency_residual(ONE, zero, s)
        assert res == pytest.approx(2.0 / s.r, rel=1e-12)


def test_consistency_requires_nonzero_u():
    from ermakov.systems import SingularStateError

    s = PhaseState(r=1.0, theta=0.0, u=0.0, v=1.0)
    with pytest.raises(SingularStateError):
        consistency_residual(ONE, FuncHandle.from_text("0"), s)


def test_casimir_gradients_are_annihilated_by_class1_matrix():
    spec = SystemSpec(ex.parse("0"), OSC)
    field = matrix_field_class1(spec.coupling.phi)
    h = 1e-5

    def grad(func, s):
        out = np.zeros(4)
        base = vec(s)
        for k in range(4):
            hi, lo = base.copy(), base.copy()
            hi[k] += h
            lo[k] -= h
            out[k] = (func(PhaseState(*hi)) - func(PhaseState(*lo))) / (2 * h)
        return out

    c1 = lambda s: inv.casimir_C1(OSC, s)
    c2 = lambda s: inv.casimir_C2(OSC, s)
    for s in random_states(71, 50):
        res = casimir_residuals(field, (grad(c1, s), grad(c2, s)), s)
        assert len(res) == 8 and np.max(np.abs(res)) < 1e-7


def test_same_gradients_survive_the_class2_matrix():
    field = matrix_field_class2(Class2Phi(ONE))
    h = 1e-5

    def grad_c1(s):
        out = np.zeros(4)
        base = vec(s)
        for k in range(4):
            hi, lo = base.copy(), base.copy()
            hi[k] += h
            lo[k] -= h
            out[k] = (
                inv.casimir_C1(OSC, PhaseState(*hi))
                - inv.casimir_C1(OSC, PhaseState(*lo))
            ) / (2 * h)
        return out

    worst_min = math.inf
    for s in random_states(73, 50):
        res = np.max(np.abs(casimir_residuals(field, [grad_c1(s)], s)))
        worst_min = min(worst_min, res)
    assert worst_min > 1e-3


OFF_OSCILLATOR = Potential(ex.parse("1/(2*rbar^2) + 0.1*rbar"))


def _dense(s, t=0.0):
    # no zero entry and no zero partial, so each slot of a cyclic sum shows
    r, th, u, v = s.r, s.theta, s.u, s.v
    return SkewMatrix4(
        j12=r * u + th,
        j13=u * v - r,
        j14=th * v + 0.3,
        j23=r * v * u + t,
        j24=u - th * r,
        j34=v * v + r * th,
    )


def _dense_derivatives(s, t=0.0):
    r, th, u, v = s.r, s.theta, s.u, s.v
    return _dense(s, t), (
        (u, -1.0, 0.0, v * u, -th, th),
        (1.0, 0.0, v, 0.0, -r, r),
        (r, v, 0.0, r * v, 1.0, 0.0),
        (0.0, u, th, r * u, 0.0, 2.0 * v),
    )


def _alpha_positive(states):
    return [PhaseState(s.r, s.theta, abs(s.u), abs(s.v)) for s in states]


# the fields whose exact partials are checked against central differences,
# each with its states: a dense field with hand-written partials, the
# class-1 pool, the phi of an off-oscillator potential, class 2 with a
# quadrature and a chi, class 2 with a theta-dependent psi (its path from
# lam0 = 0.5 must not reach alpha = 0), and the tamper control with the
# shift of the CLI and with one in every coordinate
EXACT_PARTIAL_FIELDS = {
    "dense": (lambda: poisson.MatrixField(_dense, "dense", _dense_derivatives), random_states),
    **{
        f"class1-{name}": (lambda phi=phi: matrix_field_class1(phi), random_states)
        for name, phi in zip(("zero", "oscillator", "sin*alpha", "r^2*t"), PHI_POOL)
    },
    "pseudo_potential": (lambda: matrix_field_class1(OFF_OSCILLATOR.phi), random_states),
    "class2-quadrature-chi": (
        lambda: matrix_field_class2(
            Class2Phi(FuncHandle.from_text("1+alpha^2*r"), ex.parse("r*theta"))
        ),
        random_states,
    ),
    "class2-theta-lam0": (
        lambda: matrix_field_class2(
            Class2Phi(
                FuncHandle.from_text("3+sin(theta)*r+alpha"),
                ex.parse("r^2*cos(theta)"),
                lam0=0.5,
            )
        ),
        lambda seed, n: _alpha_positive(random_states(seed, n)),
    ),
    "tampered": (
        lambda: perturb_j34(matrix_field_class1(PHI_POOL[1]), ex.parse("0.1*r")),
        random_states,
    ),
    "tampered-everywhere": (
        lambda: perturb_j34(
            matrix_field_class1(PHI_POOL[2]), ex.parse("0.1*r*u + theta*v^2 + t")
        ),
        random_states,
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_PARTIAL_FIELDS))
def test_exact_partials_match_central_differences(name):
    make_field, draw = EXACT_PARTIAL_FIELDS[name]
    field = make_field()
    upper = np.triu_indices(4, 1)
    for s in draw(59, 20):
        for t in (0.0, 0.7):
            m, grads = field.derivatives(s, t)
            assert m == field(s, t)
            fd = reference_central_differences(
                lambda p: reference_array(field(p, t)), s, 1e-5
            )
            for exact, ref in zip(grads, fd):
                assert exact == pytest.approx(ref[upper].tolist(), rel=1e-6, abs=1e-6)
            res = jacobi_residuals(field, s, t)
            assert all(type(x) is float for x in res)
            ref = reference_jacobi_residuals(field, s, t, 1e-5)
            assert res == pytest.approx(ref.tolist(), rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("potential", [OSC, OFF_OSCILLATOR], ids=("oscillator", "off"))
def test_casimir_gradients_match_central_differences(potential):
    def casimirs(s):
        return np.array([inv.casimir_C1(potential, s), inv.casimir_C2(potential, s)])

    for s in random_states(61, 20, u_floor=0.3):
        grads = (inv.grad_casimir_C1(potential, s), inv.grad_casimir_C2(potential, s))
        ref = np.array(reference_central_differences(casimirs, s, 1e-4)).T
        for exact, fd in zip(grads, ref):
            assert exact == pytest.approx(fd.tolist(), rel=1e-6, abs=1e-6)


def test_skew_matrix_rows_are_the_array():
    m = SkewMatrix4(j12=0.0, j13=2.0, j14=-3.0, j23=4.5, j24=5.0, j34=-6.0)
    assert np.array_equal(np.array(m.rows()), reference_array(m))
    assert m == (0.0, 2.0, -3.0, 4.5, 5.0, -6.0)
    rng = random.Random(23)
    builds = []
    field = poisson.MatrixField(lambda s, t=0.0: builds.append(s) or m, "fixed", None)
    for _ in range(100):
        g = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        product = (reference_array(m) @ np.array(g)).tolist()
        assert casimir_residuals(field, [g, g], PhaseState(1.0, 0.0, 1.0, 1.0)) == pytest.approx(
            product * 2, rel=1e-15, abs=1e-15
        )
    assert len(builds) == 100  # one matrix for both gradients
    with pytest.raises(ValueError, match="grad_c must be a 4-vector"):
        casimir_residuals(field, [g, g[:3]], PhaseState(1.0, 0.0, 1.0, 1.0))
