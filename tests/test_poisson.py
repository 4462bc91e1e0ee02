import functools
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from ermakov import expr as ex
from ermakov import poisson, verify
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
    matrix_field,
    perturb_j34,
    pfaffian,
)
from ermakov.integrate import integrate
from ermakov.systems import (
    DEFAULT_FLOORS,
    Class2Phi,
    Floors,
    FuncHandle,
    PhaseState,
    Potential,
    SingularStateError,
    Solver,
    SystemSpec,
    nan_max,
    vector_field,
)
from ermakov import invariants as inv
from ermakov.config import SWEEPS, load_config, sample_states
from ermakov.verify import _verify_determinant, _verify_flow, _verify_jacobi

from helpers import (
    EDGE_FLOORS,
    EDGE_STATES,
    float_bits,
    outcome,
    reference_array,
    reference_central_differences,
    reference_determinant,
    reference_flow_residual,
    reference_jacobi_residuals,
    reference_jacobi_sums,
    reference_matrix_class1,
    reference_matrix_class2,
    reference_times,
    vec,
)
from test_systems import OSC, random_states

np = pytest.importorskip("numpy")

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


SPECIAL = (-0.0, math.inf, -math.inf, math.nan)


def _one_special(base: tuple) -> list:
    """base with each of its entries replaced in turn by each SPECIAL value."""
    return [base[:k] + (x,) + base[k + 1:] for k in range(len(base)) for x in SPECIAL]


def _mixed(rng: random.Random, n: int) -> tuple:
    """n floats, each a SPECIAL value with probability 0.3."""
    return tuple(
        rng.choice(SPECIAL) if rng.random() < 0.3 else rng.uniform(-2, 2) for _ in range(n)
    )


# J11 = 0 times a first-row minor that overflows to inf - inf
OVERFLOWING_MINOR = SkewMatrix4(0.0, 0.0, 0.0, 1e200, 1e200, 1.0)

# matrices with -0.0, +-inf or NaN in their entries: one such entry on a
# finite matrix (j12 = 0.0, as both classes have it) and on the zero
# matrix, and seeded mixtures; each reaches the products that a zero
# entry of the full matrix makes
NON_FINITE_MATRICES = [OVERFLOWING_MINOR] + [
    SkewMatrix4(*entries)
    for entries in _one_special((0.0, 0.5, -1.25, 2.0, 0.75, -1.5))
    + _one_special((0.0,) * 6)
    + [_mixed(random.Random(29 + k), 6) for k in range(100)]
]


def test_determinant_against_numpy():
    rng = random.Random(19)
    for _ in range(100):
        m = SkewMatrix4(*(rng.uniform(-2, 2) for _ in range(6)))
        assert determinant(m) == pytest.approx(
            float(np.linalg.det(reference_array(m))), rel=1e-10, abs=1e-12
        )
        assert determinant(m) == reference_determinant(m)
    with np.errstate(all="ignore"):
        for m in NON_FINITE_MATRICES:
            assert float_bits([determinant(m)]) == float_bits([reference_determinant(m)]), m
    # the kept zero term 0.0 * det(minor): NaN, where the other three terms sum to 0.0
    assert math.isnan(determinant(OVERFLOWING_MINOR))


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
    field = matrix_field(phi)
    for s in random_states(41, 60):
        res = jacobi_residuals(field, s, t=0.7)
        assert np.max(np.abs(res)) < 1e-6


@pytest.mark.parametrize("psi", [ONE, TWO], ids=("psi=1", "psi=2"))
@pytest.mark.parametrize("chi", [None, ex.parse("r*theta")], ids=("chi=0", "chi=r*theta"))
def test_jacobi_identities_class2(psi, chi):
    field = matrix_field(Class2Phi(psi, chi))
    for s in random_states(43, 30):
        res = jacobi_residuals(field, s)
        assert np.max(np.abs(res)) < 1e-6


def test_matrix_field_takes_its_class_from_the_coupling(monkeypatch):
    # a Potential gives the field of its induced phi, and the matrix
    # functions are looked up per call, so a wrapper in their place sees
    # every matrix (the benchmark tracer counts them so)
    calls = []
    for name in ("matrix_class1", "matrix_class2"):
        original = getattr(poisson, name)
        monkeypatch.setattr(poisson, name, lambda *a, n=name, f=original: calls.append(n) or f(*a))
    potential = SystemSpec(ex.parse("0"), OSC).coupling
    fields = [matrix_field(potential), matrix_field(potential.phi), matrix_field(Class2Phi(ONE))]
    assert [field.kind for field in fields] == ["class1", "class1", "class2"]
    s = PhaseState(1.3, 0.2, -0.4, 0.9)
    assert fields[0](s, 0.7) == fields[1](s, 0.7) == matrix_class1(potential.phi, s, 0.7)
    assert fields[0].derivatives(s, 0.7) == fields[1].derivatives(s, 0.7)
    assert fields[2].derivatives(s)[0] == matrix_class2(Class2Phi(ONE), s)
    assert calls == ["matrix_class1"] * 4 + ["matrix_class2"]


def test_tampered_j34_breaks_jacobi():
    plain = matrix_field(PHI_POOL[1])
    field = perturb_j34(plain)
    assert field.kind.endswith("tampered")
    s = random_states(43, 1)[0]
    m, d = field.derivatives(s)
    assert field(s) == m == plain(s)._replace(j34=plain(s).j34 + 0.1 * s.r)
    assert d == plain.derivatives(s)[1]  # d_r J34 is unformed: the partials stay
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
            lambda: matrix_field(PHI_POOL[2]),
            lambda: SystemSpec(ex.parse("cos(theta)"), PHI_POOL[2]),
        ),
        (
            lambda: matrix_field(Class2Phi(ONE)),
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
    field = matrix_field(spec.coupling.phi)
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
    field = matrix_field(Class2Phi(ONE))
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
# lam0 = 0.5 must not reach alpha = 0), and the tamper control
EXACT_PARTIAL_FIELDS = {
    "dense": (lambda: poisson.MatrixField(_dense, "dense", _dense_derivatives), random_states),
    **{
        f"class1-{name}": (lambda phi=phi: matrix_field(phi), random_states)
        for name, phi in zip(("zero", "oscillator", "sin*alpha", "r^2*t"), PHI_POOL)
    },
    "pseudo_potential": (lambda: matrix_field(OFF_OSCILLATOR), random_states),
    "class2-quadrature-chi": (
        lambda: matrix_field(
            Class2Phi(FuncHandle.from_text("1+alpha^2*r"), ex.parse("r*theta"))
        ),
        random_states,
    ),
    "class2-theta-lam0": (
        lambda: matrix_field(
            Class2Phi(
                FuncHandle.from_text("3+sin(theta)*r+alpha"),
                ex.parse("r^2*cos(theta)"),
                lam0=0.5,
            )
        ),
        lambda seed, n: _alpha_positive(random_states(seed, n)),
    ),
    "tampered": (
        lambda: perturb_j34(matrix_field(PHI_POOL[1])),
        random_states,
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_PARTIAL_FIELDS))
def test_exact_partials_match_central_differences(name):
    make_field, draw = EXACT_PARTIAL_FIELDS[name]
    field = make_field()
    upper = np.triu_indices(4, 1)
    # matrix_field leaves d_r J34 and d_theta J34, (0, 5) and (1, 5), unformed
    unformed = () if name == "dense" else ((0, 5), (1, 5))
    for s in draw(59, 20):
        for t in (0.0, 0.7):
            m, grads = field.derivatives(s, t)
            assert m == field(s, t)
            fd = reference_central_differences(
                lambda p: reference_array(field(p, t)), s, 1e-5
            )
            for mu, (exact, ref) in enumerate(zip(grads, fd)):
                formed = [k for k in range(6) if (mu, k) not in unformed]
                assert [exact[k] for k in formed] == pytest.approx(
                    [ref[upper][k] for k in formed], rel=1e-6, abs=1e-6
                )
            assert float_bits(grads[mu][k] for mu, k in unformed) == ["0x0.0p+0"] * len(unformed)
            res = jacobi_residuals(field, s, t)
            assert all(type(x) is float for x in res)
            ref = reference_jacobi_residuals(field, s, t, 1e-5)
            assert res == pytest.approx(ref.tolist(), rel=1e-6, abs=1e-6)


# the fields matrix_field builds: class 1, pseudo-potential, class 2, tampered
_BUILT_FIELDS = sorted(set(EXACT_PARTIAL_FIELDS) - {"dense"})


def test_every_built_matrix_has_j12_exactly_plus_zero():
    # the premise on which d_r J34 and d_theta J34 go unformed
    for name in _BUILT_FIELDS:
        make_field, draw = EXACT_PARTIAL_FIELDS[name]
        field = make_field()
        for s in draw(67, 40):
            for t in (0.0, 0.7):
                j12s = (field(s, t).j12, field.derivatives(s, t)[0].j12)
                assert float_bits(j12s) == ["0x0.0p+0"] * 2, (name, s, t)


def test_jacobi_sums_do_not_read_the_unformed_partials():
    # d_r J34 and d_theta J34, partials (0, 5) and (1, 5), meet only J12
    # and zero diagonal entries: any finite values there leave each |sum|
    # bit for bit, on every field matrix_field builds; a matrix with
    # J12 != 0 fails here first
    rng = random.Random(71)
    values = [0.0, -0.0, 5e-324, 1e300, -1e300] + [rng.uniform(-1e3, 1e3) for _ in range(5)]
    for name in _BUILT_FIELDS:
        make_field, draw = EXACT_PARTIAL_FIELDS[name]
        field = make_field()
        for s in draw(73, 20):
            m, (d_r, d_q, *rest) = field.derivatives(s, 0.7)
            want = float_bits(map(abs, jacobi_residuals(field, s, 0.7)))
            for x, y in zip(values, values[::-1]):
                grads = ((*d_r[:5], x), (*d_q[:5], y), *rest)
                assert float_bits(map(abs, jacobi_residuals(_fixed(m, grads), s))) == want, name


@pytest.mark.parametrize("potential", [OSC, OFF_OSCILLATOR], ids=("oscillator", "off"))
def test_casimir_gradients_match_central_differences(potential):
    def casimirs(s):
        return np.array([inv.casimir_C1(potential, s), inv.casimir_C2(potential, s)])

    for s in random_states(61, 20, u_floor=0.3):
        grads = inv.grad_casimirs(potential, s)
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


# the partials of the six upper entries along r, theta, u and v, all
# finite and nonzero; -0.0, +-inf or NaN goes into each of the 24 slots
# in turn, among them the twelve that a Jacobi sum multiplies by a zero
# diagonal entry (d_r J23, d_r J24, d_r J34, d_theta J13, ...)
_FINITE_PARTIALS = tuple(
    tuple(0.25 * (mu + 1) - 0.5 * k + 0.125 for k in range(6)) for mu in range(4)
)
NON_FINITE_PARTIALS = [
    tuple(grads[6 * mu:6 * mu + 6] for mu in range(4))
    for grads in _one_special(sum(_FINITE_PARTIALS, ()))
]
NON_FINITE_VECTORS = _one_special((0.5, -1.25, 2.0, 0.75)) + _one_special((0.0,) * 4)


def _fixed(m, grads=_FINITE_PARTIALS):
    """A field whose matrix and partials are m and grads at every state."""
    return poisson.MatrixField(lambda s, t=0.0: m, "fixed", lambda s, t=0.0: (m, grads))


def test_kernels_keep_the_reference_bits_on_non_finite_entries():
    s = PhaseState(1.0, 0.0, 1.0, 1.0)
    finite = SkewMatrix4(0.0, 0.5, -1.25, 2.0, 0.75, -1.5)
    cases = [(finite, grads) for grads in NON_FINITE_PARTIALS]
    cases += [(m, _FINITE_PARTIALS) for m in NON_FINITE_MATRICES]
    rng = random.Random(31)
    cases += [
        (SkewMatrix4(*_mixed(rng, 6)), tuple(_mixed(rng, 6) for _ in range(4)))
        for _ in range(100)
    ]
    for m, grads in cases:
        got = jacobi_residuals(_fixed(m, grads), s)
        assert float_bits(got) == float_bits(reference_jacobi_sums(m, grads)), (m, grads)
    for m in [finite, *NON_FINITE_MATRICES[::7]]:
        field = _fixed(m)
        for g in NON_FINITE_VECTORS:
            want = float_bits(reference_times(m, g))
            assert float_bits(hamiltonian_flow(field, g, s)) == want, (m, g)
            assert float_bits(casimir_residuals(field, [g, g[::-1]], s)) == want + float_bits(
                reference_times(m, g[::-1])
            )
    # the kept zero terms: inf in d_r J23, which the first sum multiplies by
    # J11 = 0, makes that sum NaN; and inf in g0, times J11, the first component
    d_r = _FINITE_PARTIALS[0]
    inf_r23 = (d_r[:3] + (math.inf,) + d_r[4:], *_FINITE_PARTIALS[1:])
    assert [math.isnan(x) for x in jacobi_residuals(_fixed(finite, inf_r23), s)] == [
        True, False, False, False
    ]
    assert math.isnan(hamiltonian_flow(_fixed(finite), (math.inf, 0.0, 0.0, 0.0), s)[0])


@pytest.mark.parametrize(
    "coupling",
    [
        PHI_POOL[2],
        OFF_OSCILLATOR,
        Class2Phi(FuncHandle.from_text("1+alpha^2*r"), ex.parse("r*theta")),
    ],
    ids=("class1", "pseudo_potential", "class2"),
)
def test_kernels_keep_the_reference_bits_on_sampled_states(coupling):
    field = matrix_field(coupling)
    rng = random.Random(37)
    for s in random_states(83, 40):
        for t in (0.0, 0.7):
            m, grads = field.derivatives(s, t)
            assert float_bits(jacobi_residuals(field, s, t)) == float_bits(
                reference_jacobi_sums(m, grads)
            )
            assert float_bits([determinant(m)]) == float_bits([reference_determinant(m)])
            g = [rng.uniform(-3.0, 3.0) for _ in range(4)]
            assert float_bits(hamiltonian_flow(field, g, s, t)) == float_bits(reference_times(m, g))
            assert float_bits(casimir_residuals(field, [g, grads[2][:4]], s, t)) == float_bits(
                reference_times(m, g) + reference_times(m, grads[2][:4])
            )


def _count_calls(handle, calls, name="psi"):
    handle.fn = lambda *args, fn=handle.fn: calls.append(name) or fn(*args)


def test_class2_derivatives_read_psis_jet_once():
    # phi's call reads psi's value for the matrix; psi's jet takes that
    # value and reads the three partials once, for the matrix's partials
    # and phi's alpha-partial together
    psi = FuncHandle.from_text("1+alpha^2*r")
    field = matrix_field(Class2Phi(psi))
    calls = []
    _count_calls(psi, calls)
    for var in ("alpha", "r", "theta"):
        _count_calls(psi.partial(var), calls, var)
    s = PhaseState(1.3, 0.2, -0.4, 0.9)
    m, _ = field.derivatives(s, 0.7)
    assert sorted(calls) == ["alpha", "psi", "r", "theta"]
    assert m == field(s, 0.7)


# psi by quadrature, constant (phi in closed form) and theta-dependent
_PSI_READ_CASES = {
    "quadrature": ("1+alpha^2*r", 0.0),
    "constant": ("1", 0.0),
    "theta": ("1+0.1*alpha*sin(theta)", 0.1),
}


@pytest.mark.parametrize("name", sorted(_PSI_READ_CASES))
def test_class2_matrix_and_flow_read_psi_once_per_state(name):
    # phi's call reads psi at alpha, and the matrix and the flow take psi
    # from what that call kept: once for a matrix, once for a flow call,
    # once for a verify flow state, which builds both, once for a verify
    # determinant state, whose closed form takes the matrix's psi, and
    # once for a verify jacobi state, whose psi jet takes it too
    text, lam0 = _PSI_READ_CASES[name]
    s, t = PhaseState(1.3, 0.2, 0.4, 0.9), 0.7
    reads = {}
    for case in ("matrix", "flow", "verify flow", "verify determinant", "verify jacobi"):
        psi = FuncHandle.from_text(text)
        spec = SystemSpec(ex.parse("cos(theta)"), Class2Phi(psi, lam0=lam0))
        calls = []
        _count_calls(psi, calls)
        if case == "matrix":
            matrix_class2(spec.coupling, s, t)
        elif case == "flow":
            spec.flow()(t, s)
        elif case == "verify flow":
            hamiltonian_flow(matrix_field(spec.coupling), inv.grad_ermakov(spec.g, s), s)
            vector_field(spec, s)
        elif case == "verify jacobi":
            cfg = SimpleNamespace(verify=SimpleNamespace(tolerance={}))
            _, residual, _, _ = _verify_jacobi(cfg, matrix_field(spec.coupling))
            res = residual(s)
            fresh = Class2Phi(FuncHandle.from_text(text), lam0=lam0)
            want = max(map(abs, jacobi_residuals(matrix_field(fresh), s)))
            assert float_bits([res]) == float_bits([want])
        else:
            cfg = SimpleNamespace(
                spec=spec, floors=DEFAULT_FLOORS, verify=SimpleNamespace(tolerance={})
            )
            _, residual, _, _ = _verify_determinant(cfg, matrix_field(spec.coupling))
            res, _, _ = residual(s)
            # the residual against (u psi / r^2)^2, psi read afresh
            fresh = Class2Phi(FuncHandle.from_text(text), lam0=lam0)
            closed = (s.u * fresh.psi.fn(s.u / s.v, s.r, s.theta, 0.0) / s.r**2) ** 2
            want = abs(determinant(matrix_class2(fresh, s)) - closed) / closed
            assert float_bits([res]) == float_bits([want])
        reads[case] = len(calls)
    assert reads == {
        "matrix": 1, "flow": 1, "verify flow": 1, "verify determinant": 1, "verify jacobi": 1
    }


_ROOT = Path(__file__).resolve().parent.parent
# the configs, read only, and per config states with a NaN residual
_FLOW_CONFIGS = {
    "spiral": (
        _ROOT / "configs" / "spiral.json",
        [PhaseState(1.0, 0.2, math.nan, 1.0), PhaseState(1.0, 0.2, 0.3, math.nan)],
    ),
    "class2_psi1": (
        _ROOT / "configs" / "class2_psi1.json",
        [PhaseState(1.0, math.nan, 0.3, 1.0), PhaseState(1.0, 0.2, 0.3, math.inf)],
    ),
    "class2_quadrature": (
        _ROOT / "bench" / "configs" / "class2_quadrature.json",
        [PhaseState(1.0, math.nan, 0.3, 1.0), PhaseState(1.0, 0.2, 0.3, math.inf)],
    ),
}


@pytest.mark.parametrize("config", sorted(_FLOW_CONFIGS))
def test_verify_flow_residuals_keep_the_reference_bits(config):
    # the residual over 4-tuples gives what map, zip and a list gave, on
    # the drawn states of seeds 0-19 and on states whose residual is NaN
    path, nan_states = _FLOW_CONFIGS[config]
    cfg = load_config(path)
    vs = cfg.verify
    field = matrix_field(cfg.spec.coupling, cfg.floors)
    for seed in range(20):
        states = sample_states(random.Random(seed), vs.samples, vs.u_floor, vs.branch)
        states = [*states[: 7 * seed], *nan_states, *states[7 * seed :]]
        _, residual, _, _ = _verify_flow(cfg, field)
        per_state = [residual(s) for s in states]
        want = [
            reference_flow_residual(
                hamiltonian_flow(field, inv.grad_ermakov(cfg.spec.g, s), s),
                vector_field(cfg.spec, s, 0.0, cfg.floors),
            )
            for s in states
        ]
        assert float_bits(per_state) == float_bits(want)
        assert sum(x != x for x in per_state) == len(nan_states)


# per config, the sweeps it accepts and states whose residual is NaN in each
_SWEEP_CASES = {
    "spiral": (
        ("jacobi", "flow", "casimir", "determinant"),
        (PhaseState(1.0, 0.2, math.nan, 1.0), PhaseState(1.0, 0.2, 0.3, math.nan)),
    ),
    "class2_psi1": (
        SWEEPS,
        (PhaseState(1.0, 0.2, math.nan, 1.0), PhaseState(1.0, 0.2, 0.3, math.nan)),
    ),
    "class2_quadrature": (
        ("jacobi", "flow", "consistency", "determinant"),
        (PhaseState(1.0, 0.2, 0.3, math.inf),),
    ),
}


def _spliced_draw(at, extra, *args):
    states = sample_states(*args)
    return [*states[:at], *extra, *states[at:]]


def _reference_residual(cfg, which, field, s, tol):
    """One ``verify`` state's residual, computed from poisson, invariants
    and vector_field, with the class-2 determinant's Pfaffian-identity and
    quoted-form deviations at that state (else ())."""
    spec, floors = cfg.spec, cfg.floors
    if which == "jacobi":
        return nan_max(abs(x) for x in jacobi_residuals(field, s, 0.0)), ()
    if which == "flow":
        jf = hamiltonian_flow(field, inv.grad_ermakov(spec.g, s), s)
        return reference_flow_residual(jf, vector_field(spec, s, 0.0, floors)), ()
    if which == "casimir":
        potential = cfg.verify.casimir_potential or spec.coupling
        grads = inv.grad_casimirs(potential, s, 0.0, floors)
        return nan_max(abs(x) for x in casimir_residuals(field, grads, s)), ()
    if which == "consistency":
        return abs(consistency_residual(spec.coupling.psi, spec.coupling, s, 0.0, floors)), ()
    m = field(s)
    det = determinant(m)
    if spec.kind != "class2":
        return abs(det) / m.norm() ** 4, ()
    psi = spec.coupling.psi.fn(s.u / s.v, s.r, s.theta, 0.0)
    closed = (s.u * psi / s.r**2) ** 2
    res = abs(det - closed) / max(1e-30, closed)
    pf = pfaffian(m)
    return max(res, tol) if det <= 0.0 < closed else res, (
        abs(det - pf * pf) / max(1e-30, abs(det), pf * pf),
        abs(det - det_class2_quoted(psi, s)) / max(1e-30, abs(det)),
    )


@pytest.mark.parametrize(
    "config, which", [(c, w) for c, (sweeps, _) in _SWEEP_CASES.items() for w in sweeps]
)
def test_verify_residuals_keep_the_reference_bits(config, which, monkeypatch):
    # every sweep's per-state residuals, its max_residual and the class-2
    # determinant's two reduced fields equal their values computed directly,
    # on the drawn states of seeds 0-19 and, at odd seeds, on states whose
    # residual is NaN
    cfg = load_config(_FLOW_CONFIGS[config][0])
    nan_states = _SWEEP_CASES[config][1]
    for seed in range(20):
        extra = nan_states if seed % 2 else ()
        monkeypatch.setattr(verify, "sample_states", functools.partial(_spliced_draw, 7 * seed, extra))
        _, _, reports = verify.cmd_verify(cfg, seed, which, False)
        (doc,) = reports.values()
        rows = doc["per_state"]
        field = matrix_field(cfg.spec.coupling, cfg.floors)
        want = [
            _reference_residual(
                cfg, which, field, PhaseState(row["r"], row["theta"], row["u"], row["v"]),
                doc["tolerance"],
            )
            for row in rows
        ]
        got = [row["residual"] for row in rows]
        assert float_bits(got) == float_bits(res for res, _ in want)
        assert sum(x != x for x in got) == len(extra)
        assert float_bits([doc["max_residual"]]) == float_bits([nan_max(got)])
        if cfg.spec.kind == "class2" and which == "determinant":
            pf_devs, quoted_devs = zip(*(devs for _, devs in want))
            assert float_bits([doc["pfaffian_identity_max"], doc["quoted_form_max_rel_dev"]]) == (
                float_bits([nan_max(pf_devs), nan_max(quoted_devs)])
            )


@pytest.mark.parametrize("config", sorted(_FLOW_CONFIGS))
def test_determinant_and_pfaffian_do_not_read_j34(config):
    # J12 = 0 in both structures, so J34 meets only J12 and zero diagonal
    # entries: any J34 whose products stay finite leaves both bits, on the
    # drawn states of seeds 0-19; a matrix with J12 != 0 fails here first
    cfg = load_config(_FLOW_CONFIGS[config][0])
    vs = cfg.verify
    field = matrix_field(cfg.spec.coupling, cfg.floors)
    for seed in range(20):
        for s in sample_states(random.Random(seed), vs.samples, vs.u_floor, vs.branch):
            m = field(s)
            want = float_bits((determinant(m), pfaffian(m)))
            for j34 in (0.0, -0.0, -7.5, 2.0 * m.j34, 1e3 * m.j34, 1e-300):
                other = m._replace(j34=j34)
                assert float_bits((determinant(other), pfaffian(other))) == want, (seed, s, j34)


def test_consistency_reads_psis_jet_once():
    # phi built on psi takes its alpha-partial, and its K psi, from the
    # jet the residual read: psi's value is read there alone
    psi = FuncHandle.from_text("1+alpha^2*r")
    phi = Class2Phi(psi)
    calls = []
    _count_calls(psi, calls)
    s = PhaseState(1.3, 0.2, -0.4, 0.9)
    res = consistency_residual(psi, phi, s, 0.7)
    assert len(calls) == 1
    # a phi on an equal psi of its own reads that psi's jet, to the same bits
    other = Class2Phi(FuncHandle.from_text("1+alpha^2*r"))
    assert float_bits([consistency_residual(psi, other, s, 0.7)]) == float_bits([res])
    assert len(calls) == 2


# (matrix builder, its reference, a fresh coupling): class 1 free and
# induced by a potential; class 2 with a constant integrand and chi, by
# quadrature, and with psi depending on theta; and class 2 with a psi that
# leaves its real domain at some sampled alpha (ln of a negative, exp that
# overflows), where phi's quadrature or its theta path also fails at other
# lambda: the matrix raises psi's own error at alpha, as the reference
# reads psi first
MATRIX_CASES = {
    "class1": (matrix_class1, reference_matrix_class1, lambda: PHI_POOL[2]),
    "pseudo_potential": (matrix_class1, reference_matrix_class1, lambda: OFF_OSCILLATOR.phi),
    "class2-constant": (
        matrix_class2, reference_matrix_class2, lambda: Class2Phi(TWO, ex.parse("r*theta"))
    ),
    "class2": (
        matrix_class2,
        reference_matrix_class2,
        lambda: Class2Phi(FuncHandle.from_text("1+alpha^2*r")),
    ),
    "class2-theta": (
        matrix_class2,
        reference_matrix_class2,
        lambda: Class2Phi(FuncHandle.from_text("1+0.1*alpha*sin(theta)"), lam0=-0.1),
    ),
    "class2-ln": (
        matrix_class2,
        reference_matrix_class2,
        lambda: Class2Phi(FuncHandle.from_text("1+alpha^2*r+0.1*ln(alpha)"), lam0=1.0),
    ),
    "class2-exp": (
        matrix_class2,
        reference_matrix_class2,
        lambda: Class2Phi(FuncHandle.from_text("1+exp(300*alpha*r)")),
    ),
    "class2-theta-ln": (
        matrix_class2,
        reference_matrix_class2,
        lambda: Class2Phi(FuncHandle.from_text("2+0.5*sin(theta)*ln(alpha)"), lam0=0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_matrices_keep_the_reference_bits_and_errors(name):
    build, reference, make = MATRIX_CASES[name]
    phi, ref_phi = make(), make()  # a Class2Phi keeps its last value
    seen = set()
    for floors in (DEFAULT_FLOORS, EDGE_FLOORS):
        for s in random_states(59, 30) + EDGE_STATES:
            for t in (0.0, 0.7):
                got = outcome(build, phi, s, t, floors)
                assert got == outcome(reference, ref_phi, s, t, floors), (s, t, floors)
                seen.add(got[0])
    assert seen == {SkewMatrix4, "raises"}
    # r's error before v's, at the floors and below them
    both = PhaseState(0.005, 0.2, -0.4, -0.001)
    with pytest.raises(SingularStateError, match=r"^r=0.005 below floor r_min=0.01$"):
        build(make(), both, 0.0, EDGE_FLOORS)
    v_only = PhaseState(1.3, 0.2, -0.4, -0.001)
    with pytest.raises(SingularStateError, match=r"^\|v\|=0.001 at or below floor v_min=0.001$"):
        build(make(), v_only, 0.0, EDGE_FLOORS)


# floors, and per floor the value of r, u or v past it and Floors.check's
# message there: r sits between the relaxed floor and the floor, and v at
# the floor, so the integrator's stages pass them
FLOORS = Floors(r_min=0.01, u_min=0.001, v_min=0.001)
PAST_FLOORS = {
    "r": (0.008, "r=0.008 below floor r_min=0.01"),
    "u": (0.0005, "|u|=0.0005 at or below floor u_min=0.001"),
    "v": (-0.001, "|v|=0.001 at or below floor v_min=0.001"),
}
FREE = SystemSpec(ex.parse("0"), FuncHandle.from_text("0"))
PSI = FuncHandle.from_text("1+alpha^2*r")


def _accept_check(s, floors):
    """The stop reason of ``integrate``'s accept check at its first
    accepted state, where u = 0 keeps r and v as they were at s."""
    solver = Solver(method="rk4", dt=0.001)
    return integrate(FREE, s._replace(u=0.0), 0.0, 0.01, solver, floors).stop_reason


def _raised(fn):
    def site(s, floors):
        with pytest.raises(SingularStateError) as err:
            fn(s, floors)
        return str(err.value)

    return site


# each call site: the floors it tests, how it reports a floor, and what it
# adds to the message
FLOOR_SITES = {
    "vector_field": ("rv", _raised(lambda s, f: vector_field(FREE, s, 0.0, f)), ""),
    "integrate": ("rv", _accept_check, " at t=0.001"),
    "matrix_class1": ("rv", _raised(lambda s, f: matrix_class1(PSI, s, 0.0, f)), ""),
    "matrix_class2": ("rv", _raised(lambda s, f: matrix_class2(Class2Phi(PSI), s, 0.0, f)), ""),
    "consistency_residual": (
        "uv", _raised(lambda s, f: consistency_residual(PSI, Class2Phi(PSI), s, 0.0, f)), ""
    ),
    "casimir_C1": ("v", _raised(lambda s, f: inv.casimir_C1(OSC, s, 0.0, f)), ""),
    "grad_casimirs": ("v", _raised(lambda s, f: inv.grad_casimirs(OSC, s, 0.0, f)), ""),
}


@pytest.mark.parametrize(
    "site, past",
    [(site, past) for site, (tested, _, _) in FLOOR_SITES.items()
     for past in ("r", "u", "v", "ru", "rv", "uv", "ruv") if set(past) <= set(tested)],
)
def test_every_call_site_raises_the_first_floor_past_in_the_order_r_u_v(site, past):
    _, report, suffix = FLOOR_SITES[site]
    values = {"r": 1.3, "u": -0.4, "v": 0.9, **{name: PAST_FLOORS[name][0] for name in past}}
    s = PhaseState(values["r"], 0.2, values["u"], values["v"])
    assert report(s, FLOORS) == PAST_FLOORS[past[0]][1] + suffix
