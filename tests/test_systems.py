import math
import random
import struct

import pytest

from ermakov import expr as ex
from ermakov.systems import (
    Class2Phi,
    DEFAULT_FLOORS,
    Floors,
    Flow4,
    FuncHandle,
    PhaseState,
    Potential,
    SingularStateError,
    Solver,
    SystemSpec,
    linspace,
    nan_max,
    vector_field,
)

from helpers import (
    EDGE_FLOORS,
    EDGE_STATES,
    class2_integrand_partial,
    count_outermost_calls,
    outcome,
    reference_flow,
    reference_jet,
    reference_vector_field,
    spiral_start,
    vec,
)

np = pytest.importorskip("numpy")

OSC = Potential(ex.parse("1/(2*rbar^2)"))
ZERO_HANDLE = FuncHandle(ex.Num(0.0))


def random_states(seed, n, u_floor=0.05):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        u = rng.uniform(u_floor, 2.0) * rng.choice((-1.0, 1.0))
        v = rng.uniform(0.5, 3.0) * rng.choice((-1.0, 1.0))
        out.append(
            PhaseState(
                r=rng.uniform(0.5, 3.0),
                theta=rng.uniform(-math.pi, math.pi),
                u=u,
                v=v,
            )
        )
    return out


def test_phase_state_requires_positive_radius():
    for r in (0.0, -1.0, math.nan):
        with pytest.raises(SingularStateError) as err:
            PhaseState(r=r, theta=0.0, u=0.0, v=1.0)
        assert str(err.value) == f"r must be positive, got {r!r}"
    with pytest.raises(SingularStateError, match="^r must be positive, got 0.0$"):
        PhaseState(0.0, 0.0, 0.0, 1.0)
    s = PhaseState(1.0, 0.5, -0.25, 2.0)
    assert repr(s) == "PhaseState(r=1.0, theta=0.5, u=-0.25, v=2.0)"
    assert s == PhaseState(r=1.0, theta=0.5, u=-0.25, v=2.0)
    with pytest.raises(AttributeError):
        s.r = 2.0
    with pytest.raises(AttributeError):
        DEFAULT_FLOORS.r_min = 1.0


def test_alpha_guards_small_v():
    s = PhaseState(r=1.0, theta=0.0, u=2.0, v=1e-15)
    with pytest.raises(SingularStateError):
        s.alpha()
    assert PhaseState(r=1.0, theta=0.0, u=2.0, v=0.5).alpha() == 4.0


def test_func_handle_rejects_unknown_variables():
    with pytest.raises(ValueError, match="rbar"):
        FuncHandle.from_text("rbar + alpha")
    FuncHandle.from_text("alpha*r + sin(theta)*t")  # all four allowed


def test_func_handle_symbolic_partial():
    h = FuncHandle.from_text("alpha^2*r")
    p = h.partial("alpha")
    assert p(3.0, 2.0, 0.0) == pytest.approx(12.0)
    assert h.depends_on("alpha") and not h.depends_on("theta")


def test_func_handle_jet_is_its_value_and_partials_bit_for_bit():
    # with -0.0, +-inf and NaN in each argument, and where a partial fails,
    # the functions the jet keeps give what per-call lookups of them gave
    rng = random.Random(7)
    texts = ("alpha^2*r + sin(theta)*t", "exp(-r)/alpha", "3", "1/(r^2*alpha)", "ln(alpha)*theta")
    for text in texts:
        h = FuncHandle.from_text(text)
        points = [
            (rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0), rng.random())
            for _ in range(20)
        ]
        points += [(-p[0], *p[1:]) for p in points[:5]] + [
            p[:k] + (x,) + p[k + 1:]
            for p in points[:3] for k in range(4) for x in (-0.0, math.inf, -math.inf, math.nan)
        ]
        for point in points:
            assert outcome(h.jet, *point) == outcome(reference_jet, h, *point), (text, point)


def test_func_handle_shows_its_tree_as_text(monkeypatch):
    rendered = count_outermost_calls(monkeypatch, ex, "to_text")
    h = FuncHandle.from_text("alpha^2*r")
    partial = h.partial("alpha")
    phi = Potential(ex.parse("1/(2*rbar^2) + 0.1*rbar")).phi
    assert rendered[0] == 0  # building a handle renders nothing
    assert repr(h) == "FuncHandle(alpha^2.0*r)"
    assert repr(partial) == "FuncHandle(2.0*alpha*r)"
    for handle in (h, partial, phi):
        assert repr(handle) == f"FuncHandle({ex.to_text(handle.tree)})"


def test_func_handle_requires_a_tree():
    with pytest.raises(ValueError, match="expression tree"):
        FuncHandle(tree=None)
    with pytest.raises(TypeError):
        FuncHandle(fn=lambda alpha, r, theta, t: alpha * r)


def test_system_spec_restricts_g_and_f_to_theta():
    with pytest.raises(ValueError, match=r"G uses variables \['r'\], only theta"):
        SystemSpec(ex.parse("r"), ZERO_HANDLE)


def test_potential_restricted_to_rbar_and_t():
    with pytest.raises(ValueError, match=r"\['theta'\], only \(rbar, t\)"):
        Potential(ex.parse("theta"))


def test_potential_differentiates_on_first_use_only(monkeypatch):
    calls = count_outermost_calls(monkeypatch, ex, "differentiate")
    potential = Potential(ex.parse("1/(2*rbar^2) + 0.1*rbar"))
    assert calls[0] == 0
    for _ in range(3):
        assert potential.slope(2.0, 0.0) == pytest.approx(-0.025, rel=1e-14)
    assert calls[0] == 1


def test_pseudo_potential_flow_at_spiral_start():
    spec = SystemSpec(ex.parse("0"), OSC)
    flow = vector_field(spec, spiral_start())
    assert np.allclose(vec(flow), [0.0, 1.0, -1.0, 0.0], atol=1e-15)


def test_class1_flow_components():
    phi = FuncHandle.from_text("sin(theta)*alpha")
    spec = SystemSpec(ex.parse("cos(theta)"), phi)
    s = PhaseState(r=2.0, theta=0.5, u=-0.7, v=1.3)
    flow = vector_field(spec, s)
    g = math.cos(0.5)
    assert flow.rdot == s.u
    assert flow.thetadot == pytest.approx(s.v / s.r**2)
    assert flow.vdot == pytest.approx(-g / s.r**2)
    expected_udot = -s.u * g / (s.r**2 * s.v) + s.u * s.v * (
        math.sin(0.5) * (s.u / s.v)
    )
    assert flow.udot == pytest.approx(expected_udot, rel=1e-14)


def test_class2_flow_uses_constructed_phi_plus_shift():
    psi = FuncHandle.from_text("1")
    spec = SystemSpec(ex.parse("0"), Class2Phi(psi))
    s = PhaseState(r=1.3, theta=0.2, u=0.6, v=1.1)
    flow = vector_field(spec, s)
    alpha = s.u / s.v
    # constant psi=1 integrates to phi = -2 alpha / r
    phi_val = -2.0 * alpha / s.r
    expected = s.u * s.v * (phi_val + 2.0 * s.v / s.r)
    assert flow.udot == pytest.approx(expected, rel=1e-10)


def test_pseudo_potential_reduces_to_class1():
    spec = SystemSpec(ex.parse("cos(theta)"), OSC)
    lowered = SystemSpec(spec.g, spec.coupling.phi)
    assert lowered.kind == "class1"
    for s in random_states(37, 100, u_floor=1e-6):
        a = vec(vector_field(spec, s))
        b = vec(vector_field(lowered, s))
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


def test_flow_rejects_states_below_floors():
    spec = SystemSpec(ex.parse("0"), ZERO_HANDLE)
    with pytest.raises(SingularStateError, match="r_min"):
        vector_field(spec, PhaseState(r=1e-12, theta=0.0, u=0.0, v=1.0))
    with pytest.raises(SingularStateError, match="v_min"):
        vector_field(spec, PhaseState(r=1.0, theta=0.0, u=0.0, v=1e-14))
    tight = Floors(r_min=0.5, v_min=0.1)
    with pytest.raises(SingularStateError):
        vector_field(spec, PhaseState(r=0.4, theta=0.0, u=0.0, v=1.0), floors=tight)


@pytest.mark.parametrize(
    "state, message",
    [
        ([1e-12, 0.0, 0.0, 1.0], "r=1e-12 below floor r_min=1e-09"),
        ([1.0, 0.0, 0.0, -1e-14], "|v|=1e-14 at or below floor v_min=1e-12"),
    ],
    ids=("r", "v"),
)
def test_floor_messages_print_plain_floats(state, message):
    # a state built from an array holds numpy scalars
    spec = SystemSpec(ex.parse("0"), ZERO_HANDLE)
    with pytest.raises(SingularStateError) as err:
        vector_field(spec, PhaseState(*np.array(state)))
    assert str(err.value) == message


# the class-1 pool, the oscillator and an off-oscillator potential, and
# class 2 with and without chi, each with a theta-dependent G
_G = ex.parse("cos(theta)")
LOWERED_FLOW_SPECS = {
    **{
        f"class1-{text}": SystemSpec(_G, FuncHandle.from_text(text))
        for text in ("0", "-r/alpha", "sin(theta)*alpha", "r^2*t")
    },
    "oscillator": SystemSpec(_G, OSC),
    "off-oscillator": SystemSpec(
        _G, Potential(ex.parse("1/(2*rbar^2) + 0.1*rbar - 0.2*rbar^3*t"))
    ),
    "class2": SystemSpec(_G, Class2Phi(FuncHandle.from_text("1+alpha^2*r"))),
    "class2-chi": SystemSpec(
        _G, Class2Phi(FuncHandle.from_text("1+alpha^2*r"), ex.parse("r*theta+t"))
    ),
}


@pytest.mark.parametrize("name", sorted(LOWERED_FLOW_SPECS))
def test_lowered_flow_matches_the_reference_bit_for_bit(name):
    spec = LOWERED_FLOW_SPECS[name]
    for floors in (DEFAULT_FLOORS, Floors(r_min=1e-2, v_min=1e-3).relaxed()):
        flow = spec.flow(floors)
        assert spec.flow(Floors(floors.r_min, floors.u_min, floors.v_min)) is flow  # kept
        for s in random_states(53, 60):
            for t in (0.0, 0.7):
                want = reference_flow(spec, s, t, floors)
                got = flow(t, [s.r, s.theta, s.u, s.v])
                assert got == want
                assert all(type(x) is float for x in got)
                assert vector_field(spec, s, t, floors) == Flow4(*want)


# and class 2 with a psi that leaves its real domain at some sampled alpha,
# where it also fails inside phi's quadrature at other lambda: the flow
# raises psi's own error at alpha, as the reference reads psi first
ERROR_FLOW_SPECS = {
    **LOWERED_FLOW_SPECS,
    "class2-ln": SystemSpec(
        _G, Class2Phi(FuncHandle.from_text("1+alpha^2*r+0.1*ln(alpha)"), lam0=1.0)
    ),
    "class2-exp": SystemSpec(_G, Class2Phi(FuncHandle.from_text("1+exp(300*alpha*r)"))),
    "class2-theta-ln": SystemSpec(
        _G, Class2Phi(FuncHandle.from_text("2+0.5*sin(theta)*ln(alpha)"), lam0=0.5)
    ),
}


@pytest.mark.parametrize("name", sorted(ERROR_FLOW_SPECS))
def test_vector_field_keeps_the_reference_bits_and_errors(name):
    spec = ERROR_FLOW_SPECS[name]
    seen = set()
    for floors in (DEFAULT_FLOORS, EDGE_FLOORS):
        for s in random_states(61, 30) + EDGE_STATES:
            for t in (0.0, 0.7):
                got = outcome(vector_field, spec, s, t, floors)
                assert got == outcome(reference_vector_field, spec, s, t, floors), (s, t)
                seen.add(got[0])
    assert seen == {Flow4, "raises"}


_FLOORS = Floors(r_min=1e-2, v_min=1e-3)
_PSI_FLOOR_SPEC = SystemSpec(_G, Class2Phi(FuncHandle.from_text("0.5+r"), psi_min=0.8))


@pytest.mark.parametrize(
    "spec, state, floors, message",
    [
        (LOWERED_FLOW_SPECS["oscillator"], [0.0, 0.0, 0.0, 1.0], _FLOORS, "r must be positive, got 0.0"),
        (LOWERED_FLOW_SPECS["oscillator"], [-1.0, 0.0, 0.0, 1.0], _FLOORS, "r must be positive, got -1.0"),
        (LOWERED_FLOW_SPECS["oscillator"], [math.nan, 0.0, 0.0, 1.0], _FLOORS, "r must be positive, got nan"),
        (
            LOWERED_FLOW_SPECS["class1-sin(theta)*alpha"],
            [0.004, 0.0, 0.1, 1.0],
            _FLOORS.relaxed(),
            "r=0.004 below floor r_min=0.005",
        ),
        (
            LOWERED_FLOW_SPECS["class1-sin(theta)*alpha"],
            [1.0, 0.0, 0.1, -0.0005],
            _FLOORS.relaxed(),
            "|v|=0.0005 at or below floor v_min=0.0005",
        ),
        (
            _PSI_FLOOR_SPEC,
            [0.25, 0.4, -0.5, 1.0],
            DEFAULT_FLOORS,
            "|psi|=0.75 at or below floor psi_min=0.8 (lambda=-0.5)",
        ),
    ],
    ids=("r-zero", "r-negative", "r-nan", "r-floor", "v-floor", "psi-floor"),
)
def test_lowered_flow_failures_keep_their_messages(spec, state, floors, message):
    with pytest.raises(SingularStateError) as err:
        spec.flow(floors)(0.3, state)
    assert str(err.value) == message
    if state[0] > 0.0:  # the reference starts from a PhaseState
        with pytest.raises(SingularStateError) as ref:
            reference_flow(spec, PhaseState(*state), 0.3, floors)
        assert str(ref.value) == message


def test_an_underflowed_denominator_is_a_floating_point_error():
    # r^2 underflows to zero: the reference divides by zero, the lowered
    # flow says the state is singular
    spec = SystemSpec(ex.parse("0"), ZERO_HANDLE)
    floors = Floors(r_min=1e-300, v_min=1e-300)
    with pytest.raises(ZeroDivisionError):
        reference_flow(spec, PhaseState(1e-170, 0.0, -1e-171, 1e-20), 0.0, floors)
    with pytest.raises(FloatingPointError, match="^float division by zero$") as err:
        spec.flow(floors)(0.0, [1e-170, 0.0, -1e-171, 1e-20])
    assert isinstance(err.value.__cause__, ZeroDivisionError)


def test_relaxed_floors_scale_down():
    f = Floors(r_min=1e-2, v_min=1e-3)
    r = f.relaxed()
    assert r.r_min == 5e-3 and r.v_min == 5e-4


def test_phi_from_oscillator_potential():
    phi = OSC.phi
    for s in random_states(5, 50):
        alpha = s.u / s.v
        assert phi(alpha, s.r, s.theta) == pytest.approx(-s.r / alpha, rel=1e-12)


def test_class2_phi_constant_psi():
    phi = Class2Phi(FuncHandle.from_text("1"))
    for alpha, r in [(0.5, 1.0), (-1.2, 2.0), (2.0, 0.7)]:
        assert phi(alpha, r, 0.3) == pytest.approx(-2.0 * alpha / r, rel=1e-10)


def test_class2_phi_exact_alpha_derivative():
    phi = Class2Phi(FuncHandle.from_text("2"), chi=ex.parse("r*theta"))
    alpha, r, theta = 0.8, 1.4, 0.6
    exact = phi.partial_alpha(alpha, r, theta, 0.0, phi.psi.jet(alpha, r, theta))
    h = 1e-6
    fd = (phi(alpha + h, r, theta) - phi(alpha - h, r, theta)) / (2.0 * h)
    assert exact == pytest.approx(fd, rel=1e-7)


# (psi, chi, lam0), then (alpha, r, theta, t) and the float.hex of phi and of
# its alpha-partial, as phi and partial_alpha gave them before phi's jet
# came and after it went
JET_BITS = [
    (("2", None, 0.0), (0.8, 1.4, 0.6, 0.0), ("-0x1.2492492492493p+0", "-0x1.6db6db6db6db7p+0")),
    (("2", None, 0.0), (1.3, 0.7, -0.4, 0.5), ("-0x1.db6db6db6db6ep+1", "-0x1.6db6db6db6db7p+1")),
    (("1+alpha^2*r", None, 0.0), (0.8, 1.4, 0.6, 0.0),
     ("-0x1.9647a00b12911p+0", "-0x1.7ba59a911c678p+1")),
    (("1+alpha^2*r", None, 0.0), (1.3, 0.7, -0.4, 0.5),
     ("-0x1.637c00660c22fp+2", "-0x1.adaeeeed17f91p+2")),
    (("2+sin(theta)*alpha", None, 0.5), (0.8, 1.4, 0.6, 0.0),
     ("-0x1.8e136ae85de72p-2", "-0x1.58aa4b706b3f7p+0")),
    (("2+sin(theta)*alpha", None, 0.5), (1.3, 0.7, -0.4, 0.5),
     ("-0x1.3e3a2a2fa67fap+0", "-0x1.46525ab6cbfa9p+0")),
    (("1+alpha^2*r+0.1*sin(theta)*t", "r*theta + t", 0.1), (0.8, 1.4, 0.6, 0.0),
     ("0x1.192e913b50bddp-2", "-0x1.8880a746f8e34p-1")),
    (("1+alpha^2*r+0.1*sin(theta)*t", "r*theta + t", 0.1), (1.3, 0.7, -0.4, 0.5),
     ("-0x1.05125cf646b37p+2", "-0x1.5e582abc7db58p+2")),
]


@pytest.mark.parametrize("coupling,point,bits", JET_BITS)
def test_class2_phi_jet_keeps_the_bits_of_the_separate_partials(coupling, point, bits):
    # partial_alpha, on a fresh phi, and the phi its call kept; and phi
    # alone, on another
    psi, chi, lam0 = coupling
    make = lambda: Class2Phi(FuncHandle.from_text(psi), None if chi is None else ex.parse(chi), lam0)
    phi = make()
    assert phi.partial_alpha(*point, phi.psi.jet(*point)).hex() == bits[1]
    assert phi.last[1].hex() == make()(*point).hex() == bits[0]


def test_class2_phi_with_theta_dependent_psi_needs_safe_path():
    psi = FuncHandle.from_text("2 + sin(theta)")
    phi = Class2Phi(psi, lam0=0.5)
    # path [0.5, 1.0] avoids lambda = 0, fine
    phi(1.0, 1.2, 0.4)
    # path through zero hits the 1/lambda term
    with pytest.raises(SingularStateError):
        phi(-0.3, 1.2, 0.4)


def test_class2_phi_guards_vanishing_psi():
    psi = FuncHandle.from_text("alpha")  # vanishes at alpha = 0
    phi = Class2Phi(psi, lam0=1.0)
    with pytest.raises(SingularStateError):
        phi(0.0, 1.0, 0.0)


def test_chi_must_not_depend_on_alpha():
    with pytest.raises(ValueError):
        Class2Phi(FuncHandle.from_text("1"), chi=ex.parse("alpha*r"))


def test_func_handle_differentiates_once_per_variable(monkeypatch):
    calls = count_outermost_calls(monkeypatch, ex, "differentiate")
    h = FuncHandle.from_text("alpha^2*r + sin(theta)")
    for _ in range(3):
        assert h.partial("alpha")(3.0, 2.0, 0.0) == 12.0
        h.partial("r")
    assert calls[0] == 2
    assert h.partial("theta") is h.partial("theta")
    assert calls[0] == 3


@pytest.mark.parametrize("coord", range(4))
def test_class2_phi_memo_follows_every_argument(monkeypatch, coord):
    psi = FuncHandle.from_text("1 + alpha^2*r + 0.1*sin(theta)*t")
    chi = ex.parse("r*theta + t")
    first = [0.4, 1.3, 0.2, 0.5]  # (alpha, r, theta, t)
    second = list(first)
    second[coord] += 0.25
    expected = [Class2Phi(psi, chi, lam0=0.1)(*x) for x in (first, second)]
    quads = count_outermost_calls(monkeypatch, ex, "quad_adaptive")
    phi = Class2Phi(psi, chi, lam0=0.1)
    for n in range(6):
        assert phi(*(first, second)[n % 2]) == expected[n % 2]
    assert quads[0] == 6
    phi(*second)
    phi.partial_alpha(*second, psi.jet(*second))
    assert quads[0] == 6  # the same state again, and its derivative, reuse it


@pytest.mark.parametrize("text", ["1", "2+r^2*sin(t)", "exp(-r)+0.5"])
def test_class2_phi_takes_a_constant_integrand_exactly(monkeypatch, text):
    # psi free of alpha and theta: the integrand is constant in lam, and
    # (alpha - lam0) * integrand matches the adaptive quadrature it replaces
    rng = random.Random(11)
    psi = FuncHandle.from_text(text)
    cases = []
    for lam0 in (0.0, 0.3, -1.2):
        phi = Class2Phi(psi, lam0=lam0)
        for _ in range(50):
            alpha, r = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0)
            theta, t = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0)
            quadrature = ex.quad_adaptive(
                lambda lam: phi.integrand(lam, r, theta, t), lam0, alpha, phi.tol
            )
            cases.append((phi, (alpha, r, theta, t), quadrature * psi(alpha, r, theta, t)))
    quads = count_outermost_calls(monkeypatch, ex, "quad_adaptive")
    for phi, point, expected in cases:
        assert phi(*point) == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert quads[0] == 0


def _outcome(fn):
    """The exact bits of a result, or the type and message of its error."""
    try:
        return struct.pack("<d", fn())
    except Exception as exc:
        return type(exc), str(exc)


# (psi, chi, lam0, psi_min): alpha only, alpha and r, theta-dependent, with
# chi, a nonzero lam0 and a floor that psi crosses, and a ln that can fail
_FUSED_POOL = [
    ("1+alpha^2", None, 0.0, 1e-12),
    ("1+alpha^2*r", None, 0.0, 1e-12),
    ("1+alpha^2*r+0.1*alpha*sin(theta)", None, 0.3, 1e-12),
    ("1+alpha+alpha^2*r", "0.1*r*sin(theta)+t", 0.3, 0.8),
    ("2+alpha*ln(r+alpha)+0.2*cos(theta)*t", None, -0.4, 1e-12),
]


# (lam, r, theta, t) ranges of the random points
_FUSED_RANGES = ((-3.0, 3.0), (0.2, 3.0), (-3.2, 3.2), (0.0, 2.0))


def test_fused_integrand_matches_integrand_bit_for_bit():
    faults = []
    for text, chi, lam0, psi_min in _FUSED_POOL:
        chi = None if chi is None else ex.parse(chi)
        phi = Class2Phi(FuncHandle.from_text(text), chi, lam0=lam0, psi_min=psi_min)
        bind = phi._lower()
        rng = random.Random(text)
        points = [tuple(rng.uniform(lo, hi) for lo, hi in _FUSED_RANGES) for _ in range(2000)]
        # lambda = 0 (at r = inf only the guard sees it: the 1/lambda term
        # is a NaN there, not a division by zero), psi at its floor, ln(0)
        points += [(0.0, 1.3, 0.4, 0.5), (-0.0, 0.7, -1.1, 0.0), (0.0, math.inf, 0.3, 0.2),
                   (-0.5, 1.0, 0.2, 0.1), (-1.0, 1.0, 0.2, 0.1)]
        for lam, r, theta, t in points:
            expected = _outcome(lambda: phi.integrand(lam, r, theta, t))
            fused = bind(r, theta, t, replay=phi.integrand)
            assert _outcome(lambda: fused(lam)) == expected, (text, lam, r, theta, t)
            if not isinstance(expected, bytes):
                faults.append(expected)
    # every fault state was reached, and nothing else faulted
    kinds = {
        (SingularStateError, "at or below floor psi_min="),
        (SingularStateError, "has a 1/lambda term and the path touches lambda=0"),
        (ex.DomainError, "ln of -"),
        (ex.DomainError, "ln of 0.0 "),
    }

    def kind(error, message):
        return next((k for k in kinds if k[0] is error and k[1] in message), None)

    assert {kind(*fault) for fault in faults} == kinds


def test_class2_phi_rebuilds_share_the_lowered_code(monkeypatch):
    # a rebuilt Class2Phi (every command reloads its config) runs on the
    # code objects of the first: exec'ing the same source again would
    # keep new memory each time; and so does an equal partial of the
    # integrand, lowered again for the rebuilt psi
    codes = []
    quad = ex.quad_adaptive
    monkeypatch.setattr(ex, "quad_adaptive", lambda f, *args: codes.append(f) or quad(f, *args))
    first, second = (Class2Phi(FuncHandle.from_text("1+alpha^2*r")) for _ in range(2))
    for phi, state in ((first, (0.4, 1.0, 0.2, 0.0)), (second, (0.7, 1.3, 0.1, 0.0))):
        phi(*state)
        # phi at the state is kept: its alpha-partial takes no quadrature
        phi.partial_alpha(*state, phi.psi.jet(*state))
    assert class2_integrand_partial(first, "theta") is None
    codes += [class2_integrand_partial(phi, "r")(1.1, 0.2, 0.0) for phi in (first, second)]
    assert len(codes) == 4 and codes[0] is not codes[1] and codes[2] is not codes[3]
    for a, b in (codes[:2], codes[2:]):
        assert a.__code__ is b.__code__
        # and so do their fused panels, generated with the lowered code
        assert a.gk21.__code__ is b.gk21.__code__
    assert first._lower() is not second._lower()
    assert first._lower().__code__ is second._lower().__code__
    # the panel is generated once per process
    assert ex._gk21_panel() is ex._gk21_panel()
    assert ex._gk21_panel.cache_info().misses == 1


def test_solver_refuses_dt_without_rk4():
    assert Solver(method="rk4", dt=0.5).dt == 0.5
    assert Solver("rk4", 1e-8, 1e-10, 0.5).method == "rk4"
    for args, kwargs in (((), {"dt": 0.5}), (("dp45", 1e-8, 1e-10, 0.5), {})):
        with pytest.raises(ValueError, match="^dt applies only to rk4, not dp45$"):
            Solver(*args, **kwargs)
    # the rule covers construction by call only: _replace and _make skip it
    assert Solver(method="rk4", dt=0.5)._replace(method="dp45").dt == 0.5


def test_nan_max_lets_the_first_nan_win():
    nan = math.nan
    assert max([1e-10, nan]) == 1e-10  # what it replaces
    assert math.isnan(nan_max([1e-10, nan, 2.0]))
    assert math.isnan(nan_max(iter([nan, 3.0])))
    assert nan_max([1.0, 3.0, -2.0, 3.0]) == 3.0
    assert nan_max(abs(x) for x in (-4.0, 2.0)) == 4.0
    assert nan_max([]) == -math.inf


def test_linspace_matches_numpy_bit_for_bit():
    rng = random.Random(41)
    cases = [(0.0, 1.0), (-1.0, 0.0), (0.1, 0.7), (-3.3, 1e-17), (1e300, 1.5e300)]
    cases += [tuple(sorted(rng.uniform(-50.0, 50.0) for _ in range(2))) for _ in range(200)]
    for lo, hi in cases:
        for n in (1, 2, 3, 7, 97, 400):
            want = np.linspace(lo, hi, n).tolist()
            got = linspace(lo, hi, n)
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [x.hex() for x in want], (lo, hi, n)
