"""Ermakov systems in polar phase-space coordinates.

State is (r, theta, u, v) with u = dr/dt and v = r^2 dtheta/dt.  A system
is an angular forcing G(theta), an optional frequency-shift term F(theta),
and one coupling, whose type selects the structure class of
``SystemSpec(g, coupling, f)``:

* ``class1``   -- a ``FuncHandle`` phi(alpha, r, theta, t), alpha = u/v,
* ``class2``   -- a ``Class2Phi(psi, chi)``: psi(alpha, r, theta, t) free,
  phi constructed from it,
* ``pseudo_potential`` -- a ``Potential`` V(rbar, t), rbar = 1/r, which
  induces phi.

The first-order flow shared by all classes:

    dr/dt     = u
    dtheta/dt = v / r^2
    dv/dt     = -G(theta) / r^2

and du/dt carries the class-dependent coupling.  The natural frequency
omega^2 is never an input here; it is derived from a state and the
coupling (``frequency_squared``).
"""

from __future__ import annotations

import functools
import math
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Union

from . import expr as ex
from .expr import Binary, DomainError, Expr, Num, QuadratureError, Var, _Record

__all__ = [
    "Floors",
    "DEFAULT_FLOORS",
    "SingularStateError",
    "STAGE_FAILURES",
    "PhaseState",
    "Flow4",
    "FuncHandle",
    "Potential",
    "Class2Phi",
    "SystemSpec",
    "vector_field",
    "frequency_squared",
    "polar_from_cartesian",
    "nan_max",
    "linspace",
]


class SingularStateError(ValueError):
    """A state left the domain: it violated a floor or r > 0."""


# what a right-hand side raises when a state is singular rather than when
# the code is wrong; integrators halve the step on these and nothing else
STAGE_FAILURES = (SingularStateError, DomainError, QuadratureError, FloatingPointError)


class Floors(NamedTuple):
    """Domain floors below which the formulation is treated as singular.

    These are configuration, not constants: long-run benchmarks raise
    them so trajectories stop while the arithmetic is still clean.
    """

    r_min: float = 1e-9
    u_min: float = 1e-12
    v_min: float = 1e-12

    def relaxed(self) -> "Floors":
        """Floors halved, used for stage evaluations inside integrators so
        that a run can land an accepted state just below the configured
        floor before stopping."""
        return Floors(self.r_min * 0.5, self.u_min * 0.5, self.v_min * 0.5)

    def check(self, r: float, v: Optional[float] = None):
        """Raise SingularStateError when r sits below r_min or, if given,
        |v| at or below v_min.  The message prints plain floats whatever
        numeric type the state holds."""
        if r < self.r_min:
            raise SingularStateError(f"r={float(r)!r} below floor r_min={self.r_min!r}")
        if v is not None and abs(v) <= self.v_min:
            raise SingularStateError(
                f"|v|={float(abs(v))!r} at or below floor v_min={self.v_min!r}"
            )


DEFAULT_FLOORS = Floors()


def nan_max(values) -> float:
    """The largest of values (-inf for none), or the first NaN among them,
    where max() passes over a NaN that is not first."""
    worst = -math.inf
    for x in values:
        if x != x:
            return x
        if x > worst:
            worst = x
    return worst


def linspace(lo: float, hi: float, n: int) -> list:
    """``np.linspace(lo, hi, n)`` on floats, bit for bit: [lo] for n = 1."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def _nonpositive_r(r: float) -> SingularStateError:
    return SingularStateError(f"r must be positive, got {r!r}")


class PhaseState(NamedTuple):
    """One point (r, theta, u, v) of the polar phase space; r must be positive."""

    r: float
    theta: float
    u: float
    v: float

    def alpha(self, v_min: float = DEFAULT_FLOORS.v_min) -> float:
        """The ratio u/v; undefined when |v| sits below the v_min floor."""
        if abs(self.v) <= v_min:
            raise SingularStateError(
                f"alpha undefined: |v|={float(abs(self.v))!r} at or below floor v_min={v_min!r}"
            )
        return self.u / self.v


def _positive_state(cls, r, theta, u, v):
    if not r > 0.0:
        raise _nonpositive_r(r)
    return tuple.__new__(cls, (r, theta, u, v))


PhaseState.__new__ = _positive_state  # NamedTuple refuses a __new__ in the class body


class Flow4(NamedTuple):
    """Right-hand side of the first-order system at one state."""

    rdot: float
    thetadot: float
    udot: float
    vdot: float


_HANDLE_VARS = ("alpha", "r", "theta", "t")


class FuncHandle:
    """A scalar coupling function of (alpha, r, theta, t), held as an
    expression tree and compiled when the handle is built; the handle of a
    partial derivative is built on first use and kept on the handle.  The
    lowered code and the derived trees are expr's, kept there by value."""

    def __init__(self, tree: Expr, name: str = ""):
        if tree is None:
            raise ValueError("FuncHandle needs an expression tree")
        bad = sorted(ex.free_vars(tree) - set(_HANDLE_VARS))
        if bad:
            raise ValueError(f"expression uses variables {bad} outside {_HANDLE_VARS}")
        self.tree = tree
        self.fn = ex.compile(tree, _HANDLE_VARS)
        self.name = name or ex.to_text(tree)
        self._partials = {}

    @classmethod
    def from_text(cls, text: str) -> "FuncHandle":
        return cls(tree=ex.parse(text), name=text)

    def __call__(self, alpha: float, r: float, theta: float, t: float = 0.0) -> float:
        return self.fn(alpha, r, theta, t)

    def udot_term(self, t: float, r: float, theta: float, u: float, v: float) -> float:
        """u v phi, the coupling's term of du/dt as a class-1 phi."""
        alpha = u / v
        return u * v * self.fn(alpha, r, theta, t)

    def depends_on(self, var: str) -> bool:
        """Whether the handle can vary with ``var``."""
        return var in ex.free_vars(self.tree)

    def partial(self, var: str) -> "FuncHandle":
        """Symbolic partial derivative, as a handle kept per variable; a
        constant 0 for a variable the tree does not contain."""
        handle = self._partials.get(var)
        if handle is None:
            tree = ex.differentiate(self.tree, var)
            handle = self._partials[var] = FuncHandle(tree=tree, name=f"d({self.name})/d{var}")
        return handle

    def __repr__(self):
        return f"FuncHandle({self.name})"


_POTENTIAL_VARS = ("rbar", "t")
_OSC_PROBES = (0.43, 0.71, 1.0, 1.618, 2.34, 3.27)


class Potential:
    """A pseudo-potential V(rbar, t), rbar = 1/r, held as an expression
    tree: its variables are checked, V is compiled and the singular-
    oscillator test is decided once, at construction.  On first use, and
    then kept on the potential: dV/drbar as a tree (``dtree``, which
    ``slope``, ``curvature`` and ``phi`` share), compiled (``slope``), its
    own derivative compiled (``curvature``) and the phi it induces.

    ``singular_oscillator`` says whether V evaluates as 1/(2 rbar^2) with
    no t dependence.  Detection is by evaluation at fixed probes, so
    spelling variants all qualify for the closed-form Casimir path.
    """

    def __init__(self, tree: Expr):
        names = ex.free_vars(tree)
        bad = sorted(names - set(_POTENTIAL_VARS))
        if bad:
            raise ValueError(
                f"potential uses variables {bad}, only (rbar, t) are allowed"
            )
        self.tree = tree
        self.fn = ex.compile(tree, _POTENTIAL_VARS)
        self.singular_oscillator = "t" not in names and all(
            self._matches_oscillator(lam) for lam in _OSC_PROBES
        )

    def _matches_oscillator(self, lam: float) -> bool:
        ref = 1.0 / (2.0 * lam * lam)
        try:
            val = self.fn(lam, 0.0)
        except ex.ExprError:
            return False
        return abs(val - ref) <= 1e-12 * max(1.0, abs(ref))

    @cached_property
    def dtree(self) -> Expr:
        """dV/drbar as an expression tree, from expr's derivative cache."""
        return ex.differentiate(self.tree, "rbar")

    @cached_property
    def slope(self):
        """dV/drbar compiled, a function of (rbar, t)."""
        return ex.compile(self.dtree, _POTENTIAL_VARS)

    def udot_term(self, t: float, r: float, theta: float, u: float, v: float) -> float:
        """The coupling's term of du/dt: u v phi reduced to
        (v^2/r^2) dV/drbar, which is finite at u = 0."""
        return (v * v) / (r * r) * self.slope(1.0 / r, t)

    @cached_property
    def curvature(self):
        """d^2V/drbar^2 compiled, a function of (rbar, t)."""
        return ex.compile(ex.differentiate(self.dtree, "rbar"), _POTENTIAL_VARS)

    @cached_property
    def phi(self) -> FuncHandle:
        """The induced coupling phi(alpha, r, theta, t) =
        (dV/drbar)(1/r, t) / (r^2 alpha).  Flow evaluations use ``slope``
        instead, in the reduced product u v phi = (v^2/r^2) dV/drbar,
        which has no 0/0 at u = 0."""
        numerator = ex.substitute(self.dtree, "rbar", Binary("/", Num(1.0), Var("r")))
        r_squared = Binary("^", Var("r"), Num(2.0))
        tree = Binary("/", numerator, Binary("*", r_squared, Var("alpha")))
        return FuncHandle(tree=tree, name=f"phi[V={ex.to_text(self.tree)}]")

    def __repr__(self):
        return f"Potential({ex.to_text(self.tree)})"


# the class-2 integrand as a tree in psi and its r- and theta-partials, by
# whether psi depends on theta (only then is the 1/lam term there)
_INTEGRAND = {
    False: ex.parse("(psi_r - 2/r*psi)/(psi*psi)"),
    True: ex.parse("(psi_r - 2/r*psi + psi_theta/(r*r*alpha))/(psi*psi)"),
}


class Class2Phi:
    """phi constructed from a class-2 coupling psi.

    phi(alpha, r, theta, t) =
        ( integral_{lam0}^{alpha} dlam / psi(lam)^2 *
            [ d(psi)/dr + d(psi)/dtheta / (r^2 lam) - (2/r) psi(lam) ]
          + chi(r, theta, t) ) * psi(alpha)

    with psi arguments (lam, r, theta, t), the integral taken to absolute
    tolerance ``tol`` by ``expr.quad_adaptive``, or exactly, as
    (alpha - lam0) times the integrand, when psi depends on neither alpha
    nor theta.  |psi| at or below ``psi_min`` is a singular state.
    The 1/lam term is present only when psi actually depends on theta; in
    that case the integration path must not touch lam = 0.  The derivative
    with respect to alpha is exact (fundamental theorem of calculus), which
    matters for consistency-condition checks: differencing the quadrature
    would cost five to six digits.  The derivatives with respect to r and
    theta are exact too: the integrand is differentiated under the
    integral sign, which takes second partials of psi.

    Quadratures run on the integrand lowered by expr, with (r, theta, t)
    bound per quadrature; ``integrand``, the reference, replays a sample
    where it faults.  The psi partials are ``psi``'s handles; the lowered
    integrand and its partials are looked up on first use and kept.  The
    last value is kept with its (alpha, r, theta, t), so phi and its
    derivatives, or the matrix and the flow, at one state share one
    quadrature of phi.
    """

    def __init__(
        self,
        psi: FuncHandle,
        chi: Optional[Expr] = None,
        lam0: float = 0.0,
        tol: float = 1e-12,
        psi_min: float = 1e-12,
    ):
        if chi is not None:
            bad = sorted(ex.free_vars(chi) - {"r", "theta", "t"})
            if bad:
                raise ValueError(f"chi uses variables {bad} outside (r, theta, t)")
        self.psi = psi
        self._chi = None if chi is None else FuncHandle(chi)
        self.lam0 = float(lam0)
        self.tol = float(tol)
        self.psi_min = float(psi_min)
        self._theta_dependent = psi.depends_on("theta")
        # with psi free of alpha and theta the integrand is constant in lam
        self._constant_integrand = not (self._theta_dependent or psi.depends_on("alpha"))
        # set here rather than added on first use: an attribute added after
        # __init__ slows every attribute read on the instance in CPython 3.11
        self._fused = None
        self._under_integral = {}
        self._last = (None, None)

    def _psi_at(self, lam: float, r: float, theta: float, t: float) -> float:
        w = self.psi.fn(lam, r, theta, t)
        if abs(w) <= self.psi_min:
            raise SingularStateError(
                f"|psi|={abs(w)!r} at or below floor psi_min={self.psi_min!r} "
                f"(lambda={lam!r})"
            )
        return w

    def integrand(self, lam: float, r: float, theta: float, t: float) -> float:
        w = self._psi_at(lam, r, theta, t)
        val = self.psi.partial("r").fn(lam, r, theta, t) - (2.0 / r) * w
        if self._theta_dependent:
            if lam == 0.0:
                raise SingularStateError(
                    "class-2 phi integrand has a 1/lambda term and the path "
                    "touches lambda=0"
                )
            val += self.psi.partial("theta").fn(lam, r, theta, t) / (r * r * lam)
        return val / (w * w)

    def __call__(self, alpha: float, r: float, theta: float, t: float = 0.0) -> float:
        key = (alpha, r, theta, t)
        if self._last[0] == key:
            return self._last[1]
        if self._theta_dependent:
            lo, hi = min(self.lam0, alpha), max(self.lam0, alpha)
            if lo <= 0.0 <= hi:
                raise SingularStateError(
                    f"class-2 phi integration path [{lo!r}, {hi!r}] crosses "
                    f"lambda=0 while psi depends on theta"
                )
        if self._constant_integrand:
            k = (alpha - self.lam0) * self.integrand(alpha, r, theta, t)
        else:
            bind = self._fused or self._lower_integrand()
            k = ex.quad_adaptive(
                bind(r, theta, t, replay=self.integrand), self.lam0, alpha, self.tol
            )
        if self._chi is not None:
            k += self._chi.fn(alpha, r, theta, t)
        value = k * self._psi_at(alpha, r, theta, t)
        self._last = (key, value)
        return value

    def udot_term(self, t: float, r: float, theta: float, u: float, v: float) -> float:
        """u v (phi + 2 v psi / r), the coupling's term of du/dt."""
        alpha = u / v
        psi_val = self.psi.fn(alpha, r, theta, t)
        return u * v * (self(alpha, r, theta, t) + 2.0 * v * psi_val / r)

    def partial_alpha(self, alpha: float, r: float, theta: float, t: float = 0.0) -> float:
        """Exact d(phi)/d(alpha) via the fundamental theorem."""
        w = self._psi_at(alpha, r, theta, t)
        dpsi = self.psi.partial("alpha").fn(alpha, r, theta, t)
        return self.integrand(alpha, r, theta, t) * w + self(alpha, r, theta, t) * dpsi / w

    def partial(self, var: str) -> Callable[..., float]:
        """d(phi)/d(var) for var alpha, r or theta, as a function of
        (alpha, r, theta, t), like ``FuncHandle.partial``."""
        if var == "alpha":
            return self.partial_alpha
        return functools.partial(self._partial_under_integral, var)

    def _partial_under_integral(
        self, var: str, alpha: float, r: float, theta: float, t: float = 0.0
    ) -> float:
        """d(phi)/d(var) for var r or theta: with phi = K psi(alpha),
        d(phi) = dK psi + K d(psi), where dK integrates the derivative of
        the integrand over the path of K (exactly when K's integrand is
        constant in lam) and adds the derivative of chi."""
        w = self._psi_at(alpha, r, theta, t)
        k = self(alpha, r, theta, t) / w
        d_integrand = self._integrand_partial(var)
        if d_integrand is None:
            dk = 0.0
        elif self._constant_integrand:
            dk = (alpha - self.lam0) * d_integrand(r, theta, t)(alpha)
        else:
            dk = ex.quad_adaptive(d_integrand(r, theta, t), self.lam0, alpha, self.tol)
        if self._chi is not None:
            dk += self._chi.partial(var).fn(alpha, r, theta, t)
        return dk * w + k * self.psi.partial(var).fn(alpha, r, theta, t)

    def _integrand_tree(self) -> Expr:
        """The integrand as one tree in (alpha, r, theta, t), alpha for lam."""
        tree = _INTEGRAND[self._theta_dependent]
        for name, sub in (
            ("psi_r", self.psi.partial("r").tree),
            ("psi_theta", self.psi.partial("theta").tree),
            ("psi", self.psi.tree),
        ):
            tree = ex.substitute(tree, name, sub)
        return tree

    def _lower_integrand(self):
        """Keep and return the integrand compiled as ``bind(r, theta, t,
        replay=...)``, a function of lam guarded by the psi floor and
        lam = 0."""
        guards = ((self.psi.tree, self.psi_min), (Var("alpha"), 0.0))[: 1 + self._theta_dependent]
        self._fused = ex.compile(self._integrand_tree(), ("alpha",), ("r", "theta", "t"), guards)
        return self._fused

    def _integrand_partial(self, var: str):
        """d(integrand)/d(var) as ``bind(r, theta, t)``, a function of lam,
        or None where that derivative is the constant 0; kept on first use."""
        if var not in self._under_integral:
            d = ex.differentiate(self._integrand_tree(), var)
            self._under_integral[var] = (
                None if d == Num(0.0) else ex.compile(d, ("alpha",), ("r", "theta", "t"))
            )
        return self._under_integral[var]


# the structure class each type of coupling selects
_KINDS = {FuncHandle: "class1", Class2Phi: "class2", Potential: "pseudo_potential"}


class SystemSpec(_Record):
    """Declarative description of an Ermakov system.

    ``g`` and optional ``f`` are expressions in theta only, compiled once
    here; ``coupling`` is a ``FuncHandle`` phi (class 1), a ``Class2Phi``
    (class 2) or a ``Potential`` (pseudo-potential), and names ``kind``.
    Only these three fields take part in equality.
    """

    __slots__ = ("g", "coupling", "f", "_g_fn", "_f_fn", "_flows")
    _fields = ("g", "coupling", "f")

    def __init__(
        self, g: Expr, coupling: Union[FuncHandle, Class2Phi, Potential], f: Optional[Expr] = None
    ):
        if type(coupling) not in _KINDS:
            raise ValueError(f"unknown coupling {coupling!r}")
        for name, tree in (("G", g), ("F", f)):
            if tree is not None:
                bad = sorted(ex.free_vars(tree) - {"theta"})
                if bad:
                    raise ValueError(f"{name} uses variables {bad}, only theta is allowed")
        super().__init__(g, coupling, f)
        object.__setattr__(self, "_g_fn", ex.compile(g, ("theta",)))
        object.__setattr__(self, "_f_fn", None if f is None else ex.compile(f, ("theta",)))
        object.__setattr__(self, "_flows", {})

    @property
    def kind(self) -> str:
        return _KINDS[type(self.coupling)]

    def g_at(self, theta: float) -> float:
        return self._g_fn(theta)

    def f_at(self, theta: float) -> float:
        return 0.0 if self._f_fn is None else self._f_fn(theta)

    def flow(self, floors: Floors = DEFAULT_FLOORS) -> Callable[[float, Sequence[float]], tuple]:
        """The first-order flow as one function of (t, (r, theta, u, v))
        on floats, returning (dr/dt, dtheta/dt, du/dt, dv/dt); lowered on
        first use per floors and kept.

        du/dt = -u G(theta) / (r^2 v) + the coupling's ``udot_term``.  It raises
        SingularStateError for r <= 0 (or NaN), then where ``floors.check``
        does, and FloatingPointError where a denominator such as r^2 v
        underflowed to zero: the state is singular, as the inf that array
        arithmetic gives there says.
        """
        lowered = self._flows.get(floors)
        if lowered is None:
            g_at, udot_term, check = self._g_fn, self.coupling.udot_term, floors.check

            def lowered(t, y):
                r, theta, u, v = y
                if not r > 0.0:
                    raise _nonpositive_r(r)
                check(r, v)
                try:
                    g = g_at(theta)
                    udot = -u * g / (r * r * v) + udot_term(t, r, theta, u, v)
                    return u, v / (r * r), udot, -g / (r * r)
                except ZeroDivisionError as exc:
                    raise FloatingPointError(str(exc)) from exc

            self._flows[floors] = lowered
        return lowered


def vector_field(
    spec: SystemSpec,
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> Flow4:
    """First-order flow at a state: ``spec.flow(floors)`` as a Flow4."""
    return Flow4(*spec.flow(floors)(t, (s.r, s.theta, s.u, s.v)))


def frequency_squared(
    spec: SystemSpec,
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> float:
    """Natural frequency omega^2 consistent with the flow at this state:

        du/dt = -omega^2 r + (v^2 + F(theta)) / r^3.

    Derived output only; omega never parametrizes a system here.
    """
    floors.check(s.r, s.v)
    r, th, u, v = s.r, s.theta, s.u, s.v
    g = spec.g_at(th)
    f = spec.f_at(th)
    base = (v * v + f) / r**4 + u * g / (r**3 * v)
    return base - spec.coupling.udot_term(t, r, th, u, v) / r


def polar_from_cartesian(x: float, y: float, xdot: float, ydot: float) -> PhaseState:
    """Map planar Cartesian data to (r, theta, u, v).

    u is the radial velocity (x xdot + y ydot)/r and v = x ydot - y xdot
    is the angular momentum.  The origin is rejected.
    """
    r = math.hypot(x, y)
    if r == 0.0:
        raise ValueError("origin has no polar representation")
    return PhaseState(
        r=r,
        theta=math.atan2(y, x),
        u=(x * xdot + y * ydot) / r,
        v=x * ydot - y * xdot,
    )
