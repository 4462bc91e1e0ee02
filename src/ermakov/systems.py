"""Ermakov systems in polar phase-space coordinates.

State is (r, theta, u, v) with u = dr/dt and v = r^2 dtheta/dt.  A system
is an angular forcing G(theta) and one coupling, whose type selects the
structure class of ``SystemSpec(g, coupling)``:

* ``class1``   -- a ``FuncHandle`` phi(alpha, r, theta, t), alpha = u/v,
* ``class2``   -- a ``Class2Phi(psi, chi)``: psi(alpha, r, theta, t) free,
  phi constructed from it,
* ``pseudo_potential`` -- a ``Potential`` V(rbar, t), rbar = 1/r, which
  induces phi.

A ``FuncHandle``'s ``jet`` at (alpha, r, theta, t) is (f, f_alpha, f_r,
f_theta); a ``Class2Phi``'s ``partial_alpha`` takes psi's jet there, read
by its caller.

The first-order flow shared by all classes:

    dr/dt     = u
    dtheta/dt = v / r^2
    dv/dt     = -G(theta) / r^2

and du/dt carries the class-dependent coupling.

The integrator's ``Solver`` and ``IntegrationError`` live here too, so
that only a command that builds a trajectory loads :mod:`ermakov.integrate`.
"""

from __future__ import annotations

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
    "IntegrationError",
    "Solver",
    "PhaseState",
    "Flow4",
    "FuncHandle",
    "Potential",
    "Class2Phi",
    "SystemSpec",
    "vector_field",
    "nan_max",
    "linspace",
]


class SingularStateError(ValueError):
    """A state left the domain: it violated a floor or r > 0."""


# what a right-hand side raises when a state is singular rather than when
# the code is wrong; integrators halve the step on these and nothing else
STAGE_FAILURES = (SingularStateError, DomainError, QuadratureError, FloatingPointError)


class IntegrationError(RuntimeError):
    """Step budget exhausted or a sample fell outside the trajectory."""


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


class Solver(NamedTuple):
    """Integrator settings, for :mod:`ermakov.integrate`.

    method is "rk4" (fixed step dt, span/1000 when absent) or "dp45"
    (adaptive, to rtol and atol, with no dt).  max_steps bounds accepted,
    rejected and failed steps; exceeding it raises IntegrationError.  A call
    that gives dt with any method but rk4 raises ValueError; ``_replace``
    and ``_make`` build the tuple without that check.
    """

    method: str = "dp45"
    rtol: float = 1e-10
    atol: float = 1e-12
    dt: Optional[float] = None
    max_steps: int = 200000


def _rk4_only_dt(cls, *args, _new=Solver.__new__, **kwargs):
    solver = _new(cls, *args, **kwargs)
    if solver.dt is not None and solver.method != "rk4":
        raise ValueError(f"dt applies only to rk4, not {solver.method}")
    return solver


Solver.__new__ = _rk4_only_dt  # NamedTuple refuses a __new__ in the class body


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

    def __init__(self, tree: Expr):
        if tree is None:
            raise ValueError("FuncHandle needs an expression tree")
        bad = sorted(ex.free_vars(tree) - set(_HANDLE_VARS))
        if bad:
            raise ValueError(f"expression uses variables {bad} outside {_HANDLE_VARS}")
        self.tree = tree
        self.fn = ex.compile(tree, _HANDLE_VARS)
        self._partials = {}
        self._jet_fns = None

    @classmethod
    def from_text(cls, text: str) -> "FuncHandle":
        return cls(ex.parse(text))

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
            handle = self._partials[var] = FuncHandle(tree)
        return handle

    def jet(self, alpha: float, r: float, theta: float, t: float = 0.0, value=None) -> tuple:
        """(f, f_alpha, f_r, f_theta) at one point, the partials from
        ``partial``; f is ``value`` where the caller read it, else read
        here.  The four functions are kept as a tuple on first use."""
        fns = self._jet_fns
        if fns is None:
            partials = [self.partial(var).fn for var in ("alpha", "r", "theta")]
            fns = self._jet_fns = (self.fn, *partials)
        f, f_alpha, f_r, f_theta = fns
        return (
            f(alpha, r, theta, t) if value is None else value, f_alpha(alpha, r, theta, t),
            f_r(alpha, r, theta, t), f_theta(alpha, r, theta, t),
        )

    def __repr__(self):
        return f"FuncHandle({ex.to_text(self.tree)})"


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
        return FuncHandle(tree)

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
    that case the integration path must not touch lam = 0.  The partial
    from ``partial_alpha``, given psi's jet, is exact, by the fundamental
    theorem of calculus (differencing the quadrature would cost five to
    six digits).  phi's r- and theta-partials are not formed: J12 = 0, so
    no Jacobi sum reads them (see ``poisson.matrix_field``).

    Quadratures run on the integrand lowered by expr, with (r, theta, t)
    bound per quadrature; ``integrand``, the reference, replays a sample
    where it faults.  ``_lower`` builds the lowered integrand on first use
    and keeps it.  A call reads psi at alpha once, or takes the value its
    caller read; ``last`` keeps ((alpha, r, theta, t), phi, psi) of it,
    where the matrix and the flow read psi, and phi's alpha-partial at
    that point reuses its quadrature.
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
        self._chi = None if chi is None else ex.compile(chi, _HANDLE_VARS)
        self.lam0 = float(lam0)
        self.tol = float(tol)
        self.psi_min = float(psi_min)
        self._theta_dependent = psi.depends_on("theta")
        # with psi free of alpha and theta the integrand is constant in lam
        self._constant_integrand = not (self._theta_dependent or psi.depends_on("alpha"))
        self._lowered = None
        self.last = (None, None, None)

    def _floored(self, w: float, lam: float) -> float:
        """w, psi at lam, once it has passed the psi floor."""
        if abs(w) <= self.psi_min:
            raise SingularStateError(
                f"|psi|={abs(w)!r} at or below floor psi_min={self.psi_min!r} "
                f"(lambda={lam!r})"
            )
        return w

    def integrand(self, lam: float, r: float, theta: float, t: float, w=None) -> float:
        """The integrand at lam; w is psi there, read here if not given."""
        w = self._floored(self.psi.fn(lam, r, theta, t) if w is None else w, lam)
        val = self.psi.partial("r").fn(lam, r, theta, t) - (2.0 / r) * w
        if self._theta_dependent:
            if lam == 0.0:
                raise SingularStateError(
                    "class-2 phi integrand has a 1/lambda term and the path "
                    "touches lambda=0"
                )
            val += self.psi.partial("theta").fn(lam, r, theta, t) / (r * r * lam)
        return val / (w * w)

    def __call__(self, alpha: float, r: float, theta: float, t: float = 0.0, w=None) -> float:
        """phi at the point; w is psi there, read here if not given."""
        key = (alpha, r, theta, t)
        if self.last[0] == key:
            return self.last[1]
        if w is None:  # psi's errors before the path's and the integral's
            w = self.psi.fn(alpha, r, theta, t)
        if self._theta_dependent:
            lo, hi = min(self.lam0, alpha), max(self.lam0, alpha)
            if lo <= 0.0 <= hi:
                raise SingularStateError(
                    f"class-2 phi integration path [{lo!r}, {hi!r}] crosses "
                    f"lambda=0 while psi depends on theta"
                )
        if self._constant_integrand:  # the integrand checks w's floor
            k = (alpha - self.lam0) * self.integrand(alpha, r, theta, t, w)
        else:
            f = (self._lowered or self._lower())(r, theta, t, self.integrand)
            k = ex.quad_adaptive(f, self.lam0, alpha, self.tol)
        if self._chi is not None:
            k += self._chi(alpha, r, theta, t)
        if abs(w) <= self.psi_min:  # the floor last; a constant integrand passed it
            self._floored(w, alpha)
        value = k * w
        self.last = (key, value, w)
        return value

    def udot_term(self, t: float, r: float, theta: float, u: float, v: float) -> float:
        """u v (phi + 2 v psi / r), the coupling's term of du/dt."""
        phi = self(u / v, r, theta, t)
        return u * v * (phi + 2.0 * v * self.last[2] / r)

    def partial_alpha(self, alpha: float, r: float, theta: float, t: float, psi_jet) -> float:
        """Exact d(phi)/d(alpha), dK psi + K d(psi), from psi's jet at the point."""
        w, w_alpha, w_r, w_theta = psi_jet
        phi = self(alpha, r, theta, t, w)  # w passed its floor here
        val = w_r - (2.0 / r) * w
        if self._theta_dependent:  # phi's path, and so alpha, is clear of lam = 0
            val += w_theta / (r * r * alpha)
        return val / (w * w) * w + phi * w_alpha / w

    def _lower(self):
        """The integrand, guarded by the psi floor and lam = 0, lowered by
        expr as ``bind(r, theta, t, replay=...)``, a function of lam.
        Built on first use and kept."""
        if self._lowered is None:
            tree = _INTEGRAND[self._theta_dependent]
            for name in ("r", "theta"):
                tree = ex.substitute(tree, f"psi_{name}", self.psi.partial(name).tree)
            tree = ex.substitute(tree, "psi", self.psi.tree)
            guards = ((self.psi.tree, self.psi_min), (Var("alpha"), 0.0))
            guards = guards[: 1 + self._theta_dependent]
            self._lowered = ex.compile(tree, ("alpha",), ("r", "theta", "t"), guards)
        return self._lowered


# the structure class each type of coupling selects
_KINDS = {FuncHandle: "class1", Class2Phi: "class2", Potential: "pseudo_potential"}


class SystemSpec(_Record):
    """Declarative description of an Ermakov system.

    ``g`` is an expression in theta only, compiled once here;
    ``coupling`` is a ``FuncHandle`` phi (class 1), a ``Class2Phi``
    (class 2) or a ``Potential`` (pseudo-potential), and names ``kind``.
    Only these two fields take part in equality.
    """

    __slots__ = ("g", "coupling", "_g_fn", "_flows")
    _fields = ("g", "coupling")

    def __init__(self, g: Expr, coupling: Union[FuncHandle, Class2Phi, Potential]):
        if type(coupling) not in _KINDS:
            raise ValueError(f"unknown coupling {coupling!r}")
        bad = sorted(ex.free_vars(g) - {"theta"})
        if bad:
            raise ValueError(f"G uses variables {bad}, only theta is allowed")
        super().__init__(g, coupling)
        object.__setattr__(self, "_g_fn", ex.compile(g, ("theta",)))
        object.__setattr__(self, "_flows", {})

    @property
    def kind(self) -> str:
        return _KINDS[type(self.coupling)]

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
    return tuple.__new__(Flow4, spec.flow(floors)(t, s))

