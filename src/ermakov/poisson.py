"""Noncanonical Poisson matrices for Ermakov flows, and the numerical
checks that certify them.

Both structure classes share

    J12 = 0,  J14 = u/v,  J24 = 1/r^2,  J23 = u/(r^2 v)

and differ in J13 and J34:

    class 1:  J13 = (u/v)^2,            J34 = u phi
    class 2:  J13 = (u/v)^2 + u psi,    J34 = u phi + 2 u v psi / r

with phi free in class 1 and constructed from psi in class 2.  Checks
offered here: the four Jacobi-identity cyclic sums (exact partials from
psi's ``jet`` and phi's alpha-partial, by the chain rule through alpha =
u/v), determinant versus Pfaffian, Hamiltonian flow reconstruction, the
class-2 consistency condition (phi's alpha-partial only), and Casimir
residuals.  Everything runs on Python floats; the kernels that read a
matrix are straight-line code over its six upper entries that keep
every product with a zero entry, so non-finite values spread as in 4x4.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence, Union

from .systems import (
    DEFAULT_FLOORS,
    Class2Phi,
    Floors,
    Flow4,
    FuncHandle,
    PhaseState,
    Potential,
    SingularStateError,
)

__all__ = [
    "SkewMatrix4",
    "MatrixField",
    "matrix_class1",
    "matrix_class2",
    "matrix_field",
    "pfaffian",
    "determinant",
    "det_class2_quoted",
    "jacobi_residuals",
    "JACOBI_TRIPLES",
    "hamiltonian_flow",
    "consistency_residual",
    "casimir_residuals",
    "perturb_j34",
]

# cyclic index triples (1-based) whose sums must vanish for a Poisson matrix
JACOBI_TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


class SkewMatrix4(NamedTuple):
    """A 4x4 skew-symmetric matrix stored by its upper triangle: the
    6-tuple (j12, j13, j14, j23, j24, j34).

    Field names carry the 1-based index pair of the entry, matching the
    coordinate order (r, theta, u, v).  Skewness is exact by
    construction: the lower triangle only ever exists as a negation.
    """

    j12: float
    j13: float
    j14: float
    j23: float
    j24: float
    j34: float

    def rows(self) -> tuple:
        """The full matrix as four rows of floats."""
        j12, j13, j14, j23, j24, j34 = self
        return (
            (0.0, j12, j13, j14),
            (-j12, 0.0, j23, j24),
            (-j13, -j23, 0.0, j34),
            (-j14, -j24, -j34, 0.0),
        )

    def norm(self) -> float:
        """Frobenius norm."""
        j12, j13, j14, j23, j24, j34 = self
        return math.sqrt(2.0 * (j12**2 + j13**2 + j14**2 + j23**2 + j24**2 + j34**2))


class MatrixField(NamedTuple):
    """State-dependent Poisson matrix: a closure, a class tag, and a
    closure ``derivatives(s, t)`` that returns the matrix at s together
    with the partials of its six upper entries with respect to r, theta,
    u and v (four 6-tuples), at fixed t.  ``matrix_field``'s leave d_r J34
    and d_theta J34 unformed, as 0.0: a Jacobi sum reads them only times
    J11, J12, J21 or J22, zero in both structure classes."""

    evaluate: Callable[[PhaseState, float], SkewMatrix4]
    kind: str
    derivatives: Callable[[PhaseState, float], tuple]

    def __call__(self, s: PhaseState, t: float = 0.0) -> SkewMatrix4:
        return self.evaluate(s, t)


def matrix_class1(
    phi: FuncHandle,
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> SkewMatrix4:
    """Class-1 Poisson matrix at a state; phi(alpha, r, theta, t) is free."""
    r, theta, u, v = s
    if r < floors.r_min or abs(v) <= floors.v_min:  # the checks raise, r's first
        floors.check(r)
        s.alpha(floors.v_min)
    alpha = u / v
    r2 = r * r
    j24, j23 = 1.0 / r2, u / (r2 * v)
    j34 = u * phi.fn(alpha, r, theta, t)
    return tuple.__new__(SkewMatrix4, (0.0, alpha * alpha, alpha, j23, j24, j34))


def matrix_class2(
    phi: Class2Phi,
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> SkewMatrix4:
    """Class-2 Poisson matrix at a state, with the constructed phi and
    the psi it read from one Class2Phi call.

    At u = 0 every psi- and phi-proportional entry vanishes and the
    matrix degenerates to the class-1 shape; callers relying on
    non-degeneracy should keep |u| above the u_min floor.
    """
    r, theta, u, v = s
    if r < floors.r_min or abs(v) <= floors.v_min:  # the checks raise, r's first
        floors.check(r)
        s.alpha(floors.v_min)
    alpha = u / v
    r2 = r * r
    j24, j23 = 1.0 / r2, u / (r2 * v)
    phi_val = phi(alpha, r, theta, t)
    psi_val = phi.last[2]  # psi at the point, as phi's call read it
    j13 = alpha * alpha + u * psi_val
    j34 = u * phi_val + 2.0 * u * v * psi_val / r
    return tuple.__new__(SkewMatrix4, (0.0, j13, alpha, j23, j24, j34))


def pfaffian(m: SkewMatrix4) -> float:
    """Pf(J) = J12 J34 - J13 J24 + J14 J23; det(J) equals its square."""
    j12, j13, j14, j23, j24, j34 = m
    return j12 * j34 - j13 * j24 + j14 * j23


def determinant(m: SkewMatrix4) -> float:
    """Determinant by cofactor expansion along the first row.

    For an exactly skew matrix this equals pfaffian(m)**2 up to rounding,
    so the pair (determinant, pfaffian) doubles as a skewness check.
    Each minor d of rows 2-4 expands along its first row too, and the
    2x2 minors of rows 3-4 (mab, of 0-based columns a, b) are shared.
    """
    j12, j13, j14, j23, j24, j34 = m
    l12, l13, l14, l23, l24, l34 = -j12, -j13, -j14, -j23, -j24, -j34
    m01, m02, m03 = l13 * l24 - l23 * l14, l13 * l34 - 0.0 * l14, l13 * 0.0 - j34 * l14
    m12, m13, m23 = l23 * l34 - 0.0 * l24, l23 * 0.0 - j34 * l24, 0.0 * 0.0 - j34 * l34
    d0 = 0.0 * m23 - j23 * m13 + j24 * m12
    d1 = l12 * m23 - j23 * m03 + j24 * m02
    d2 = l12 * m13 - 0.0 * m03 + j24 * m01
    d3 = l12 * m12 - 0.0 * m02 + j23 * m01
    return 0.0 + 0.0 * d0 + -1.0 * j12 * d1 + 1.0 * j13 * d2 + -1.0 * j14 * d3


def det_class2_quoted(psi_val: float, s: PhaseState) -> float:
    """The closed form usually quoted for the class-2 determinant,

        (u^2 psi / r^4) (2 u / v^2 + psi).

    Kept verbatim so the disagreement stays on record (acceptance suite,
    `verify --which determinant`).  The class-2 matrix above has Pfaffian
    -u psi / r^2 and so determinant (u psi / r^2)^2; the quoted form
    expands (J13 J24)^2 - (J14 J23)^2 instead of (J13 J24 - J14 J23)^2,
    and goes negative on some states, which no skew matrix allows.
    """
    u, v, r = s.u, s.v, s.r
    return (u * u * psi_val / r**4) * (2.0 * u / (v * v) + psi_val)


def _upper_partials(s: PhaseState, alpha: float, psi: tuple, f: float, f_alpha: float) -> tuple:
    """d/dr, d/dtheta, d/du and d/dv of the six upper entries of the
    class-2 matrix, from psi's jet (p, p_alpha, p_r, p_theta) and phi's
    value f and alpha-partial f_alpha at (alpha, r, theta, t); class 1 is
    psi = 0.  alpha = u/v enters through d(alpha)/du = 1/v and
    d(alpha)/dv = -alpha/v.  d_r J34 and d_theta J34 are 0.0, unformed:
    a Jacobi sum multiplies them only by J12 = 0 or a zero diagonal."""
    r, _, u, v = s
    p, p_alpha, p_r, p_theta = psi
    r2 = r * r
    r3 = r2 * r
    return (
        (0.0, u * p_r, 0.0, -2.0 * alpha / r3, -2.0 / r3, 0.0),
        (0.0, u * p_theta, 0.0, 0.0, 0.0, 0.0),
        (0.0, 2.0 * alpha / v + p + u * p_alpha / v, 1.0 / v, 1.0 / (r2 * v), 0.0,
         f + u * f_alpha / v + 2.0 * (v * p + u * p_alpha) / r),
        (0.0, -alpha * (2.0 * alpha + u * p_alpha) / v, -alpha / v, -alpha / (r2 * v), 0.0,
         -alpha * u * f_alpha / v + 2.0 * u * (p - alpha * p_alpha) / r),
    )


def jacobi_residuals(field: MatrixField, s: PhaseState, t: float = 0.0) -> tuple:
    """The four cyclic sums J^{mu a} d_mu J^{bc} + J^{mu b} d_mu J^{ca}
    + J^{mu c} d_mu J^{ab} for (a,b,c) in JACOBI_TRIPLES.

    The phase-space partials are the field's exact ``derivatives``; a
    lower entry's is the negated upper one's.  Time is held fixed.  All
    four vanish (to rounding) exactly when the field is Poisson.  Each
    sum adds the rows mu = r, theta (q), u, v in turn, zero terms kept.
    """
    m, (dr, dq, du, dv) = field.derivatives(s, t)
    j12, j13, j14, j23, j24, j34 = m
    l12, l13, l14, l23, l24, l34 = -j12, -j13, -j14, -j23, -j24, -j34
    r12, r13, r14, r23, r24, r34 = dr
    q12, q13, q14, q23, q24, q34 = dq
    u12, u13, u14, u23, u24, u34 = du
    v12, v13, v14, v23, v24, v34 = dv
    s123 = s124 = s134 = s234 = 0.0
    s123 += 0.0 * r23 + j12 * -r13 + j13 * r12
    s123 += l12 * q23 + 0.0 * -q13 + j23 * q12
    s123 += l13 * u23 + l23 * -u13 + 0.0 * u12
    s123 += l14 * v23 + l24 * -v13 + l34 * v12
    s124 += 0.0 * r24 + j12 * -r14 + j14 * r12
    s124 += l12 * q24 + 0.0 * -q14 + j24 * q12
    s124 += l13 * u24 + l23 * -u14 + j34 * u12
    s124 += l14 * v24 + l24 * -v14 + 0.0 * v12
    s134 += 0.0 * r34 + j13 * -r14 + j14 * r13
    s134 += l12 * q34 + j23 * -q14 + j24 * q13
    s134 += l13 * u34 + 0.0 * -u14 + j34 * u13
    s134 += l14 * v34 + l34 * -v14 + 0.0 * v13
    s234 += j12 * r34 + j13 * -r24 + j14 * r23
    s234 += 0.0 * q34 + j23 * -q24 + j24 * q23
    s234 += l23 * u34 + 0.0 * -u24 + j34 * u23
    s234 += l24 * v34 + l34 * -v24 + 0.0 * v23
    return (s123, s124, s134, s234)


def _times(m: SkewMatrix4, g: Sequence[float], name: str) -> tuple:
    """m times the 4-vector g on floats.  Each row a sums as
    0.0 + ((a0 g0 + a2 g2) + (a1 g1 + a3 g3)), the order, signed zeros
    included, of the numpy ``@`` this replaced (OpenBLAS's Haswell
    ``dgemv``), so flow and Casimir residuals kept their bits."""
    if len(g) != 4:
        raise ValueError(f"{name} must be a 4-vector")
    g0, g1, g2, g3 = map(float, g)
    j12, j13, j14, j23, j24, j34 = m
    return (
        0.0 + ((0.0 * g0 + j13 * g2) + (j12 * g1 + j14 * g3)),
        0.0 + ((-j12 * g0 + j23 * g2) + (0.0 * g1 + j24 * g3)),
        0.0 + ((-j13 * g0 + 0.0 * g2) + (-j23 * g1 + j34 * g3)),
        0.0 + ((-j14 * g0 + -j34 * g2) + (-j24 * g1 + 0.0 * g3)),
    )


def hamiltonian_flow(
    field: MatrixField,
    grad_h: Sequence[float],
    s: PhaseState,
    t: float = 0.0,
) -> Flow4:
    """The flow J grad(H) generated by a Hamiltonian gradient."""
    return tuple.__new__(Flow4, _times(field(s, t), grad_h, "grad_h"))


def consistency_residual(
    psi: FuncHandle,
    phi: Union[FuncHandle, Class2Phi],
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> float:
    """Residual of the compatibility condition linking psi and phi:

        psi phi' - psi' phi  -  [ d(psi)/dr + v/(r^2 u) d(psi)/dtheta
                                  - (2/r) psi ]

    with ' = d/d(alpha) at alpha = u/v.  Zero (to numerical accuracy)
    exactly when (psi, phi) assemble into a Poisson matrix.  Derivatives
    are symbolic; a Class2Phi phi supplies its exact alpha-derivative.
    """
    r, theta, u, v = s
    if abs(u) <= floors.u_min:
        raise SingularStateError(f"|u|={abs(u)!r} at or below floor u_min={floors.u_min!r}")
    alpha = s.alpha(floors.v_min)
    psi_jet = psi.jet(alpha, r, theta, t)
    psi_val, psi_prime, psi_r, psi_theta = psi_jet
    # a Class2Phi on this psi takes its alpha-partial, and psi, from this jet
    if isinstance(phi, Class2Phi):
        shared = psi_jet if phi.psi is psi else phi.psi.jet(alpha, r, theta, t)
        phi_prime = phi.partial_alpha(alpha, r, theta, t, shared)
        phi_val = phi(alpha, r, theta, t)  # kept by partial_alpha's call
    else:
        phi_val = phi(alpha, r, theta, t)
        phi_prime = phi.partial("alpha").fn(alpha, r, theta, t)

    left = psi_val * phi_prime - psi_prime * phi_val
    right = psi_r + v / (r * r * u) * psi_theta - (2.0 / r) * psi_val
    return left - right


def casimir_residuals(
    field: MatrixField,
    grads: Sequence[Sequence[float]],
    s: PhaseState,
    t: float = 0.0,
) -> tuple:
    """The 4-vector J grad(C) for each gradient in grads, concatenated
    into one tuple of floats; J is built once.  All components vanish
    when each C is a Casimir of the structure; under a non-degenerate
    matrix no nonconstant C can achieve that."""
    m = field(s, t)
    return tuple([x for grad_c in grads for x in _times(m, grad_c, "grad_c")])


def perturb_j34(field: MatrixField) -> MatrixField:
    """A copy of the field with 0.1 r added to J34 in ``derivatives``,
    whose matrix is the copy's value; the partials stay the field's (d_r
    J34 is unformed).  Breaks the Jacobi identities: the negative control
    of ``jacobi``."""

    def derivatives(s: PhaseState, t: float = 0.0) -> tuple:
        m, partials = field.derivatives(s, t)
        return m._replace(j34=m.j34 + 0.1 * s.r), partials

    return MatrixField(lambda s, t=0.0: derivatives(s, t)[0], field.kind + "+tampered", derivatives)


def matrix_field(
    coupling: Union[FuncHandle, Potential, Class2Phi], floors: Floors = DEFAULT_FLOORS
) -> MatrixField:
    """The Poisson matrix field of a coupling: class 1 for a ``FuncHandle``
    phi or a ``Potential`` (through its induced ``phi``), class 2 for a
    ``Class2Phi``.  ``matrix_class1``/``matrix_class2`` are looked up when
    called, so a wrapper put in their place sees every matrix."""
    if isinstance(coupling, Potential):
        coupling = coupling.phi
    psi = coupling.psi if isinstance(coupling, Class2Phi) else None

    def evaluate(s: PhaseState, t: float = 0.0) -> SkewMatrix4:
        if psi is None:
            return matrix_class1(coupling, s, t, floors)
        return matrix_class2(coupling, s, t, floors)

    def derivatives(s: PhaseState, t: float = 0.0) -> tuple:
        m = evaluate(s, t)
        point = (m[2], s[0], s[1], t)  # (alpha, r, theta, t); J14 is alpha
        if psi is None:  # class 1 is class 2 with psi and its partials 0
            f, f_alpha = coupling.fn(*point), coupling.partial("alpha").fn(*point)
            return m, _upper_partials(s, m[2], (0.0,) * 4, f, f_alpha)
        psi_jet = psi.jet(*point, coupling.last[2])  # psi as phi's call read it
        f_alpha = coupling.partial_alpha(*point, psi_jet)
        return m, _upper_partials(s, m[2], psi_jet, coupling.last[1], f_alpha)

    return MatrixField(evaluate, "class1" if psi is None else "class2", derivatives)
