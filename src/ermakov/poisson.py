"""Noncanonical Poisson matrices for Ermakov flows, and the numerical
checks that certify them.

Both structure classes share

    J12 = 0,  J14 = u/v,  J24 = 1/r^2,  J23 = u/(r^2 v)

and differ in J13 and J34:

    class 1:  J13 = (u/v)^2,            J34 = u phi
    class 2:  J13 = (u/v)^2 + u psi,    J34 = u phi + 2 u v psi / r

with phi free in class 1 and constructed from psi in class 2.  Checks
offered here: the four Jacobi-identity cyclic sums (finite differences),
determinant versus Pfaffian, Hamiltonian flow reconstruction, the
class-2 consistency condition, and Casimir residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .systems import (
    DEFAULT_FLOORS,
    Class2Phi,
    Floors,
    Flow4,
    FuncHandle,
    PhaseState,
    SingularStateError,
)

__all__ = [
    "SkewMatrix4",
    "MatrixField",
    "matrix_class1",
    "matrix_class2",
    "matrix_field_class1",
    "matrix_field_class2",
    "pfaffian",
    "determinant",
    "det_class2_quoted",
    "central_differences",
    "jacobi_residuals",
    "JACOBI_TRIPLES",
    "hamiltonian_flow",
    "consistency_residual",
    "casimir_residuals",
    "perturb_j34",
]

# cyclic index triples (1-based) whose sums must vanish for a Poisson matrix
JACOBI_TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


@dataclass(frozen=True)
class SkewMatrix4:
    """A 4x4 skew-symmetric matrix stored by its upper triangle.

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
        j12, j13, j14, j23, j24, j34 = self.upper()
        return (
            (0.0, j12, j13, j14),
            (-j12, 0.0, j23, j24),
            (-j13, -j23, 0.0, j34),
            (-j14, -j24, -j34, 0.0),
        )

    def upper(self) -> tuple:
        """The six upper-triangle entries (j12, j13, j14, j23, j24, j34)."""
        return (self.j12, self.j13, self.j14, self.j23, self.j24, self.j34)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows(), dtype=float)

    def norm(self) -> float:
        """Frobenius norm."""
        j12, j13, j14, j23, j24, j34 = self.upper()
        return math.sqrt(2.0 * (j12**2 + j13**2 + j14**2 + j23**2 + j24**2 + j34**2))


@dataclass(frozen=True)
class MatrixField:
    """State-dependent Poisson matrix: a closure plus a class tag."""

    evaluate: Callable[[PhaseState, float], SkewMatrix4]
    kind: str

    def __call__(self, s: PhaseState, t: float = 0.0) -> SkewMatrix4:
        return self.evaluate(s, t)


def _common_entries(s: PhaseState, floors: Floors):
    floors.check(s.r)
    alpha = s.alpha(floors.v_min)
    r2 = s.r * s.r
    return alpha, alpha, 1.0 / r2, s.u / (r2 * s.v)  # alpha, j14, j24, j23


def matrix_class1(
    phi: Union[FuncHandle, Callable],
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> SkewMatrix4:
    """Class-1 Poisson matrix at a state; phi(alpha, r, theta, t) is free."""
    alpha, j14, j24, j23 = _common_entries(s, floors)
    phi_val = phi(alpha, s.r, s.theta, t)
    return SkewMatrix4(
        j12=0.0,
        j13=alpha * alpha,
        j14=j14,
        j23=j23,
        j24=j24,
        j34=s.u * phi_val,
    )


def matrix_class2(
    phi: Class2Phi,
    s: PhaseState,
    t: float = 0.0,
    floors: Floors = DEFAULT_FLOORS,
) -> SkewMatrix4:
    """Class-2 Poisson matrix at a state, with psi and the constructed phi
    from one Class2Phi.

    At u = 0 every psi- and phi-proportional entry vanishes and the
    matrix degenerates to the class-1 shape; callers relying on
    non-degeneracy should keep |u| above the u_min floor.
    """
    alpha, j14, j24, j23 = _common_entries(s, floors)
    psi_val = phi.psi(alpha, s.r, s.theta, t)
    phi_val = phi(alpha, s.r, s.theta, t)
    return SkewMatrix4(
        j12=0.0,
        j13=alpha * alpha + s.u * psi_val,
        j14=j14,
        j23=j23,
        j24=j24,
        j34=s.u * phi_val + 2.0 * s.u * s.v * psi_val / s.r,
    )


def pfaffian(m: SkewMatrix4) -> float:
    """Pf(J) = J12 J34 - J13 J24 + J14 J23; det(J) equals its square."""
    return m.j12 * m.j34 - m.j13 * m.j24 + m.j14 * m.j23


def _det3(a) -> float:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def determinant(m: SkewMatrix4) -> float:
    """Determinant by cofactor expansion along the first row.

    For an exactly skew matrix this equals pfaffian(m)**2 up to rounding,
    so the pair (determinant, pfaffian) doubles as a skewness check.
    """
    a = m.rows()
    total = 0.0
    for col in range(4):
        minor = [
            [a[row][c] for c in range(4) if c != col] for row in range(1, 4)
        ]
        total += ((-1.0) ** col) * a[0][col] * _det3(minor)
    return total


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


def central_differences(func: Callable, s: PhaseState, h: float) -> list:
    """The list of (func(s + h e_k) - func(s - h e_k)) / (2 h) over the
    coordinates k of (r, theta, u, v); func returns a flat tuple of
    floats, differenced entry by entry."""
    coords = (s.r, s.theta, s.u, s.v)
    out = []
    for k in range(4):
        hi, lo = list(coords), list(coords)
        hi[k] += h
        lo[k] -= h
        pairs = zip(func(PhaseState(*hi)), func(PhaseState(*lo)))
        out.append(tuple([(a - b) / (2.0 * h) for a, b in pairs]))
    return out


# per JACOBI_TRIPLES entry a < b < c (0-based): a, b, c and the positions
# in SkewMatrix4.upper() of the entries (b, c), (a, c) and (a, b); the
# cyclic sum's middle entry (c, a) is the negation of (a, c)
_JACOBI_SLOTS = (
    (0, 1, 2, 3, 1, 0), (0, 1, 3, 4, 2, 0), (0, 2, 3, 5, 2, 1), (1, 2, 3, 5, 4, 3)
)


def jacobi_residuals(
    field: MatrixField,
    s: PhaseState,
    t: float = 0.0,
    h: float = 1e-5,
) -> tuple:
    """The four cyclic sums J^{mu a} d_mu J^{bc} + J^{mu b} d_mu J^{ca}
    + J^{mu c} d_mu J^{ab} for (a,b,c) in JACOBI_TRIPLES.

    Phase-space derivatives are central differences with step h of the
    upper triangle; a lower entry's is the negated upper one's, as
    differencing the negated entries gives bit for bit.  Time is held
    fixed.  All four vanish (to differencing accuracy) exactly when the
    field is Poisson.
    """
    center = field(s, t).rows()
    grads = central_differences(lambda p: field(p, t).upper(), s, h)
    out = []
    for a, b, c, bc, ac, ab in _JACOBI_SLOTS:
        acc = 0.0
        for row, d in zip(center, grads):
            acc += row[a] * d[bc] + row[b] * -d[ac] + row[c] * d[ab]
        out.append(acc)
    return tuple(out)


def hamiltonian_flow(
    field: MatrixField,
    grad_h: Sequence[float],
    s: PhaseState,
    t: float = 0.0,
) -> Flow4:
    """The flow J grad(H) generated by a Hamiltonian gradient."""
    g = np.asarray(grad_h, dtype=float)
    if g.shape != (4,):
        raise ValueError("grad_h must be a 4-vector")
    x = field(s, t).as_array() @ g
    return Flow4(*x.tolist())


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
    if abs(s.u) <= floors.u_min:
        raise SingularStateError(
            f"|u|={abs(s.u)!r} at or below floor u_min={floors.u_min!r}"
        )
    alpha = s.alpha(floors.v_min)
    r, theta, u, v = s.r, s.theta, s.u, s.v

    psi_val = psi(alpha, r, theta, t)
    psi_prime = psi.partial("alpha")(alpha, r, theta, t)
    psi_r = psi.partial("r")(alpha, r, theta, t)
    psi_theta = psi.partial("theta")(alpha, r, theta, t)

    phi_val = phi(alpha, r, theta, t)
    dphi = phi.partial_alpha if isinstance(phi, Class2Phi) else phi.partial("alpha")
    phi_prime = dphi(alpha, r, theta, t)

    left = psi_val * phi_prime - psi_prime * phi_val
    right = psi_r + v / (r * r * u) * psi_theta - (2.0 / r) * psi_val
    return left - right


def casimir_residuals(
    field: MatrixField,
    grad_c: Sequence[float],
    s: PhaseState,
    t: float = 0.0,
) -> np.ndarray:
    """The 4-vector J grad(C).  All components vanish when C is a Casimir
    of the structure; under a non-degenerate matrix no nonconstant C can
    achieve that."""
    g = np.asarray(grad_c, dtype=float)
    if g.shape != (4,):
        raise ValueError("grad_c must be a 4-vector")
    return field(s, t).as_array() @ g


def perturb_j34(field: MatrixField, amount: Callable[[PhaseState, float], float]) -> MatrixField:
    """A copy of the field with J34 shifted by amount(s, t).

    Breaks the Jacobi identities for any non-constant shift; used as the
    negative control in verification sweeps.
    """

    def tampered(s: PhaseState, t: float = 0.0) -> SkewMatrix4:
        m = field(s, t)
        return replace(m, j34=m.j34 + amount(s, t))

    return MatrixField(evaluate=tampered, kind=field.kind + "+tampered")


def matrix_field_class1(
    phi, floors: Floors = DEFAULT_FLOORS
) -> MatrixField:
    return MatrixField(
        evaluate=lambda s, t=0.0: matrix_class1(phi, s, t, floors), kind="class1"
    )


def matrix_field_class2(
    phi: Class2Phi, floors: Floors = DEFAULT_FLOORS
) -> MatrixField:
    return MatrixField(
        evaluate=lambda s, t=0.0: matrix_class2(phi, s, t, floors), kind="class2"
    )
