"""Generalized Hamiltonian structures for Ermakov systems: Poisson
matrices, Casimir invariants, time integration and the orbit-equation
linearization, with a configuration-driven command line."""

from .expr import DomainError, EvalError, ParseError, QuadratureError, parse, to_text
from .integrate import Solver, Trajectory, drift, integrate
from .invariants import casimir_C1, casimir_C2, ermakov_invariant, spiral_radius
from .systems import Floors, PhaseState, Potential, SingularStateError, SystemSpec, vector_field

__version__ = "0.1.0"

# linearize is loaded on first use of these names, so that importing the
# package does not compile it
_LINEARIZE_NAMES = ("affinity_test", "integrate_characteristic", "to_orbit_curve")


def __getattr__(name: str):
    if name in _LINEARIZE_NAMES:
        from . import linearize

        return getattr(linearize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DomainError",
    "EvalError",
    "ParseError",
    "QuadratureError",
    "parse",
    "to_text",
    "Solver",
    "Trajectory",
    "drift",
    "integrate",
    "casimir_C1",
    "casimir_C2",
    "ermakov_invariant",
    "spiral_radius",
    "affinity_test",
    "integrate_characteristic",
    "to_orbit_curve",
    "Floors",
    "PhaseState",
    "Potential",
    "SingularStateError",
    "SystemSpec",
    "vector_field",
    "__version__",
]
