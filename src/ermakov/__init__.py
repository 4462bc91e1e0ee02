"""Generalized Hamiltonian structures for Ermakov systems: Poisson
matrices, Casimir invariants, time integration and the orbit-equation
linearization, with a configuration-driven command line.  Each name is
imported from the module that defines it; importing the package loads
no module."""

__version__ = "0.1.0"

__all__ = ["__version__"]
