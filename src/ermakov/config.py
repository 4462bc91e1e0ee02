"""Run configuration for the command line tools.

A run is described by one JSON document.  Expression-valued fields are
strings in the grammar of :mod:`ermakov.expr`.  Validation is strict:
unknown keys anywhere are rejected, so typos fail loudly instead of
silently using a default.  Nothing here needs a package outside the
standard library.  The integrator settings are an
:class:`ermakov.systems.Solver`, and only ``RunConfig.trajectory`` loads
:mod:`ermakov.integrate`.  The config digest comes from the interpreter's
built-in sha256 where it has one, so loading a config loads neither the
integrator nor OpenSSL.
"""

from __future__ import annotations

import json
import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Tuple

from . import expr as ex
from .systems import Class2Phi, Floors, FuncHandle, PhaseState, Potential, Solver, SystemSpec

# hashlib loads OpenSSL for one digest; the interpreter's own sha256 gives
# the same bytes without it
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    import random

    from .integrate import Trajectory

__all__ = [
    "ConfigError",
    "RunConfig",
    "SWEEPS",
    "VerifySettings",
    "OrbitSettings",
    "LinearizeSettings",
    "load_config",
    "parse_config",
    "sample_states",
]


class ConfigError(ValueError):
    """The configuration document is unusable (syntax, schema, ranges)."""


def _check_keys(section: dict, allowed, where: str):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")


def _section(doc: dict, key: str) -> dict:
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError(f"config.{key} must be an object")
    return val


def _settings(cls, section, where: str, checks: dict):
    """``cls`` built from an object whose allowed keys are those of
    ``checks``; each present value passes through its check in table
    order, and absent keys keep the defaults declared on ``cls``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(section, checks, where)
    values = {
        key: check(section[key], f"{where}.{key}") for key, check in checks.items() if key in section
    }
    try:
        return cls(**values)
    except ValueError as exc:  # a rule across keys, such as Solver's on dt
        raise ConfigError(f"{where}.{exc}") from exc


def _number(val, where: str) -> float:
    """A finite float; JSON's 1e400 parses to inf, and a larger int is inf too."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:
        num = math.inf if val > 0 else -math.inf
    if not math.isfinite(num):
        raise ConfigError(f"{where} must be finite, got {num!r}")
    return num


def _positive(val, where: str) -> float:
    num = _number(val, where)
    if not num > 0.0:
        raise ConfigError(f"{where} must be positive, got {num!r}")
    return num


def _u_floor(val, where: str) -> float:
    num = _positive(val, where)
    if num > 2.0:  # verify draws |u| from [u_floor, 2]
        raise ConfigError(f"{where} must be at most 2, got {num!r}")
    return num


def _count(val, where: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int) or val <= 0:
        raise ConfigError(f"{where} must be a positive integer, got {val!r}")
    return val


def _seed(val, where: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int) or val < 0:
        raise ConfigError(f"{where} must be a nonnegative integer, got {val!r}")
    return val


def _one_of(*choices: str):
    names = ", ".join(choices[:-1]) + " or " + choices[-1]

    def check(val, where: str) -> str:
        if val not in choices:
            raise ConfigError(f"{where} must be {names}, got {val!r}")
        return val

    return check


def _expr(text, where: str) -> ex.Expr:
    """An expression string parsed."""
    if not isinstance(text, str):
        raise ConfigError(f"{where} must be an expression string, got {text!r}")
    try:
        return ex.parse(text)
    except ex.ParseError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _optional_expr(text, where: str) -> Optional[ex.Expr]:
    """As ``_expr``, with null standing for an absent expression."""
    return None if text is None else _expr(text, where)


def _potential(text, where: str) -> Optional[Potential]:
    """An optional potential V(rbar, t), its variables checked."""
    tree = _optional_expr(text, where)
    try:
        return None if tree is None else Potential(tree)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _span(val, where: str) -> Tuple[float, float]:
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        raise ConfigError(f"{where} must be a two-element array")
    lo = _number(val[0], f"{where}[0]")
    hi = _number(val[1], f"{where}[1]")
    if not hi > lo:
        raise ConfigError(f"{where} must increase, got [{lo!r}, {hi!r}]")
    return lo, hi


def _positive_span(val, where: str) -> Tuple[float, float]:
    lo, hi = _span(val, where)
    if not lo > 0.0:
        raise ConfigError(f"{where} must be positive, got [{lo!r}, {hi!r}]")
    return lo, hi


def _grid(val, where: str) -> int:
    n = _count(val, where)
    if n < 6:
        raise ConfigError(f"{where} must be at least 6, got {n}")
    return n


# the keys each kind of system allows; a key of another kind is unknown
_SYSTEM_KEYS = {
    "class1": ("kind", "g", "phi"),
    "class2": ("kind", "g", "psi", "chi", "lam0", "quad_tol"),
    "pseudo_potential": ("kind", "g", "potential"),
}
_SYSTEM_KIND = _one_of(*_SYSTEM_KEYS)
# class-2 numbers and the Class2Phi parameter each sets
_CLASS2_NUMBERS = {"lam0": ("lam0", _number), "quad_tol": ("tol", _positive)}


def _build_system(section: dict, class2: dict) -> SystemSpec:
    """The spec of a system section, its coupling built once; ``class2``
    holds Class2Phi settings from outside the section (the psi floor)."""
    kind = _SYSTEM_KIND(section.get("kind"), "system.kind")
    _check_keys(section, _SYSTEM_KEYS[kind], "system")
    if class2 and kind != "class2":
        raise ConfigError(f"floors.psi_min applies only to class2, not {kind}")
    g = _expr(section.get("g", "0"), "system.g")
    try:
        if kind == "class1":
            return SystemSpec(g, FuncHandle(_expr(section.get("phi", "0"), "system.phi")))
        if kind == "class2":
            if "psi" not in section:
                raise ConfigError("system.psi is required for class2")
            psi = FuncHandle(_expr(section["psi"], "system.psi"))
            chi = _optional_expr(section.get("chi"), "system.chi")
            numbers = {
                param: check(section[key], f"system.{key}")
                for key, (param, check) in _CLASS2_NUMBERS.items()
                if key in section
            }
            return SystemSpec(g, Class2Phi(psi, chi, **class2, **numbers))
        if "potential" not in section:
            raise ConfigError("system.potential is required for pseudo_potential")
        return SystemSpec(g, Potential(_expr(section["potential"], "system.potential")))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


_STATE_KEYS = PhaseState._fields


def _build_state(section: dict) -> PhaseState:
    _check_keys(section, _STATE_KEYS, "initial_state")
    for key in _STATE_KEYS:
        if key not in section:
            raise ConfigError(f"initial_state.{key} is required")
    try:
        return PhaseState(
            *(_number(section[key], f"initial_state.{key}") for key in _STATE_KEYS)
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"initial_state: {exc}") from exc


class VerifySettings(NamedTuple):
    samples: int = 1000
    seed: int = 20260823
    u_floor: float = 0.05
    branch: str = "any"
    tolerance: Mapping[str, float] = MappingProxyType({})  # per sweep, e.g. {"jacobi": 1e-6}
    phi_override: Optional[ex.Expr] = None
    casimir_potential: Optional[Potential] = None


class OrbitSettings(NamedTuple):
    theta_span: Tuple[float, float] = (0.0, 1.0)
    tolerance: float = 1e-6
    time_tolerance: float = 1e-5
    n_grid: int = 400


class AffinityProbe(NamedTuple):
    theta: float = 0.0
    t: float = 0.0
    rbar_range: Tuple[float, float] = (0.5, 2.0)
    abar_range: Tuple[float, float] = (0.1, 1.0)
    n: int = 8


class LinearizeSettings(NamedTuple):
    tolerance: float = 1e-6
    n_grid: int = 400
    affinity: AffinityProbe = AffinityProbe()


# allowed keys and their checks, in the order they are checked
# psi_min is the class-2 psi floor, which goes to Class2Phi
_FLOORS = dict.fromkeys(("r_min", "u_min", "v_min", "psi_min"), _positive)
# the verify sweeps, by --which name and tolerance key
SWEEPS = ("jacobi", "flow", "casimir", "consistency", "determinant")
_TOLERANCES = dict.fromkeys(SWEEPS, _positive)
_VERIFY = {
    "tolerance": lambda val, where: _settings(dict, val, where, _TOLERANCES),
    "branch": _one_of("any", "fixed"),
    "seed": _seed,
    "samples": _count,
    "u_floor": _u_floor,
    "phi_override": _optional_expr,
    "casimir_potential": _potential,
}
_ORBIT = {
    "theta_span": _span,
    "tolerance": _positive,
    "time_tolerance": _positive,
    "n_grid": _count,
}
_AFFINITY = {
    "theta": _number,
    "t": _number,
    "rbar_range": _positive_span,
    "abar_range": _span,
    "n": _grid,
}
_LINEARIZE = {
    "affinity": lambda val, where: _settings(AffinityProbe, val, where, _AFFINITY),
    "tolerance": _positive,
    "n_grid": _count,
}
_INTEGRATOR = {
    "method": _one_of("rk4", "dp45"),
    "dt": _positive,
    "rtol": _positive,
    "atol": _positive,
    "max_steps": _count,
}


class RunConfig(NamedTuple):
    spec: SystemSpec
    s0: Optional[PhaseState]
    t0: float
    t1: float
    floors: Floors
    verify: VerifySettings
    orbit: OrbitSettings
    linearize: LinearizeSettings
    sha256: str
    solver: Solver

    def trajectory(self) -> Trajectory:
        """The run integrated from its initial state, which it needs."""
        if self.s0 is None:
            raise ConfigError("initial_state is required for this command")
        from .integrate import integrate

        return integrate(self.spec, self.s0, self.t0, self.t1, self.solver, self.floors)


_TOP_KEYS = (
    "system",
    "initial_state",
    "time_span",
    "integrator",
    "floors",
    "verify",
    "orbit",
    "linearize",
)


def parse_config(data: bytes) -> RunConfig:
    """Parse and validate a configuration document from raw bytes."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")
    if "system" not in doc:
        raise ConfigError("config.system is required")
    floors = _settings(dict, _section(doc, "floors"), "floors", _FLOORS)
    psi_floor = {"psi_min": floors.pop("psi_min")} if "psi_min" in floors else {}
    spec = _build_system(_section(doc, "system"), psi_floor)
    s0 = _build_state(_section(doc, "initial_state")) if "initial_state" in doc else None
    t0, t1 = _span(doc["time_span"], "time_span") if "time_span" in doc else (0.0, 1.0)
    solver = _settings(Solver, _section(doc, "integrator"), "integrator", _INTEGRATOR)
    return RunConfig(
        spec=spec,
        s0=s0,
        t0=t0,
        t1=t1,
        floors=Floors(**floors),
        verify=_settings(VerifySettings, _section(doc, "verify"), "verify", _VERIFY),
        orbit=_settings(OrbitSettings, _section(doc, "orbit"), "orbit", _ORBIT),
        linearize=_settings(
            LinearizeSettings, _section(doc, "linearize"), "linearize", _LINEARIZE
        ),
        sha256=sha256(data).hexdigest(),
        solver=solver,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(data)


def sample_states(rng: random.Random, n: int, u_floor: float, branch: str) -> list:
    """Draw admissible verification states, reproducibly for a seeded rng.

    r in [0.5, 3], theta in [-pi, pi], |u| in [u_floor, 2] with u_floor
    in (0, 2], |v| in [0.5, 3].  branch "any" flips the signs of u and v
    independently; "fixed" pins u < 0, v > 0 so sign(-u/v) is constant
    across the sample.  Each state takes the next four doubles x of
    ``rng.random()`` (six for "any") and maps them as ``rng.uniform(low,
    high)`` does: low + (high - low) x.  A sign double flips its sign
    where x >= 0.5.
    """
    if branch not in ("any", "fixed"):
        raise ValueError(f"branch must be any or fixed, got {branch!r}")
    if not 0.0 < u_floor <= 2.0:  # NaN and infinities fail too
        raise ValueError(f"u_floor must be positive and at most 2, got {u_floor!r}")
    width_u = 2.0 - u_floor
    width_theta = 2.0 * math.pi
    x = rng.random
    fixed = branch == "fixed"
    states = []
    for _ in range(n):
        r, theta = 0.5 + 2.5 * x(), -math.pi + width_theta * x()
        u, v = u_floor + width_u * x(), 0.5 + 2.5 * x()
        # "any" draws the two sign doubles after the four of the magnitudes
        if fixed or x() >= 0.5:
            u = -u
        if not fixed and x() >= 0.5:
            v = -v
        # every r is at least 0.5: the state is built past PhaseState's r > 0 check
        states.append(tuple.__new__(PhaseState, (r, theta, u, v)))
    return states
