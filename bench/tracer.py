"""Per-layer spans and counters for the ermakov package, installed from outside.

A :class:`Tracer` replaces public functions of the package's modules with
wrappers that record a span (calls and self time) or only count calls.
Nothing under ``src/`` is edited: each wrapper is written into the module
that defines the function and into every other ``ermakov`` namespace that
imported the same object by name (``cli`` imports ``integrate``, ``drift``,
``vector_field``, ``load_config`` and ``sample_states`` directly), and
:meth:`Tracer.uninstall` puts the originals back.

Self time of a span is its duration minus the time covered by the spans it
caused.  Recursive functions (``evaluate``, ``differentiate``, and
``quad_adaptive`` flipping ``b < a``) are replaced by a copy whose
self-calls bind to the copy, so only the outermost call passes through the
wrapper and is counted.  Quadrature samples are counted by wrapping the
integrand handed to ``quad_adaptive``; integrator step counters are read
from the returned ``Trajectory.stats``.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import Counter, defaultdict

# (module, function, span name); every call is timed
_SPANS = (
    ("systems", "vector_field", "systems.vector_field"),
    ("poisson", "matrix_class1", "poisson.matrix"),
    ("poisson", "matrix_class2", "poisson.matrix"),
    ("poisson", "jacobi_residuals", "poisson.jacobi"),
    ("poisson", "consistency_residual", "poisson.consistency"),
    ("poisson", "hamiltonian_flow", "poisson.flow"),
    ("invariants", "ermakov_invariant", "invariants.I"),
    ("invariants", "casimir_C1", "invariants.C1"),
    ("integrate", "hermite_eval", "integrate.dense"),
    ("integrate", "drift", "integrate.drift"),
    ("linearize", "to_orbit_curve", "linearize.curve"),
    ("linearize", "integrate_characteristic", "linearize.characteristic"),
    ("linearize", "orbit_match", "linearize.orbit_match"),
    ("linearize", "affinity_test", "linearize.affinity"),
    ("config", "load_config", "config.load"),
    ("config", "sample_states", "config.sample_states"),
    ("cli", "main", "cli"),
    ("cli", "_write_json", "cli.write"),
    ("cli", "_write_csv", "cli.write"),
)

# per-call hot spot that calls nothing traced: timed by the cheaper leaf span
_LEAF = ("expr", "evaluate", "expr.evaluate")

# (module, function, counter name); calls are counted, their time stays
# with the caller
_COUNTS = (
    ("expr", "parse", "expr.parse.calls"),
    ("expr", "differentiate", "expr.differentiate.calls"),
)

_RECURSIVE = {("expr", "evaluate"), ("expr", "differentiate"), ("expr", "quad_adaptive")}


_COUNTER_SUFFIXES = (".calls", ".builds", ".samples", "failures", ".feval", ".report_bytes")


def counters(layers: dict) -> dict:
    """The entries of ``layers`` that repeat exactly for a given seed."""
    return {
        name: value
        for name, value in layers.items()
        if name.endswith(_COUNTER_SUFFIXES) or name.startswith("integrate.steps_")
    }


def _module(name: str):
    # sys.modules, not attribute access: ermakov.integrate is the
    # re-exported function, not the module
    try:
        return importlib.import_module(f"ermakov.{name}")
    except ModuleNotFoundError:
        return None


def _outermost_only(fn):
    """Copy of ``fn`` whose recursive calls bind to the copy itself."""
    scope = dict(fn.__globals__)
    clone = types.FunctionType(
        fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__
    )
    clone.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = clone
    return clone


class Tracer:
    """Collects spans and counters while installed.

    ``install`` patches the package, ``uninstall`` restores it, and
    ``layers`` returns the recorded values keyed by metric name.  A
    function the package no longer has is listed in ``missing`` and its
    metrics read 0.
    """

    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._child = [0.0]  # time covered by child spans, one slot per open span
        self._leaf = [0.0, 0]  # seconds and calls of the leaf span
        self._undo = []
        self.missing = []

    def _span(self, name, fn, errors=False, on_result=None):
        counts, self_s, child, clock = self.counts, self.self_s, self._child, time.perf_counter
        calls = name + ".calls"
        failures = name + ".failures"

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if errors:
                    counts[failures] += 1
                raise
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - child.pop()
                child[-1] += elapsed
                counts[calls] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _leaf_span(self, fn):
        cell, child, clock = self._leaf, self._child, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed
                cell[1] += 1
                child[-1] += elapsed

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _quad(self, fn):
        counts = self.counts

        def quad_adaptive(f, *args, **kwargs):
            samples = 0

            def integrand(x):
                nonlocal samples
                samples += 1
                return f(x)

            try:
                return fn(integrand, *args, **kwargs)
            finally:
                counts["expr.quad.samples"] += samples

        return self._span("expr.quad", quad_adaptive, errors=True)

    def _steps(self, traj):
        stats = traj.stats
        self.counts["integrate.steps_accepted"] += stats["n_accepted"]
        self.counts["integrate.steps_rejected"] += stats["n_rejected"]
        self.counts["integrate.stage_failures"] += stats["n_stage_failures"]
        self.counts["integrate.feval"] += stats["n_feval"]

    def _replace(self, mod_name, fn_name, make):
        original = getattr(_module(mod_name), fn_name, None)
        if original is None:
            self.missing.append(f"{mod_name}.{fn_name}")
            return
        target = _outermost_only(original) if (mod_name, fn_name) in _RECURSIVE else original
        wrapper = make(target)
        for name, mod in list(sys.modules.items()):
            if name == "ermakov" or name.startswith("ermakov."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for mod_name, fn_name, span in _SPANS:
            self._replace(mod_name, fn_name, lambda fn, span=span: self._span(span, fn))
        self._replace(*_LEAF[:2], self._leaf_span)
        for mod_name, fn_name, counter in _COUNTS:
            self._replace(mod_name, fn_name, lambda fn, c=counter: self._counter(c, fn))
        self._replace("expr", "quad_adaptive", self._quad)
        self._replace(
            "invariants",
            "casimir_C2",
            lambda fn: self._span("invariants.C2", fn, errors=True),
        )
        self._replace(
            "integrate",
            "integrate_ode",
            lambda fn: self._span("integrate.ode", fn, on_result=self._steps),
        )
        cls = getattr(_module("systems"), "Class2Phi", None)
        if cls is None:
            self.missing.append("systems.Class2Phi")
            return
        self._replace_method(
            cls, "__init__", self._counter("systems.class2_phi.builds", cls.__init__)
        )
        self._replace_method(
            cls, "__call__", self._span("systems.class2_phi", cls.__call__)
        )

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layers(self) -> dict:
        """Every recorded counter and self time, keyed by metric name."""
        out = dict(self.counts)
        out.update({f"{name}.self_s": value for name, value in self.self_s.items()})
        out[_LEAF[2] + ".self_s"], out[_LEAF[2] + ".calls"] = self._leaf
        attempted = (
            self.counts["integrate.steps_accepted"]
            + self.counts["integrate.steps_rejected"]
            + self.counts["integrate.stage_failures"]
        )
        if attempted:
            out["integrate.accept_ratio"] = self.counts["integrate.steps_accepted"] / attempted
        out["integrate.steps_attempted"] = attempted
        return out
