"""The benchmark's tracer, ``bench/tracer.py``, around one in-process
``ermakov verify`` run of each shipped sweep and of the class-2 stress
config's quadrature sweeps: every name it patches is still there, and
each sampled state makes one matrix, one Hamiltonian flow, one vector
field or one consistency residual through the patched names, as the sweep
needs them, and a class-2 state calls the patched ``Class2Phi.__call__``
twice.  On the stress config each state also runs one quadrature through
the patched ``quad_adaptive``, whose integrand samples are counted.  Code
that builds a matrix or a flow, reads phi and psi, or integrates past a
patched name fails here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

# imported before a tracer goes in, as the benchmark's plain pass before
# its traced one imports it: a module first imported while a tracer is in
# keeps the wrappers past uninstall, binding the next tracer's names to
# the last one's counters
from ermakov import cli, verify  # noqa: F401
from ermakov.config import load_config

_ROOT = Path(__file__).resolve().parent.parent
_TRACER = _ROOT / "bench" / "tracer.py"

# the configs, read only
_CONFIGS = {
    "spiral": _ROOT / "configs" / "spiral.json",
    "class2_psi1": _ROOT / "configs" / "class2_psi1.json",
    "class2_quadrature": _ROOT / "bench" / "configs" / "class2_quadrature.json",
}

# the spans counted, and per sweep how many calls of each one a sampled
# state makes
_SPANS = (
    "poisson.matrix", "poisson.flow", "systems.vector_field", "poisson.consistency",
    "systems.class2_phi",
)
_SWEEPS = {
    ("spiral", "jacobi"): (1, 0, 0, 0, 0),
    ("spiral", "flow"): (1, 1, 1, 0, 0),
    ("spiral", "casimir"): (1, 0, 0, 0, 0),
    ("spiral", "determinant"): (1, 0, 0, 0, 0),
    ("class2_psi1", "jacobi"): (1, 0, 0, 0, 2),
    ("class2_psi1", "flow"): (1, 1, 1, 0, 2),
    ("class2_psi1", "consistency"): (0, 0, 0, 1, 2),
    ("class2_quadrature", "flow"): (1, 1, 1, 0, 2),
    ("class2_quadrature", "consistency"): (0, 0, 0, 1, 2),
    ("class2_quadrature", "jacobi"): (1, 0, 0, 0, 2),
}

# (quadratures per state, integrand samples of the sweep at seed 3) of the
# sweeps that integrate
_QUADRATURES = {
    ("class2_quadrature", "flow"): (1, 21966),
    ("class2_quadrature", "consistency"): (1, 21966),
    ("class2_quadrature", "jacobi"): (1, 21966),
}


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config, which", sorted(_SWEEPS), ids=map("-".join, sorted(_SWEEPS)))
def test_a_traced_verify_sweep_counts_one_call_per_state(tracer_module, tmp_path, config, which):
    path = _CONFIGS[config]
    samples = load_config(path).verify.samples
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        argv = ["verify", "--config", str(path), "--which", which, "--seed", "3"]
        code = cli.main(argv + ["--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing == []
    assert tracer.counts["cli.calls"] == 1
    counted = {span: tracer.counts[span + ".calls"] for span in _SPANS}
    per_state = _SWEEPS[config, which]
    assert counted == {span: k * samples for span, k in zip(_SPANS, per_state)}
    per_state, swept = _QUADRATURES.get((config, which), (0, 0))
    assert tracer.counts["expr.quad.calls"] == per_state * samples
    assert tracer.counts["expr.quad.samples"] == swept
