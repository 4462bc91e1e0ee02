"""``tools/seed_sweep.py`` over seeds 0-19, in this process: every one of
its twelve ``verify`` ops passes at every seed, with its worst residual
at least 1e3 below the tolerance."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"


@pytest.fixture(scope="module")
def bands():
    spec = importlib.util.spec_from_file_location("seed_sweep", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sweep(range(20))


def test_every_op_passes_seeds_0_to_19_with_a_margin_of_1e3(bands):
    assert [(b.config.rsplit("/", 1)[-1], b.which) for b in bands] == [
        ("spiral.json", "jacobi"), ("spiral.json", "flow"), ("spiral.json", "casimir"),
        ("spiral.json", "determinant"),
        ("class2_psi1.json", "jacobi"), ("class2_psi1.json", "flow"),
        ("class2_psi1.json", "consistency"), ("class2_psi1.json", "determinant"),
        ("class2_quadrature.json", "flow"), ("class2_quadrature.json", "consistency"),
        ("class2_quadrature.json", "jacobi"), ("class2_quadrature.json", "determinant"),
    ]
    for b in bands:
        assert b.failing == () and b.margin >= 1e3, b
