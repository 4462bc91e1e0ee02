"""``tools/seed_sweep.py`` over seeds 0-19, in this process: every one of
its seventeen ``verify`` ops passes at every seed, with its worst residual
at least 1e3 below the tolerance; each op's ``bits`` repeat on a second run
and differ from every other op's."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"


def _tool():
    spec = importlib.util.spec_from_file_location("seed_sweep", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bands():
    return _tool().sweep(range(20))


def test_every_op_passes_seeds_0_to_19_with_a_margin_of_1e3(bands):
    assert [(b.config.rsplit("/", 1)[-1], b.which) for b in bands] == [
        ("spiral.json", "jacobi"), ("spiral.json", "flow"), ("spiral.json", "casimir"),
        ("spiral.json", "determinant"),
        ("class2_psi1.json", "jacobi"), ("class2_psi1.json", "flow"),
        ("class2_psi1.json", "consistency"), ("class2_psi1.json", "determinant"),
        ("class2_quadrature.json", "flow"), ("class2_quadrature.json", "consistency"),
        ("class2_quadrature.json", "jacobi"), ("class2_quadrature.json", "determinant"),
        ("OFF_OSCILLATOR", "casimir"),
        ("class2_theta_fixed.json", "jacobi"), ("class2_theta_fixed.json", "flow"),
        ("class2_theta_fixed.json", "consistency"), ("class2_theta_fixed.json", "determinant"),
    ]
    for b in bands:
        assert b.failing == () and b.margin >= 1e3, b


def test_bits_repeat_for_a_band_and_differ_between_ops(bands):
    tool = _tool()
    assert [b.bits for b in tool.sweep(range(2))] == [b.bits for b in tool.sweep(range(2))]
    assert len({b.bits for b in bands}) == len(bands)
