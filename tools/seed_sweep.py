#!/usr/bin/env python3
"""Run the ``verify`` ops of the benchmark configs over a band of seeds.

    python3 tools/seed_sweep.py --seeds A-B

Runs seventeen ``verify`` sweeps (``OPS``), in this process, against the
package in this checkout's ``src/``, at every seed from A to B inclusive:
``jacobi``, ``flow``, ``casimir`` and ``determinant`` on
``configs/spiral.json``; ``jacobi``, ``flow``, ``consistency`` and
``determinant`` on ``configs/class2_psi1.json``; ``flow``,
``consistency``, ``jacobi`` and ``determinant`` on the class-2 stress
config ``bench/configs/class2_quadrature.json``; ``casimir`` on
``OFF_OSCILLATOR`` from ``tools/report_digests.py``, the one op whose C2
gradient takes the quadrature path; and ``jacobi``, ``flow``,
``consistency`` and ``determinant`` on that tool's
``class2_theta_fixed.json``, whose phi integrand carries the
psi_theta/(r^2 lambda) term.  It prints one line per
op: the tolerance, the worst residual over the band with its seed, the
margin (tolerance over worst residual, inf where the worst is 0.0), the
seeds whose sweep failed, ``ALL-ZERO`` where every residual of every
seed is exactly 0.0, since such a sweep checks nothing, and last
``bits=``, the first 16 hex digits of the sha256 over the op's reports,
``json.dumps(doc, sort_keys=True)`` of each seed in turn: two checkouts
print the same bits exactly when they write the same reports.  It exits 1
when a sweep failed at any seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import runpy
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

_DIGESTS = runpy.run_path(str(ROOT / "tools" / "report_digests.py"))


def _sweep_variant(name: str) -> dict:
    """The digest tool's sweep variant ``name``, built as that tool builds it."""
    _, base, sections, _ = next(v for v in _DIGESTS["SWEEP_VARIANTS"] if v[0] == name)
    return dict(json.loads((ROOT / "configs" / base).read_text(encoding="utf-8")), **sections)


# documents of the digest tool: its pseudo-potential off the singular
# oscillator, and its theta-dependent class-2 psi on the fixed branch
DOCUMENTS = {
    "OFF_OSCILLATOR": _DIGESTS["OFF_OSCILLATOR"],
    "class2_theta_fixed.json": _sweep_variant("class2_theta_fixed.json"),
}

# (config, its sweeps), the config relative to the checkout or in DOCUMENTS
OPS = (
    ("configs/spiral.json", ("jacobi", "flow", "casimir", "determinant")),
    ("configs/class2_psi1.json", ("jacobi", "flow", "consistency", "determinant")),
    ("bench/configs/class2_quadrature.json", ("flow", "consistency", "jacobi", "determinant")),
    ("OFF_OSCILLATOR", ("casimir",)),
    ("class2_theta_fixed.json", ("jacobi", "flow", "consistency", "determinant")),
)


class Band(NamedTuple):
    """One op over a band of seeds."""

    config: str
    which: str
    tolerance: float
    worst: float  # the largest residual, or the first NaN
    worst_seed: int
    failing: tuple  # the seeds whose sweep failed
    all_zero: bool  # every residual of every seed is exactly 0.0
    bits: str  # sha256 hex over the reports, json.dumps(doc, sort_keys=True) per seed

    @property
    def margin(self) -> float:
        """Tolerance over the worst residual: inf for 0.0, NaN for NaN."""
        return self.tolerance / self.worst if self.worst else math.inf


def sweep(seeds) -> list:
    """A Band per op of ``OPS``, over ``seeds``."""
    from ermakov.config import load_config, parse_config
    from ermakov.verify import cmd_verify

    bands = []
    for config, ops in OPS:
        if config in DOCUMENTS:
            cfg = parse_config(json.dumps(DOCUMENTS[config]).encode())
        else:
            cfg = load_config(ROOT / config)
        for which in ops:
            worst, worst_seed, failing, all_zero, tolerance = -math.inf, None, [], True, None
            bits = hashlib.sha256()
            for seed in seeds:
                code, _, reports = cmd_verify(cfg, seed, which, False)
                (doc,) = reports.values()
                bits.update(json.dumps(doc, sort_keys=True).encode())
                tolerance, top = doc["tolerance"], doc["max_residual"]
                if code:
                    failing.append(seed)
                if worst == worst and (top != top or top > worst):  # NaN is the worst
                    worst, worst_seed = top, seed
                all_zero = all_zero and all(row["residual"] == 0.0 for row in doc["per_state"])
            bands.append(Band(
                config, which, tolerance, worst, worst_seed, tuple(failing), all_zero, bits.hexdigest()
            ))
    return bands


def _seed_range(text: str) -> range:
    first, sep, last = text.partition("-")
    try:
        seeds = range(int(first), int(last if sep else first) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"expected A-B with 0 <= A <= B, got {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=_seed_range, help="A-B, both included")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    bands = sweep(args.seeds)
    for b in bands:
        failing = ",".join(map(str, b.failing)) or "none"
        print(
            f"{b.config} {b.which}: tolerance={b.tolerance:.1e} worst={b.worst:.3e} "
            f"(seed {b.worst_seed}) margin={b.margin:.2e} failing={failing}"
            + " ALL-ZERO" * b.all_zero
            + f" bits={b.bits[:16]}"
        )
    return 1 if any(b.failing for b in bands) else 0


if __name__ == "__main__":
    sys.exit(main())
