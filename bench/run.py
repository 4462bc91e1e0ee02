#!/usr/bin/env python3
"""Benchmark of the ermakov command line tools.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One process, one caller, closed loop: each pass runs
the workload's fixed command list once through ``ermakov.cli.main(argv)``,
and passes repeat until ``--seconds`` have gone by (at least one).  The
seed is handed to the program only as ``verify --seed``.

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate (see
``tracer.py``) and the per-layer metrics are reported, including the
tracing overhead.  Every op is checked (exit code, report files present
and parseable, bytes equal to the op's first repetition, and the exact
spiral solution); a miss counts as a failed op and the run goes on.  Times
are rescaled to a reference host speed (see ``hostspeed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 1
SETUP_STARTS = 16  # half before the passes, half after
YARDSTICK = (
    "import argparse, dataclasses, decimal, email.parser, fractions, "
    "http.client, json, statistics, unittest, xml.dom.minidom"
)
REF_YARDSTICK_S = 0.1  # the yardstick's time on the reference host

KINDS = ("simulate", "verify", "orbit", "linearize")
REPORTS = {
    "simulate": ("trajectory.csv", "drift.json"),
    "orbit": ("orbit.json",),
    "linearize": ("curve.csv", "linearize.json"),
}

SPIRAL = "configs/spiral.json"
CLASS2_PSI1 = "configs/class2_psi1.json"
CLASS2_QUAD = "bench/configs/class2_quadrature.json"


@dataclass(frozen=True)
class Op:
    command: str
    config: str
    which: Optional[str] = None

    @property
    def name(self) -> str:
        stem = Path(self.config).stem
        return f"{self.command}-{self.which}-{stem}" if self.which else f"{self.command}-{stem}"

    @property
    def reports(self):
        if self.command == "verify":
            return (f"verify_{self.which}.json",)
        return REPORTS[self.command]

    def fresh_out(self, root: Path) -> Path:
        """This op's output directory under root, without old reports."""
        out = root / self.name
        out.mkdir(parents=True, exist_ok=True)
        for name in self.reports:
            (out / name).unlink(missing_ok=True)
        return out

    def argv(self, seed: int, out: Path) -> list:
        args = [self.command, "--config", str(ROOT / self.config), "--out", str(out)]
        if self.command == "verify":
            args += ["--which", self.which, "--seed", str(seed)]
        return args


def _verify(config, *which):
    return [Op("verify", config, w) for w in which]


# why each workload and its op list, and the ops left out: README.md
WORKLOADS = {
    "shipped": [
        Op("simulate", SPIRAL),
        Op("orbit", SPIRAL),
        Op("linearize", SPIRAL),
        *_verify(SPIRAL, "jacobi", "flow", "casimir", "determinant"),
        Op("simulate", CLASS2_PSI1),
        *_verify(CLASS2_PSI1, "jacobi", "flow", "consistency"),
    ],
    "class2_quadrature": [
        Op("simulate", CLASS2_QUAD),
        *_verify(CLASS2_QUAD, "flow", "consistency"),
    ],
}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics and their units; missing counters read as 0
PER_LAYER = {
    "expr.evaluate.calls": "count",
    "expr.evaluate.self_s": "s",
    "expr.quad.calls": "count",
    "expr.quad.samples": "count",
    "expr.quad.self_s": "s",
    "expr.quad.failures": "count",
    "expr.differentiate.calls": "count",
    "expr.parse.calls": "count",
    "systems.vector_field.calls": "count",
    "systems.vector_field.self_s": "s",
    "systems.class2_phi.calls": "count",
    "systems.class2_phi.builds": "count",
    "systems.class2_phi.self_s": "s",
    "poisson.matrix.calls": "count",
    "poisson.matrix.self_s": "s",
    "poisson.jacobi.self_s": "s",
    "poisson.consistency.self_s": "s",
    "poisson.flow.self_s": "s",
    "invariants.I.calls": "count",
    "invariants.I.self_s": "s",
    "invariants.C1.calls": "count",
    "invariants.C2.calls": "count",
    "invariants.C2.self_s": "s",
    "invariants.C2.failures": "count",
    "integrate.steps_accepted": "count",
    "integrate.steps_rejected": "count",
    "integrate.stage_failures": "count",
    "integrate.feval": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.ode.self_s": "s",
    "integrate.dense.calls": "count",
    "integrate.dense.self_s": "s",
    "integrate.drift.self_s": "s",
    "linearize.curve.self_s": "s",
    "linearize.characteristic.self_s": "s",
    "linearize.orbit_match.self_s": "s",
    "linearize.affinity.self_s": "s",
    "config.load.self_s": "s",
    "config.sample_states.self_s": "s",
    "cli.self_s": "s",
    "cli.write.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
    "simulate_s": "s",
    "orbit_s": "s",
    "linearize_s": "s",
}


def import_package():
    """Import ermakov.cli from this checkout's src/, or exit 2."""
    needed = ["src/ermakov/cli.py", *sorted({op.config for ops in WORKLOADS.values() for op in ops})]
    missing = [path for path in needed if not (ROOT / path).is_file()]
    if missing:
        sys.exit(f"bench: missing under {ROOT}: {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    from ermakov import cli

    if Path(cli.__file__).resolve().parent != SRC / "ermakov":
        sys.exit(f"bench: imported ermakov from {cli.__file__}, not from {SRC}")
    return cli


def _spawn_seconds(argv) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_times(configs, starts: int) -> list:
    """Times of a fresh interpreter importing ermakov.cli and loading the
    workload's configs, at the reference host speed.

    Each start is paired with one of the yardstick, a fresh interpreter
    importing a fixed set of standard modules, and scaled by
    REF_YARDSTICK_S over the yardstick's time.  Process start and imports
    swing with the host's load by other amounts than the interpreter work
    that hostspeed.py gauges, often in the other direction."""
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "import ermakov.cli",
        "from ermakov.config import load_config",
        "for path in sys.argv[2:]: load_config(path)",
    ])
    setup = [sys.executable, "-c", code, str(SRC), *(str(ROOT / c) for c in configs)]
    yardstick = [sys.executable, "-c", YARDSTICK]
    return [
        _spawn_seconds(setup) * REF_YARDSTICK_S / _spawn_seconds(yardstick)
        for _ in range(starts)
    ]


def _parse_report(path: Path, data: bytes):
    if path.suffix == ".json":
        return json.loads(data)
    header, *lines = data.decode("utf-8").splitlines() or [""]
    width = len(header.split(","))
    rows = [[float(x) for x in line.split(",")] for line in lines]
    if not rows or any(len(row) != width for row in rows):
        raise ValueError("ragged or empty CSV")
    return rows


def _content_problems(op: Op, rc, parsed: dict) -> list:
    problems = []
    for name, doc in parsed.items():
        if isinstance(doc, dict) and "pass" in doc and doc["pass"] != (rc == 0):
            problems.append(f"exit {rc} but {name} says pass={doc['pass']}")
    if op == Op("simulate", SPIRAL):
        # exact solution of the shipped spiral: r = cos t, theta = tan t
        t, r, theta = parsed["trajectory.csv"][-1][:3]
        if abs(t - 1.4) > 1e-12 or abs(r - math.cos(t)) > 1e-8 or abs(theta - math.tan(t)) > 1e-8:
            problems.append(f"last row t={t!r}, r={r!r}, theta={theta!r} is off r=cos t, theta=tan t")
    return problems


class Runner:
    """Runs passes of one workload and checks every op."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.ops = WORKLOADS[workload]
        self.seed = seed
        self.out = OUT / workload
        self.speed = HostSpeed()
        self.first = {}  # op -> (exit code, {report name: bytes}) of its first repetition
        self.misses = {}  # op -> set of reasons it failed
        self.problems = set()  # findings that are not about one op
        self.notes = set()
        self.attempted = 0
        self.failed = 0

    def _check(self, op: Op, rc, out: Path) -> int:
        """Check one op; returns the size of its reports in bytes.

        Any reason fails the op.  Only a verdict, exit 1 with reports that
        say the check did not pass, leaves the run's output correct."""
        reasons = []
        if rc != 0:
            reasons.append(f"exit {rc}")
        reports = {}
        for name in op.reports:
            try:
                reports[name] = (out / name).read_bytes()
            except OSError:
                reasons.append(f"no {name}")
        if op in self.first:
            first_rc, first = self.first[op]
            if rc != first_rc:
                reasons.append(f"exit code differs from the first repetition ({first_rc})")
            reasons += [
                f"{name} differs from the first repetition"
                for name, data in reports.items()
                if data != first[name]
            ]
        elif len(reports) == len(op.reports):
            try:
                parsed = {name: _parse_report(out / name, data) for name, data in reports.items()}
            except ValueError as exc:
                reasons.append(f"unparseable report: {exc}")
            else:
                self.first[op] = (rc, reports)
                reasons += _content_problems(op, rc, parsed)
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.misses.setdefault(op, set()).update(reasons)
        return sum(len(data) for data in reports.values())

    def run_pass(self) -> dict:
        """One pass over the command list.  Returns the pass time and the
        time of each command kind at the reference host speed, the raw
        wall time and the bytes of all reports."""
        times = dict.fromkeys(KINDS, 0.0)
        nbytes = 0
        wall = 0.0
        with self.speed:
            for op in self.ops:
                out = op.fresh_out(self.out)
                argv = op.argv(self.seed, out)
                sink = io.StringIO()
                self.speed.sample()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    start = time.perf_counter()
                    try:
                        rc = self.cli.main(argv)
                    except Exception:
                        rc = "exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
                    end = time.perf_counter()
                self.speed.sample()
                wall += end - start
                times[op.command] += self.speed.scaled(start, end)
                nbytes += self._check(op, rc, out)
        return {
            "pass_s": sum(times.values()),
            "wall_s": wall,
            "report_bytes": nbytes,
            **{f"{k}_s": v for k, v in times.items()},
        }

    @property
    def correct(self) -> bool:
        return not self.problems and all(reasons <= {"exit 1"} for reasons in self.misses.values())


def untraced(runner: Runner, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return passes


def traced(runner: Runner, seconds: float):
    """Alternate untraced and traced passes; returns both lists."""
    from tracer import Tracer, counters

    plain, layered = [], []
    start = time.perf_counter()
    while not layered or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        tracer = Tracer()
        tracer.install()
        try:
            record = runner.run_pass()
        finally:
            tracer.uninstall()
        # self times to the reference host speed, like the pass itself
        factor = record["pass_s"] / record["wall_s"]
        layers = {
            name: value * factor if name.endswith("self_s") else value
            for name, value in tracer.layers().items()
        }
        layers["cli.report_bytes"] = record["report_bytes"]
        if layered and counters(layers) != counters(layered[0][1]):
            runner.problems.add("counters differ between traced passes")
        if tracer.missing:
            runner.notes.add("not traced, gone from the package: " + ", ".join(tracer.missing))
        layered.append((record, layers))
    return plain, layered


def median_of(rows, key) -> float:
    return statistics.median(row.get(key, 0) for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    cli = import_package()
    ops = WORKLOADS[args.workload]
    runner = Runner(cli, args.workload, args.seed)
    lines = []
    if args.trace == 0:
        configs = sorted({op.config for op in ops})
        setups = setup_times(configs, SETUP_STARTS // 2)
        passes = untraced(runner, args.seconds)
        setups += setup_times(configs, SETUP_STARTS - SETUP_STARTS // 2)
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": median_of(passes, "pass_s"),
            "verify_s": median_of(passes, "verify_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        for kind in ("simulate", "orbit", "linearize"):
            if any(op.command == kind for op in ops):
                lines.append(f"{kind + '_s':<34} {median_of(passes, kind + '_s'):.6f} s")
        lines.append(f"{'pass wall time, unscaled':<34} {median_of(passes, 'wall_s'):.6f} s")
        lines.append(f"{'passes':<34} {len(passes)}")
    else:
        plain, layered = traced(runner, args.seconds)
        records = [layers for _, layers in layered]
        metrics = {name: median_of(records, name) for name in PER_LAYER}
        metrics["trace.overhead_s"] = median_of(
            [record for record, _ in layered], "pass_s"
        ) - median_of(plain, "pass_s")
        for kind in ("simulate", "orbit", "linearize"):
            metrics[kind + "_s"] = median_of(plain, kind + "_s")
        units = PER_LAYER
        base = median_of(records, "integrate.steps_attempted")
        lines.append(f"{'integrate.accept_ratio base':<34} {base:g} attempted steps")
        lines.append(f"{'passes':<34} {len(plain)} untraced, {len(layered)} traced")
    lines.append(f"{'fail_ratio':<34} {runner.failed}/{runner.attempted} ops")
    for op, reasons in runner.misses.items():
        lines.append(f"  failed {op.name}: {'; '.join(sorted(reasons))}")
    lines += sorted(runner.problems | runner.notes)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name:<34} {value:.6g} {units[name]}")
    print("\n".join(lines))
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
