#!/usr/bin/env python3
"""Determinism and fidelity check for the benchmark.

    python3 bench/check.py --workload NAME --seed N

Two checks, both must hold (exit 0; otherwise exit 1):

* Two traced runs of ``run.py`` in separate processes give identical
  deterministic counters (calls, builds, quadrature samples, failures,
  integrator steps and f-evals, report bytes).
* The reports written by one untraced in-process pass are byte-identical,
  with the same exit code, to those of a plain ``python3 -m ermakov.cli``
  run of the same command.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import OUT, ROOT, SRC, WORKLOADS, Runner, import_package
from tracer import counters


def traced_counters(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    done = subprocess.run(argv, check=True, capture_output=True, text=True, cwd=ROOT)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run of {workload} is not correct:\n{done.stdout}")
    return counters({name: m["value"] for name, m in result["metrics"].items()})


def cli_mismatches(workload: str, seed: int) -> list:
    runner = Runner(import_package(), workload, seed)
    runner.run_pass()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    problems = []
    for op in runner.ops:
        out = op.fresh_out(OUT / "cli" / workload)
        done = subprocess.run([sys.executable, "-m", "ermakov.cli", *op.argv(seed, out)],
                              capture_output=True, cwd=ROOT, env=env)
        if op not in runner.first:
            problems.append(f"{op.name}: in-process run wrote no usable reports")
            continue
        rc, reports = runner.first[op]
        if done.returncode != rc:
            problems.append(f"{op.name}: exit {done.returncode} on the command line, {rc} in-process")
        for name, data in reports.items():
            path = out / name
            if not path.is_file() or path.read_bytes() != data:
                problems.append(f"{op.name}: {name} differs from the command line run")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)

    first = traced_counters(args.workload, args.seed)
    second = traced_counters(args.workload, args.seed)
    problems = [f"{name}: {first[name]} then {second.get(name)}"
                for name in first if first[name] != second.get(name)]
    for name in sorted(first):
        print(f"{name:<34} {first[name]:>12g} {second.get(name, float('nan')):>12g}")
    problems += cli_mismatches(args.workload, args.seed)
    for problem in problems:
        print("MISMATCH", problem)
    print(f"check {args.workload} seed {args.seed}: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
