#!/usr/bin/env python3
"""Compare this checkout with a parent revision on the benchmark.

    python3 tools/bench_pairs.py --parent REV [--change REV] [--seconds S] --out FILE

The parent (and ``--change``, when given; otherwise the files of this
checkout as they are) is extracted with ``git archive REV | tar -x`` into
a temporary directory.  Then, on each side's own ``bench/run.py``:

* ``--trace 0`` runs for every workload over seeds 11-20, alternating the
  sides: odd seeds run the parent first, even seeds the change.  Only the
  last line of each run, its JSON result, is read;
* one ``--trace 1`` run per side and workload at seed 3, whose counters
  (metrics counted in calls, samples, steps or bytes, and the step accept
  ratio) must be equal;
* ``tools/report_digests.py`` of this checkout, on both sides, at seeds 3
  and 20260823, whose listings must be equal;
* the line count of ``src/ermakov/*.py`` on both sides, as ``wc -l``
  counts it, for the source-size budget.

FILE gets both revisions (the change side as ``worktree``, with HEAD as
``change_base``, when this checkout has uncommitted files), the per-pair values of every end-to-end metric
with each side's median and quartiles, the number of pairs in which the
change is better, and two verdicts per metric.  ``gain``: the change is
better in at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range.  ``within_bound``: the
change's median is worse than the parent's by no more than the metric's
``bound`` in ``BENCHMARK.json``, as a fraction of the parent's median.
Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(11, 21)
TRACE_SEED = 3
DIGEST_SEEDS = (3, 20260823)
COUNTER_UNITS = ("count", "bytes", "ratio")


def _git(*args, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def revisions(parent: str, change: str | None, root: Path = ROOT) -> dict:
    """The hashes of both sides.  Without ``change`` the change side is the
    checkout at root as it is: HEAD's hash, or ``"worktree"`` with HEAD's
    hash as ``change_base`` when ``git status --porcelain`` lists a file."""
    found = {"parent": _git("rev-parse", parent, cwd=root)}
    if change:
        found["change"] = _git("rev-parse", change, cwd=root)
    elif _git("status", "--porcelain", cwd=root):
        found["change"], found["change_base"] = "worktree", _git("rev-parse", "HEAD", cwd=root)
    else:
        found["change"] = _git("rev-parse", "HEAD", cwd=root)
    return found


def extract(rev: str, into: Path) -> Path:
    """The files of rev under into, as ``git archive rev | tar -x`` writes them."""
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return into


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def digests(root: Path, tool: Path, seed: int) -> str:
    """The listing of tool, copied into root so that it reads root's src/."""
    target = root / "tools" / "report_digests.py"
    if target.resolve() != tool.resolve():
        target.parent.mkdir(exist_ok=True)
        shutil.copyfile(tool, target)
    argv = [sys.executable, str(target), "--seed", str(seed)]
    return subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True).stdout


def src_lines(root: Path) -> int:
    """Lines of root's src/ermakov/*.py, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "ermakov").glob("*.py"))


def _quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles and the two verdicts of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    q_parent, q_change = _quartiles(parent), _quartiles(change)
    gap = sign * (q_parent[1] - q_change[1])
    worse = -gap / abs(q_parent[1]) if q_parent[1] else (math.inf if gap < 0.0 else 0.0)
    return {
        "parent": parent,
        "change": change,
        "parent_quartiles": q_parent,
        "change_quartiles": q_change,
        "pairs": len(parent),
        "change_better_in": wins,
        "median_gap": gap,
        "parent_iqr": q_parent[2] - q_parent[0],
        "gain": wins >= math.ceil(0.9 * len(parent)) and gap > q_parent[2] - q_parent[0],
        "relative_worsening": worse,
        "bound": bound,
        "within_bound": worse <= bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", help="revision of the change (default: this checkout)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    tool = ROOT / "tools" / "report_digests.py"
    revs = revisions(args.parent, args.change)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": extract(args.parent, Path(tmp) / "parent")}
        sides["change"] = extract(args.change, Path(tmp) / "change") if args.change else ROOT
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for workload in workloads:
            for seed in SEEDS:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    result = run_bench(sides[side], workload, seed, seconds, 0)
                    runs[workload][side].append(result)
                    print(f"{workload} seed {seed} {side}: "
                          f"setup_s {result['metrics']['setup_s']['value']:.4f}", file=sys.stderr)
        traced = {
            w: {side: run_bench(sides[side], w, TRACE_SEED, seconds, 1) for side in sides}
            for w in workloads
        }
        listings = {
            seed: {side: digests(sides[side], tool, seed) for side in sides}
            for seed in DIGEST_SEEDS
        }
        lines = {side: src_lines(root) for side, root in sides.items()}

    end_to_end = {}
    for workload, by_side in runs.items():
        end_to_end[workload] = {
            name: verdict(
                *([r["metrics"][name]["value"] for r in by_side[side]] for side in sides),
                metric["better"], metric["bound"],
            )
            for name, metric in metrics.items()
        }
        end_to_end[workload]["failed_ops"] = {
            side: [r["failed"] for r in by_side[side]] for side in sides
        }
        end_to_end[workload]["correct"] = {
            side: all(r["correct"] for r in by_side[side]) for side in sides
        }
    counter_diffs = {}
    for workload, by_side in traced.items():
        values = {
            side: {n: m["value"] for n, m in r["metrics"].items() if m["unit"] in COUNTER_UNITS}
            for side, r in by_side.items()
        }
        counter_diffs[workload] = {
            name: {side: values[side].get(name) for side in sides}
            for name in sorted(values["parent"].keys() | values["change"].keys())
            if values["parent"].get(name) != values["change"].get(name)
        }
    doc = {
        "revisions": revs,
        "python": sys.version.split()[0],
        "seconds": seconds,
        "seeds": list(SEEDS),
        "end_to_end": end_to_end,
        "trace_seed": TRACE_SEED,
        "counter_differences": counter_diffs,
        "digests_equal": {
            str(seed): by_side["parent"] == by_side["change"] for seed, by_side in listings.items()
        },
        "src_lines": lines,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for workload, table in end_to_end.items():
        for name in metrics:
            row = table[name]
            print(f"{workload:<18} {name:<12} parent {row['parent_quartiles'][1]:.4g} "
                  f"change {row['change_quartiles'][1]:.4g} better in "
                  f"{row['change_better_in']}/{row['pairs']} gain {row['gain']} "
                  f"within bound {row['within_bound']}")
    print(f"counter differences: {counter_diffs}")
    print(f"digests equal: {doc['digests_equal']}")
    print(f"src lines: {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
