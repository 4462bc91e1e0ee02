#!/usr/bin/env python3
"""Time each ermakov command from a cold start, as a fresh process.

    python3 tools/cold_starts.py [--runs N] [ROOT ...]

Each ROOT is a checkout (default: this one).  Its ``src/`` is copied into
a temporary directory twice: once as it is, run with bytecode off (the
copy holds no ``__pycache__`` and ``-B`` writes none), and once compiled
with ``compileall`` first, run with bytecode on, as a ``pip install``
leaves the package.  Every start runs the console script's code,
``from ermakov.cli import main; sys.exit(main())``, on the checkout's
``configs/spiral.json``, for ``bare`` (an interpreter that imports
nothing of the package, for reference), ``simulate``, ``verify --which
jacobi``, ``orbit`` and ``linearize``.

A round starts every command once per mode and root; the roots take
turns going first from one round to the next, so that parent and change
share the host's drift.  Each row gives, over N rounds, the median wall
time of a start (spawn to reaping) and the median of that process's own
maximum resident set size, which ``os.wait4`` reports for the child.  A
child's maximum starts from the size of the process that spawned it, so
the starts are spawned by a helper interpreter run with ``-I -S``, which
is smaller than any of them.  A command that exits nonzero stops the
tool.  POSIX only.
"""

from __future__ import annotations

import argparse
import compileall
import marshal
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {
    "bare": None,
    "simulate": ("simulate",),
    "verify jacobi": ("verify", "--which", "jacobi"),
    "orbit": ("orbit",),
    "linearize": ("linearize",),
}
MODES = ("bytecode off", "bytecode on")
SCRIPT = "import sys\nfrom ermakov.cli import main\nsys.exit(main())"
# ru_maxrss is in KiB on Linux and in bytes on macOS
RSS_PER_MB = 1024.0 * (1024.0 if sys.platform == "darwin" else 1.0)


# spawns each (argv, env) it reads, in turn, and writes back each one's
# wall seconds, exit code and ru_maxrss; marshal is built in, so the
# helper stays small
SPAWNER = """
import marshal, os, sys, time
null = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]
done = []
for argv, env in marshal.load(sys.stdin.buffer):
    begin = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=null)
    _, status, usage = os.wait4(pid, 0)
    done.append((time.perf_counter() - begin, os.waitstatus_to_exitcode(status), usage.ru_maxrss))
marshal.dump(done, sys.stdout.buffer)
"""


def spawn_all(jobs: list) -> list:
    """Wall seconds and max RSS in MB of one process for each (argv, env)
    of jobs, run one at a time in order."""
    helper = [sys.executable, "-I", "-S", "-c", SPAWNER]
    done = subprocess.run(helper, input=marshal.dumps(jobs), capture_output=True, check=True)
    results = []
    for (argv, _), (wall, code, maxrss) in zip(jobs, marshal.loads(done.stdout)):
        if code != 0:
            raise SystemExit(f"cold_starts: {argv[1:]} exited {code}")
        results.append((wall, maxrss / RSS_PER_MB))
    return results


def prepare(root: Path, into: Path) -> dict:
    """The argv and environment of every (mode, command) of root, with
    root's src/ copied under into, once plain and once compiled."""
    config = str(root / "configs" / "spiral.json")
    out = into / "out"
    starts = {}
    for mode in MODES:
        src = into / mode.replace(" ", "_")
        shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mode == "bytecode on":
            compileall.compile_dir(src, quiet=1)
        env = dict(os.environ, PYTHONPATH=str(src))
        flags = ["-B"] if mode == "bytecode off" else []
        for name, command in COMMANDS.items():
            if command is None:
                argv = [sys.executable, *flags, "-c", "pass"]
            else:
                args = [*command, "--config", config, "--out", str(out)]
                argv = [sys.executable, *flags, "-c", SCRIPT, *args]
            starts[mode, name] = (argv, env)
    return starts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", type=Path, default=[ROOT], help="checkouts to time")
    parser.add_argument("--runs", type=int, default=10, help="rounds (default: 10)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    roots = [root.resolve() for root in args.roots]

    with tempfile.TemporaryDirectory(prefix="cold_starts_") as tmp:
        starts = [prepare(root, Path(tmp) / str(i)) for i, root in enumerate(roots)]
        samples = {key: [[] for _ in roots] for key in starts[0]}
        for round_no in range(args.runs):
            order = list(enumerate(starts))
            if round_no % 2:
                order.reverse()
            jobs = [(key, i) for key in samples for i, _ in order]
            results = spawn_all([starts[i][key] for key, i in jobs])
            for (key, i), result in zip(jobs, results):
                samples[key][i].append(result)

    for i, root in enumerate(roots):
        print(f"root {i}: {root}")
    print(f"{'mode':<13} {'command':<14} {'root':>4} {'wall_ms':>8} {'max_rss_mb':>10}")
    for (mode, name), by_root in samples.items():
        for i, runs in enumerate(by_root):
            wall = statistics.median(w for w, _ in runs) * 1e3
            rss = statistics.median(r for _, r in runs)
            print(f"{mode:<13} {name:<14} {i:>4} {wall:>8.1f} {rss:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
