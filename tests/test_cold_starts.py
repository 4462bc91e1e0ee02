"""``tools/cold_starts.py --runs 1`` run in a fresh interpreter: it exits 0
and prints one row per mode and command with a positive wall time and
max RSS."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "cold_starts.py"


def test_one_round_times_every_command_in_both_modes():
    done = subprocess.run(
        [sys.executable, str(_TOOL), "--runs", "1"],
        capture_output=True, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    root, header, *rows = done.stdout.splitlines()
    assert root == f"root 0: {_ROOT}"
    assert header.split() == ["mode", "command", "root", "wall_ms", "max_rss_mb"]
    modes = ("bytecode off", "bytecode on")
    commands = ("bare", "simulate", "verify jacobi", "orbit", "linearize")
    expected = [f"{mode} {command}" for mode in modes for command in commands]
    assert [" ".join(row.split()[:-3]) for row in rows] == expected
    for row in rows:
        index, wall, rss = row.split()[-3:]
        assert index == "0" and float(wall) > 0.0 and float(rss) > 0.0
