"""``tools/report_digests.py``, run in a fresh interpreter, prints its
committed listing line for line.

``tests/data/report_digests_seed<N>.txt`` holds the tool's output at
``--seed N`` under one first line, ``# key: <interpreter> / <libc>``.  The
digests fold in ``math.sin``, ``cos``, ``exp`` and ``pow`` from the C
library, so a listing holds only where the key matches; on any other host
the test is skipped, and the skip reason names both keys.  A change that
moves a report on purpose rewrites the listing in the same commit and names
the change:

    (echo "# key: CPython 3.11.7 / glibc 2.36";
     python3 tools/report_digests.py --seed 3) > tests/data/report_digests_seed3.txt
"""

import platform
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "report_digests.py"
_DATA = Path(__file__).resolve().parent / "data"


def host_key() -> str:
    """This interpreter and its C library, as a listing's key names them."""
    libc, version = platform.libc_ver()
    interpreter = f"{platform.python_implementation()} {platform.python_version()}"
    return f"{interpreter} / {libc} {version}" if libc else f"{interpreter} / unknown libc"


def by_command(lines) -> dict:
    """Each command's line with the report lines under it, by its label
    (config and command, before ``: exit``)."""
    blocks = {}
    for line in lines:
        if line.startswith("    "):
            blocks[label].append(line)
        else:
            label = line.split(": exit", 1)[0]
            blocks[label] = [line]
    return blocks


@pytest.mark.parametrize("seed", [3, 20260823])
def test_reports_match_the_committed_listing(seed):
    key_line, *want = (_DATA / f"report_digests_seed{seed}.txt").read_text(
        encoding="utf-8"
    ).splitlines()
    key = key_line.removeprefix("# key: ")
    if key != host_key():
        pytest.skip(
            f"listing pinned to {key}, this host is {host_key()}: libm results "
            "differ across hosts, so its reports are not compared"
        )
    done = subprocess.run(
        [sys.executable, str(_TOOL), "--seed", str(seed)],
        capture_output=True, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = done.stdout.splitlines()
    if got != want:
        old, new = by_command(want), by_command(got)
        moved = [label for label in {**old, **new} if old.get(label) != new.get(label)]
        pytest.fail(
            f"seed {seed}: the lines of {len(moved)} command(s) moved from the committed listing:\n"
            + "\n".join(moved or ["(none: only their order changed)"])
        )
