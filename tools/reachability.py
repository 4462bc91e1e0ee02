#!/usr/bin/env python3
"""List the package's functions that no command enters.

    python3 tools/reachability.py --seed N

It runs ``tools/report_digests.py --seed N`` (every command on the shipped
configs, the class-2 stress config and the digest tool's variants) in this
process under ``sys.setprofile``, with the digest listing suppressed, and
records every code object that was called.  Then it prints each function
and method defined in ``src/ermakov/*.py``, nested ones included, whose
code was never entered: its line count and its name as
``module.qualname`` (``<locals>`` marks a function nested in another),
ordered by module and line, and a total.  A definition is matched to the
code objects run by its file and first line, decorators included, which
is the ``co_firstlineno`` of its code.

Error paths, ``__repr__``s and library surface that no command reaches
make up the listing; a name on it is a candidate for removal only when
no test needs it either.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ermakov"


def definitions(path: Path):
    """(first line, line count, qualname) of every function and method in
    the file at path, in source order."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((first, child.end_lineno - first + 1, name))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sorted(found)


def entered_during(run) -> set:
    """(file, first line) of every Python code object called while run()
    runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in seen}


def unreached(seed: int) -> list:
    """(module, first line, line count, qualname) of each function of the
    package that the digest run at seed never enters."""
    sys.path.insert(0, str(ROOT / "tools"))
    import report_digests

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            report_digests.main(["--seed", str(seed)])

    entered = entered_during(run)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        where = str(path.resolve())
        for first, count, name in definitions(path):
            if (where, first) not in entered:
                missed.append((path.stem, first, count, name))
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    missed = unreached(args.seed)
    for module, _, count, name in missed:
        print(f"{count:5d}  {module}.{name}")
    print(f"{sum(count for *_, count, _ in missed):5d}  total, {len(missed)} functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
