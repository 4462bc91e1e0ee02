#!/usr/bin/env python3
"""List the package's functions that no command enters, then its
statements that no command executes.

    python3 tools/reachability.py --seed N

It runs ``tools/report_digests.py --seed N`` (every command on the shipped
configs, the class-2 stress config and the digest tool's variants) in this
process under ``sys.settrace``, with the digest listing suppressed, and
records every code object that was called and every line of the package
that ran.  Then it prints each function and method defined in
``src/ermakov/*.py``, nested ones included, whose code was never entered:
its line count and its name as ``module.qualname`` (``<locals>`` marks a
function nested in another), ordered by module and line, and a total.  A
definition is matched to the code objects run by its file and first line,
decorators included, which is the ``co_firstlineno`` of its code.

After the total it prints each statement of ``src/ermakov/*.py`` that
never ran, as ``module:line`` and the text of that line, ordered by module
and line, and their count.  A statement ran when any line of it ran; for
a compound statement (``if``, ``for``, ``def`` and the like) only its
header counts, its body being statements of their own.  Statements that
compile to no code, such as docstrings, are not listed.

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
import types
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


def statements(path: Path):
    """(first line, lines, text of the first line) of every statement in
    the file at path that compiles to code, in source order.  lines is the
    set of lines that belong to the statement itself: all of a simple
    statement's, and a compound statement's up to its body."""
    source = path.read_text(encoding="utf-8")
    compiled, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        compiled.update(line for *_, line in code.co_lines() if line is not None)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    text = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        lines = set(range(first, last + 1))
        if lines & compiled:
            found.append((node.lineno, lines, text[node.lineno - 1].strip()))
    return sorted(found, key=lambda row: row[0])


def entered_during(run) -> tuple:
    """(file, first line) of every Python code object called while run()
    runs, and (file, line) of every line of the package that ran."""
    seen, ran = set(), set()
    package = str(PACKAGE.resolve())

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def trace(frame, event, arg):
        seen.add(frame.f_code)
        return lines if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    entered = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in seen}
    return entered, {(str(Path(name).resolve()), line) for name, line in ran}


def unreached(seed: int) -> tuple:
    """(module, first line, line count, qualname) of each function of the
    package that the digest run at seed never enters, and (module, line,
    text) of each statement it never executes."""
    sys.path.insert(0, str(ROOT / "tools"))
    import report_digests

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            report_digests.main(["--seed", str(seed)])

    entered, ran = entered_during(run)
    missed, idle = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        where = str(path.resolve())
        for first, count, name in definitions(path):
            if (where, first) not in entered:
                missed.append((path.stem, first, count, name))
        for first, lines, text in statements(path):
            if not any((where, line) in ran for line in lines):
                idle.append((path.stem, first, text))
    return missed, idle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    missed, idle = unreached(args.seed)
    for module, _, count, name in missed:
        print(f"{count:5d}  {module}.{name}")
    print(f"{sum(count for *_, count, _ in missed):5d}  total, {len(missed)} functions")
    for module, line, text in idle:
        print(f"{module}:{line}  {text}")
    print(f"{len(idle)} statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
