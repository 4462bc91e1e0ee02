"""``tools/reachability.py`` run in a fresh interpreter: it exits 0, each
function it lists is one that ``src/ermakov`` defines, each statement it
lists is a line of the package, printed as it reads, and what every
digest run executes is not listed, nor is any statement of ``verify`` or
any method of ``Class2Phi``."""

import importlib
import subprocess
import sys
import types
from functools import cached_property
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "reachability.py"


def _unwrap(obj):
    if isinstance(obj, property):
        return obj.fget
    if isinstance(obj, cached_property):
        return obj.func
    if isinstance(obj, (staticmethod, classmethod)):
        return obj.__func__
    return getattr(obj, "__wrapped__", obj)


def _resolve(module: str, qualname: str):
    """The function or nested code object that ``module.qualname`` names
    in the package; KeyError or StopIteration when there is none."""
    obj = importlib.import_module(f"ermakov.{module}")
    for part in qualname.split("."):
        if part == "<locals>":
            obj = getattr(obj, "__code__", obj)
        elif isinstance(obj, types.CodeType):
            obj = next(
                c for c in obj.co_consts if isinstance(c, types.CodeType) and c.co_name == part
            )
        else:
            obj = _unwrap(vars(obj)[part])
    return obj


def test_every_unreached_name_is_a_package_function():
    done = subprocess.run(
        [sys.executable, str(_TOOL), "--seed", "3"],
        capture_output=True, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    split = next(i for i, row in enumerate(out) if row.split()[1:2] == ["total,"])
    *rows, total = out[: split + 1]
    listed = [row.split() for row in rows]
    assert listed, "a digest run leaves some error path unreached"
    assert total == f"{sum(int(count) for count, _ in listed):5d}  total, {len(listed)} functions"
    *statements, count = out[split + 1 :]
    assert count == f"{len(statements)} statements"
    sources, marked = {}, set()
    for row in statements:
        where, text = row.split("  ", 1)
        module, line = where.split(":")
        if module not in sources:
            path = _ROOT / "src" / "ermakov" / f"{module}.py"
            sources[module] = path.read_text(encoding="utf-8").splitlines()
        assert sources[module][int(line) - 1].strip() == text, row
        marked.add((module, int(line)))
    assert len(marked) == len(statements)
    # the digest runs take every statement of verify, its draw and its
    # refusals included, so a listing that holds one recorded no trace
    assert [line for module, line in marked if module == "verify"] == []
    # Class2Phi's entries are the ones the commands call: none is kept for tests alone
    assert [name for _, name in listed if name.startswith("systems.Class2Phi.")] == []
    for count, name in listed:
        module, qualname = name.split(".", 1)
        obj = _resolve(module, qualname)
        assert isinstance(obj, (types.FunctionType, types.CodeType)), name
        assert int(count) > 0
        # a function never entered ran none of its statements
        code = getattr(obj, "__code__", obj)
        body = {line for *_, line in code.co_lines() if line != code.co_firstlineno}
        assert any((module, line) in marked for line in body), name
