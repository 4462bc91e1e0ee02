"""``tools/reachability.py`` run in a fresh interpreter: it exits 0, and
each function it lists is one that ``src/ermakov`` defines."""

import importlib
import subprocess
import sys
import types
from functools import cached_property
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


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
    *rows, total = done.stdout.splitlines()
    listed = [row.split() for row in rows]
    assert listed, "a digest run leaves some error path unreached"
    assert total == f"{sum(int(count) for count, _ in listed):5d}  total, {len(listed)} functions"
    for count, name in listed:
        module, qualname = name.split(".", 1)
        obj = _resolve(module, qualname)
        assert isinstance(obj, (types.FunctionType, types.CodeType)), name
        assert int(count) > 0
