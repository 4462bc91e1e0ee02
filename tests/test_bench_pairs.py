"""The revision labels of ``tools/bench_pairs.py``, read on a temporary
git repository; no benchmark runs."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(root: Path, *args) -> str:
    argv = ["git", "-c", "user.name=test", "-c", "user.email=test@example.com", *args]
    return subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_an_uncommitted_change_is_labelled_worktree(bench_pairs, tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "parent")
    parent = _git(tmp_path, "rev-parse", "HEAD")
    (tmp_path / "a.txt").write_text("two\n")
    _git(tmp_path, "commit", "-q", "-am", "change")
    head = _git(tmp_path, "rev-parse", "HEAD")

    # a clean checkout is its HEAD
    assert bench_pairs.revisions("HEAD~1", None, tmp_path) == {"parent": parent, "change": head}
    # an edited or an untracked file makes it the working tree, based on HEAD
    for edit in (tmp_path / "a.txt", tmp_path / "new.txt"):
        edit.write_text("three\n")
        assert bench_pairs.revisions(parent, None, tmp_path) == {
            "parent": parent, "change": "worktree", "change_base": head,
        }
        _git(tmp_path, "checkout", "-q", "--", "a.txt")
    # a named change is that revision, whatever the working tree holds
    assert bench_pairs.revisions(parent, "HEAD", tmp_path) == {"parent": parent, "change": head}
