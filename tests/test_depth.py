"""Input depth is a usage limit, never a crash.  Every walk over terms,
formulas and component trees recurses, so the process entry of the CLI runs
its command on a 512 MiB stack with a recursion limit of 200,000.  A
`RecursionError` that still escapes exits 3 with an `error:` line naming the
limit, never 4 (`internal failure`).  From Python 3.12 on the interpreter
also has a fixed guard on C recursion, which a long left-deep term reaches
through `type_of`, so there a deep input may still exit 3."""

import importlib.util
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import rcrs
from rcrs.cli import main
from rcrs.dlsolver import on_deep_stack

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(rcrs.__file__).resolve().parent.parent)
LIMIT_MESSAGE = "error: input nested too deeply for the recursion limit"

# stateless_det((x:int), true, (x + 1 + ... + 1)) with 3,000 terms
CHAIN = "component C = stateless_det((x:int), true, (x" + " + 1" * 2999 + "))\n"
# a contract nested in 450 brackets
BRACKETS = "component C = stateless((x:int), (y:int), " + "(" * 450 + "y >= x" + ")" * 450 + ")\n"


def _random_diagram(n_blocks: int) -> dict:
    spec = importlib.util.spec_from_file_location("generators", ROOT / "perfbench" / "generators.py")
    generators = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generators)
    return generators.random_diagram(random.Random(0), n_blocks)


def _entry(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "rcrs.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )


def _assert_deep_ok(proc: subprocess.CompletedProcess):
    if sys.version_info < (3, 12) or proc.returncode != 3:
        assert proc.returncode == 0, proc.stderr
    else:
        assert proc.stderr.startswith(LIMIT_MESSAGE), proc.stderr


class TestProcessEntry:
    def test_translate_300_blocks(self, tmp_path):
        path = tmp_path / "d300.json"
        path.write_text(json.dumps(_random_diagram(300)))
        proc = _entry("translate", str(path))
        _assert_deep_ok(proc)
        assert proc.returncode or proc.stdout.startswith("component Translated = ")

    def test_450_nested_brackets(self, tmp_path):
        path = tmp_path / "brackets.rcrs"
        path.write_text(BRACKETS)
        proc = _entry("check", "valid", str(path))
        _assert_deep_ok(proc)

    @pytest.mark.parametrize("cmd", [["simplify"], ["check", "valid"], ["legal"]])
    def test_3000_term_chain(self, tmp_path, cmd):
        path = tmp_path / "chain.rcrs"
        path.write_text(CHAIN)
        proc = _entry(*cmd, str(path))
        _assert_deep_ok(proc)


def test_in_process_depth_exits_3(tmp_path, capsys):
    # a call that passes argv runs in place, under the caller's limit
    path = tmp_path / "chain.rcrs"
    path.write_text(CHAIN)
    assert main(["simplify", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"{LIMIT_MESSAGE} {sys.getrecursionlimit()}: ")


class TestDeepStack:
    def test_result_and_limit(self):
        limit = sys.getrecursionlimit()
        assert on_deep_stack(sys.getrecursionlimit) == 200_000
        assert sys.getrecursionlimit() == limit and threading.stack_size() == 0

    def test_exception_reaches_the_caller(self):
        limit = sys.getrecursionlimit()
        with pytest.raises(KeyError):
            on_deep_stack(dict().__getitem__, "x")
        assert sys.getrecursionlimit() == limit and threading.stack_size() == 0

    def test_in_place_when_no_thread_starts(self, monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        limit = sys.getrecursionlimit()
        assert on_deep_stack(lambda: (threading.current_thread(), sys.getrecursionlimit())) == (
            threading.current_thread(),
            limit,
        )
        assert threading.stack_size() == 0
