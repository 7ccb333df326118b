"""How a request process ends.

`cli.entry` is the one process entry (`python -m mirahall.cli` and the
`mirahall` console script): `main()`, then `gc.freeze()`, then
`sys.exit` with main's status.  The freeze moves the whole heap out of
the collector's reach, so interpreter shutdown runs no collection pass
over it; teardown still frees every object by reference count.  A cycle
left behind is then never freed, so the table builds that a request
runs must leave no cyclic garbage: the recursive enumeration of
`traces` is a module-level function, not a closure that calls itself
(each call of such a closure leaves a function-cell cycle).

`main()` itself never freezes: the tests, `perfbench/traced.py` and
the import-boundary children call it in process.  The entry is tested
here with `gc.freeze` and `sys.exit` patched, so the pytest process is
never frozen, and end to end in fresh interpreters.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from mirahall import (
    affine,
    artifacts,
    bimodule,
    cli,
    closedform,
    hall,
    laurent,
    partitions,
    serve_green,
    serve_hall,
    serve_iwahori,
    serve_mhl,
    serve_mirabolic,
    serve_pi,
    serve_trace,
    symfunc,
    traces,
)
from mirahall.config import parse_bipartition

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())["digests"]


def _clear_caches():
    for module in (affine, artifacts, bimodule, closedform, hall, laurent, partitions,
                   symfunc, traces):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


# the payload of each request of perfbench's cold-tables workload, and
# three larger builds of the tables that once left cycles
BUILDS = {
    "pi --n 4": lambda: serve_pi.payload(4, 4),
    "mhl --n 3": lambda: serve_mhl.payload(3, 3),
    "trace --n 3 --q 3": lambda: serve_trace.payload(3, 3),
    "hall --x 2 --y 1,1": lambda: serve_hall.payload((2,), (1, 1), 3),
    "mirabolic --src 2,1|1 --r 2": lambda: serve_mirabolic.payload(
        parse_bipartition("2,1|1"), 2, "left", 6),
    "mirabolic --src 2|1 --r 1 --side right": lambda: serve_mirabolic.payload(
        parse_bipartition("2|1"), 1, "right", 4),
    "green --n 2 --q 3": lambda: serve_green.payload(2, 3),
    "iwahori mult --N 2": lambda: serve_iwahori.payload(2, 2),
    "pi --n 6": lambda: serve_pi.payload(6, 6),
    "mhl --n 5": lambda: serve_mhl.payload(5, 5),
    "green --n 4 --q 5": lambda: serve_green.payload(4, 5),
}


@pytest.mark.parametrize("name", BUILDS)
def test_a_cold_build_and_its_renders_leave_no_cyclic_garbage(name):
    _clear_caches()
    gc.collect()
    gc.disable()
    try:
        tree = BUILDS[name]()
        for fmt in ("json", "csv", "latex"):
            artifacts.render(tree, fmt)
        unreachable = gc.collect()
    finally:
        gc.enable()
        _clear_caches()
    assert unreachable == 0


def test_entry_freezes_once_after_main_returns_then_exits(monkeypatch):
    events = []

    def main():
        events.append("main")
        return 3

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "exit", lambda status: events.append(("exit", status)))
    cli.entry()
    assert events == ["main", "freeze", ("exit", 3)]


def test_main_never_freezes(tmp_path, capsys):
    before = gc.get_freeze_count()
    argv = ["pi", "--n", "2", "--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv) == 0  # built
    assert cli.main(argv) == 0  # served from the cache
    assert cli.main(["mhl", "--n", "3", "--N", "2"]) == 2
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_the_console_script_is_the_entry():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"mirahall": "mirahall.cli:entry"}


def _env(tmp_path) -> dict:
    env = dict(os.environ, MIRAHALL_CACHE_DIR=str(tmp_path / "env-cache"), COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _request(tmp_path, *argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "mirahall.cli", *argv], env=_env(tmp_path),
                          capture_output=True, timeout=120)


# the heap is frozen by the time the process exits through the __main__ block
FROZEN_AT_EXIT = """
import gc, runpy, sys
try:
    runpy.run_module("mirahall.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("frozen=%d" % (gc.get_freeze_count() > 0))
"""


def test_the_main_block_freezes_the_heap_before_it_exits(tmp_path):
    done = subprocess.run([sys.executable, "-c", FROZEN_AT_EXIT, "mhl", "--n", "3", "--N", "2"],
                          env=_env(tmp_path), capture_output=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.endswith(b"frozen=1")


def test_served_requests_keep_their_exit_codes_and_bytes(tmp_path):
    argv = ("pi", "--n", "4", "--format", "csv")
    digest = REFERENCE[" ".join(argv)]
    cache_dir = ["--cache-dir", str(tmp_path / "cache")]
    for _ in ("cold miss", "hit"):
        done = _request(tmp_path, *argv, *cache_dir)
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == digest
    out = tmp_path / "pi.csv"
    done = _request(tmp_path, *argv, *cache_dir, "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("frobnicate",), 2),  # argparse's usage error
    (("mhl", "--n", "3", "--N", "2"), 2),  # the front's usage error
    (("trace", "--n", "100000", "--q", "3"), 1),  # refused by a cost guard
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else None)
def test_help_and_refusals_keep_their_exit_codes_and_bytes(tmp_path, monkeypatch, capsys,
                                                           argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(list(argv)) == code
    captured = capsys.readouterr()
    done = _request(tmp_path, *argv)
    assert done.returncode == code
    assert done.stdout.decode() == captured.out and done.stderr.decode() == captured.err
    if code == 1:
        assert captured.err.startswith("mirahall: CostGuard: ") and captured.out == ""
