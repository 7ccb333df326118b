"""Serving requests never load the counting engine, and run only the
table code they reach.

The counting oracles (`oracle`, `pairs`, `gf`), the verify suites
(`checks`) and numpy are for `verify` and the tests, and the standard
modules that only they need (`fractions`, and `dataclasses`, which
pulls in `inspect`) would cost every request their import.  Each
serving request of the benchmark's workloads runs in a fresh
interpreter here, which checks that neither `import mirahall.cli` nor
the request itself loads them.

The payload builders and renderers (`artifacts`), the exact kernel
(`laurent`, `partitions`), the cost guards (`costs`) and the table
modules (TABLE_MODULES) are registered lazily by `mirahall.cli`: each
is in `sys.modules` from import on, and its body runs at its first
attribute access.  A request served from a stored artifact, in any
format and of any kind, `--help` and an `mhl` below its size (a usage
error) are checked to run none of them and to leave `json` (and, for a
hit, `__future__`) unimported;
a csv or latex request rendered from the stored json artifact (which
runs `artifacts` and skips the cost guard, so runs neither `costs` nor
`partitions`), a request refused by a cost guard, and a cold `iwahori
mult` (whose guard counts no labels, and whose table needs only
`affine` and `laurent`) to leave the modules they do not need unrun.
Every cold request runs `artifacts` and its guard in `costs`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

COUNTING = (
    "numpy",
    "mirahall.pairs",
    "mirahall.gf",
    "mirahall.oracle",
    "mirahall.checks",
    "dataclasses",
    "fractions",
)

CHILD = """
import json, sys
COUNTING = %r
loaded = lambda: [m for m in COUNTING if m in sys.modules]
import mirahall.cli
at_import = loaded()
code = mirahall.cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "import": at_import, "request": loaded()}, fh)
""" % (COUNTING,)

SERVING = workloads.COLD_TABLES + (workloads.WARM_RIGHT, ("--help",))


def _run(child: str, argv, cache_dir: Path) -> dict:
    """Run `child` in a fresh interpreter with REPORT and `argv`, and
    return the JSON it wrote to REPORT."""
    report = cache_dir.parent / "report.json"
    env = dict(os.environ, MIRAHALL_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, "-c", child, str(report), *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        check=True, timeout=120,
    )
    return json.loads(report.read_text())


@pytest.mark.parametrize("argv", SERVING, ids=lambda a: " ".join(a[:3]))
def test_serving_request_loads_no_counting_module(argv, tmp_path):
    got = _run(CHILD, argv, tmp_path / "cache")
    assert got == {"code": 0, "import": [], "request": []}


TABLE_MODULES = ("affine", "bimodule", "closedform", "hall", "symfunc", "traces")
LAZY_MODULES = TABLE_MODULES + ("laurent", "partitions", "costs", "artifacts")

# Each lazily registered module's state after one request: "lazy"
# (registered, body not run), "ran" or "absent".  type() reads no
# attribute of the module, so it does not run a lazy one.  Whether the
# request loaded `json` is read before this child imports it.
STATES = """
import sys, types
import mirahall.cli
code = mirahall.cli.main(sys.argv[2:])
states = {}
for name in %r:
    module = sys.modules.get("mirahall." + name)
    if module is None:
        states[name] = "absent"
    else:
        states[name] = "ran" if type(module) is types.ModuleType else "lazy"
loaded_json = "json" in sys.modules
import json
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "states": states, "json": loaded_json}, fh)
""" % (LAZY_MODULES,)

ALL_LAZY = {name: "lazy" for name in LAZY_MODULES}


# every table request is cached, the warm right mirabolic column too
CACHED = workloads.all_reference_argv()


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A cache holding every table's artifact in every format."""
    cache_dir = tmp_path_factory.mktemp("filled") / "cache"
    for argv in CACHED:
        assert _run(STATES, argv, cache_dir)["code"] == 0
    assert len(list(cache_dir.iterdir())) == len(CACHED)
    return cache_dir


@pytest.mark.parametrize("argv", CACHED, ids=" ".join)
def test_cached_request_runs_no_table_module(argv, filled_cache):
    assert _run(STATES, argv, filled_cache) == {"code": 0, "states": ALL_LAZY, "json": False}


# Whether a request loaded `__future__`, when the interpreter had not
# loaded it before `import mirahall.cli`.
FUTURE = """
import sys
before = "__future__" in sys.modules
import mirahall.cli
code = mirahall.cli.main(sys.argv[2:])
loaded = not before and "__future__" in sys.modules
import json
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "future": loaded}, fh)
"""


@pytest.mark.parametrize("argv", CACHED, ids=" ".join)
def test_cached_request_imports_no_future(argv, filled_cache):
    assert _run(FUTURE, argv, filled_cache) == {"code": 0, "future": False}


@pytest.fixture(scope="module")
def json_artifact_cache(tmp_path_factory):
    """A cache holding every table's json artifact and nothing else."""
    cache_dir = tmp_path_factory.mktemp("json-artifact") / "cache"
    for argv in workloads.COLD_TABLES:
        got = _run(STATES, workloads.with_format(argv, "json"), cache_dir)
        # a cold request passes its cost guard before any table work
        assert got["code"] == 0 and got["states"]["costs"] == "ran"
        assert got["states"]["artifacts"] == "ran"
    assert len(list(cache_dir.iterdir())) == len(workloads.COLD_TABLES)
    return cache_dir


@pytest.mark.parametrize(
    "argv",
    [workloads.with_format(a, f) for a in workloads.COLD_TABLES for f in ("csv", "latex")],
    ids=" ".join,
)
def test_payload_hit_runs_no_table_module(argv, json_artifact_cache):
    before = set(json_artifact_cache.iterdir())
    got = _run(STATES, argv, json_artifact_cache)
    # rendered from the parsed json artifact: the render reads laurent,
    # but not for green's text cells; the cost guard runs only when the
    # json artifact misses too, so costs and partitions are unrun
    laurent = "lazy" if argv[0] == "green" else "ran"
    assert got == {"code": 0, "states": dict(ALL_LAZY, laurent=laurent, artifacts="ran"),
                   "json": True}
    # an artifact miss: this request stored its own artifact
    assert len(set(json_artifact_cache.iterdir()) - before) == 1


def test_help_runs_no_lazy_module(tmp_path):
    got = _run(STATES, ("--help",), tmp_path / "cache")
    assert got == {"code": 0, "states": ALL_LAZY, "json": False}


def test_mhl_below_its_size_runs_no_lazy_module(tmp_path):
    # a usage error, raised on the front before the cache lookup
    got = _run(STATES, ("mhl", "--n", "5", "--N", "2"), tmp_path / "cache")
    assert got == {"code": 2, "states": ALL_LAZY, "json": False}


REFUSED = (
    ("pi", "--n", "10"),
    ("green", "--n", "9", "--q", "2"),
    ("hall", "--x", "13,1,1", "--y", "1", "--N", "16"),
    ("iwahori", "mult", "--N", "5", "--window", "1"),
    ("mirabolic", "--src", "8|8", "--r", "8"),
    ("mirabolic", "--src", "5,4|4,3", "--r", "6", "--side", "right"),
)


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_request_runs_no_table_module(argv, tmp_path):
    # every guard but iwahori's counts labels in partitions
    partitions = "lazy" if argv[0] == "iwahori" else "ran"
    assert _run(STATES, argv, tmp_path / "cache") == {
        "code": 1, "states": dict(ALL_LAZY, costs="ran", partitions=partitions, artifacts="ran"),
        "json": True}


def test_cold_iwahori_runs_only_affine(tmp_path):
    got = _run(STATES, ("iwahori", "mult", "--N", "2"), tmp_path / "cache")
    assert got == {"code": 0, "states": dict(
        ALL_LAZY, affine="ran", laurent="ran", costs="ran", artifacts="ran"), "json": True}
