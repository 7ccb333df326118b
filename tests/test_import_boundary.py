"""Serving requests never load the counting engine, and run only the
table code they reach.

The counting oracles (`oracle`, `pairs`, `gf`), the verify suites
(`checks`) and numpy are for `verify` and the tests, and the standard
modules that only they need (`fractions`, and `dataclasses`, which
pulls in `inspect`) would cost every request their import.  Each
serving request of the benchmark's workloads runs in a fresh
interpreter here, which checks that neither `import mirahall.cli` nor
the request itself loads them.

The renderers (`artifacts`), each subcommand's payload builder and
rows (SERVING, `serve_<subcommand>`), the exact kernel (`laurent`,
`combination`, `partitions`), the cost guards (`costs`) and the table
modules (TABLE_MODULES) are registered lazily by `mirahall.cli`: each
is in `sys.modules` from import on, and its body runs at its first
attribute access.  A request served from a stored artifact, in any
format and of any kind, `--help` and an `mhl` below its size (a usage
error) are checked to run none of them and to leave `json` (and, for a
hit, `__future__`) unimported;
a csv or latex request rendered from the stored json artifact (which
runs `artifacts` and its own rows and skips the cost guard, so runs
neither `costs` nor `partitions`), a request refused by a cost guard,
and every cold request of the benchmark to leave the modules they do
not need unrun.  A cold request runs `artifacts`, its own serving
module and no other, and its guard: in `costs`, and for `green` also in
`traces`, which no other request runs (so a `trace` miss runs only the
`pi` table); a `mirabolic` or `iwahori` miss runs no `combination`, and
no cold request loads `json` (an iwahori label's csv or latex cell, its
json text, is written without it).  Every module a cold request runs
was registered at import, so `perfbench/traced.py` wraps it.

The front reads canonical argv (exact flags, as every request here
sends them) from its option table and digests with the built-in
BLAKE2b, so no request here but `--help` loads argparse (with `gettext`
and `locale`), and none loads OpenSSL (`_hashlib`).  argparse also
reads an argv in any other form (prefixes, `-vv`, values that start
with "-"), which no request here sends.  Under `python3 -S`, where no
site `.pth` file preloads them, an artifact hit also loads no
`tempfile` or `typing`.
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

# the modules of argparse's text, and OpenSSL's hashes
TEXT = ("argparse", "gettext", "locale", "_hashlib")
HELP_TEXT = ["argparse", "gettext", "locale"]

CHILD = """
import json, sys
COUNTING, TEXT = %r, %r
loaded = lambda: [m for m in COUNTING if m in sys.modules]
import mirahall.cli
at_import = loaded()
code = mirahall.cli.main(sys.argv[2:])
text = [m for m in TEXT if m in sys.modules]
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "import": at_import, "request": loaded(), "text": text}, fh)
""" % (COUNTING, TEXT)

SERVING = workloads.COLD_TABLES + (workloads.WARM_RIGHT, ("--help",))


def _run(child: str, argv, cache_dir: Path, flags=()) -> dict:
    """Run `child` in a fresh interpreter (with `flags`) with REPORT and
    `argv`, and return the JSON it wrote to REPORT."""
    report = cache_dir.parent / "report.json"
    env = dict(os.environ, MIRAHALL_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, *flags, "-c", child, str(report), *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        check=True, timeout=120,
    )
    return json.loads(report.read_text())


@pytest.mark.parametrize("argv", SERVING, ids=lambda a: " ".join(a[:3]))
def test_serving_request_loads_no_counting_module(argv, tmp_path):
    got = _run(CHILD, argv, tmp_path / "cache")
    # a cold request loads no argparse and no OpenSSL; --help loads argparse
    text = HELP_TEXT if argv == ("--help",) else []
    assert got == {"code": 0, "import": [], "request": [], "text": text}


TABLE_MODULES = ("affine", "bimodule", "closedform", "hall", "symfunc", "traces")
SERVING = tuple(f"serve_{kind}" for kind in
                ("pi", "mhl", "trace", "hall", "mirabolic", "green", "iwahori"))
LAZY_MODULES = TABLE_MODULES + ("laurent", "combination", "partitions", "costs",
                                "artifacts") + SERVING

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
text = [m for m in %r if m in sys.modules]
import json
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "states": states, "json": loaded_json, "text": text}, fh)
""" % (LAZY_MODULES, TEXT)

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
    assert _run(STATES, argv, filled_cache) == {
        "code": 0, "states": ALL_LAZY, "json": False, "text": []}


# What an artifact hit loads of the modules that a site `.pth` file may
# preload, under `python3 -S`, which runs no site code.
BARE = """
import sys
import mirahall.cli
code = mirahall.cli.main(sys.argv[2:])
loaded = [m for m in %r if m in sys.modules]
import json
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "loaded": loaded}, fh)
""" % (("tempfile", "typing", "json") + TEXT,)


def test_cached_request_without_site_loads_no_tempfile_or_typing(filled_cache):
    for argv in (CACHED[0], CACHED[-1]):
        assert _run(BARE, argv, filled_cache, flags=("-S",)) == {"code": 0, "loaded": []}


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
    # rendered from the parsed json artifact by its own rows: the render
    # reads laurent, but not for green's text cells; the cost guard runs
    # only when the json artifact misses too, so costs and partitions are unrun
    laurent = "lazy" if argv[0] == "green" else "ran"
    states = dict(ALL_LAZY, laurent=laurent, artifacts="ran", **{f"serve_{argv[0]}": "ran"})
    assert got == {"code": 0, "states": states, "json": True, "text": []}
    # an artifact miss: this request stored its own artifact
    assert len(set(json_artifact_cache.iterdir()) - before) == 1


def test_help_runs_no_lazy_module(tmp_path):
    got = _run(STATES, ("--help",), tmp_path / "cache")
    assert got == {"code": 0, "states": ALL_LAZY, "json": False, "text": HELP_TEXT}


def test_mhl_below_its_size_runs_no_lazy_module(tmp_path):
    # a usage error, raised on the front before the cache lookup
    got = _run(STATES, ("mhl", "--n", "5", "--N", "2"), tmp_path / "cache")
    assert got == {"code": 2, "states": ALL_LAZY, "json": False, "text": []}


REFUSED = (
    ("pi", "--n", "11"),
    ("green", "--n", "11", "--q", "2"),
    ("hall", "--x", "13,1,1", "--y", "1", "--N", "16"),
    ("iwahori", "mult", "--N", "5", "--window", "1"),
    ("mirabolic", "--src", "8|8", "--r", "8"),
    ("mirabolic", "--src", "5,4|4,3", "--r", "6", "--side", "right"),
)


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_request_runs_no_table_module(argv, tmp_path):
    # every guard but iwahori's counts labels in partitions; green's
    # guard is in traces, which reaches costs and the tables it checks
    # as modules
    partitions = "lazy" if argv[0] == "iwahori" else "ran"
    states = {"costs": "ran", "partitions": partitions, "artifacts": "ran",
              f"serve_{argv[0]}": "ran"}
    if argv[0] == "green":
        states["traces"] = "ran"
    assert _run(STATES, argv, tmp_path / "cache") == {
        "code": 1, "states": dict(ALL_LAZY, **states), "json": False, "text": []}


def test_cold_iwahori_runs_only_affine(tmp_path):
    got = _run(STATES, ("iwahori", "mult", "--N", "2"), tmp_path / "cache")
    assert got == {"code": 0, "states": dict(
        ALL_LAZY, affine="ran", laurent="ran", costs="ran", artifacts="ran",
        serve_iwahori="ran"), "json": False, "text": []}


# What each cold request runs of the lazy modules besides `artifacts` and
# its own serving module: its guard (`costs`; green's is in `traces`,
# which runs `costs` too) and the table code it reads.  The three views
# of the transition table read the `pi` table and nothing of `traces`;
# only `green` counts the class ring's labels; a mirabolic column and
# the iwahori products take no `combination`.
PI_TABLE = ("bimodule", "closedform", "combination", "hall", "laurent", "partitions",
            "symfunc")
COLD_RUNS = {
    "pi": PI_TABLE + ("costs",),
    "mhl": PI_TABLE + ("costs",),
    "trace": PI_TABLE + ("costs",),
    "hall": ("closedform", "combination", "costs", "hall", "laurent", "partitions",
             "symfunc"),
    "mirabolic": ("closedform", "costs", "laurent", "partitions"),
    "green": PI_TABLE + ("costs", "traces"),
    "iwahori": ("affine", "costs", "laurent"),
}

# STATES, and the mirahall modules in `sys.modules` after the request
# that were not there right after `import mirahall.cli`.
COLD = """
import sys, types
import mirahall.cli
registered = {name for name in sys.modules if name.startswith("mirahall.")}
code = mirahall.cli.main(sys.argv[2:])
states = {}
for name in %r:
    module = sys.modules["mirahall." + name]
    states[name] = "ran" if type(module) is types.ModuleType else "lazy"
loaded_json = "json" in sys.modules
late = sorted(name for name in sys.modules
              if name.startswith("mirahall.") and name not in registered)
import json
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "states": states, "json": loaded_json, "late": late}, fh)
""" % (LAZY_MODULES,)


@pytest.mark.parametrize(
    "argv",
    [workloads.with_format(a, f) for a in workloads.COLD_TABLES for f in workloads.FORMATS],
    ids=" ".join,
)
def test_cold_request_runs_only_its_own_subcommand(argv, tmp_path):
    kind = argv[0]
    ran = COLD_RUNS[kind] + ("artifacts", f"serve_{kind}")
    assert _run(COLD, argv, tmp_path / "cache") == {
        "code": 0, "states": dict(ALL_LAZY, **dict.fromkeys(ran, "ran")),
        "json": False, "late": []}


def test_traced_report_reads_ts_action_from_affine():
    # perfbench/traced.py reads the memo of the wrapped `affine.ts_action`
    from mirahall import affine

    assert affine.ts_action.__module__ == "mirahall.affine"
    assert callable(affine.ts_action) and hasattr(affine.ts_action, "cache_info")
