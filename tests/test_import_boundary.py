"""Serving requests never load the counting engine.

The counting oracles (`oracle`, `pairs`, `gf`), the verify suites
(`checks`) and numpy are for `verify` and the tests, and the standard
modules that only they need (`fractions`, and `dataclasses`, which
pulls in `inspect`) would cost every request their import.  Each
serving request of the benchmark's workloads runs in a fresh
interpreter here, which checks that neither `import mirahall.cli` nor
the request itself loads them.
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


@pytest.mark.parametrize("argv", SERVING, ids=lambda a: " ".join(a[:3]))
def test_serving_request_loads_no_counting_module(argv, tmp_path):
    report = tmp_path / "report.json"
    env = dict(os.environ, MIRAHALL_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, "-c", CHILD, str(report), *argv],
        env=env, stdout=subprocess.DEVNULL, check=True, timeout=120,
    )
    got = json.loads(report.read_text())
    assert got == {"code": 0, "import": [], "request": []}
