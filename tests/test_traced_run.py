"""The traced run of the benchmark reads the serving modules as layers.

`perfbench/traced.py REPORT -- <argv>` imports `mirahall.cli`, wraps every
public function of the mirahall modules in `sys.modules` by then, runs one
request and writes the calls it counted per layer.  `mirahall.cli`
registers the table modules lazily: each is in `sys.modules` from import
on, with its body not yet run, and the tracer's first read of the
module's namespace runs it.  A table module that stopped being registered
at import, or a layer whose calls move into a module that is not, would
read as a layer with no calls; these requests pin that.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LAYERS = {
    ("pi", "--n", "2"): {
        "cli", "cache", "config", "bimodule", "hall", "closedform",
        "partitions", "symfunc", "laurent",
    },
    ("trace", "--n", "2", "--q", "3"): {
        "cli", "cache", "config", "bimodule", "hall", "closedform",
        "partitions", "symfunc", "laurent", "traces",
    },
    ("iwahori", "mult", "--N", "2"): {"cli", "cache", "config", "affine"},
}


@pytest.mark.parametrize("argv", list(LAYERS), ids=" ".join)
def test_traced_request_counts_each_serving_layer(argv, tmp_path):
    report = tmp_path / "report.json"
    env = dict(os.environ, MIRAHALL_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(report), "--", *argv],
        env=env, stdout=subprocess.DEVNULL, timeout=120,
    )
    assert done.returncode == 0
    got = json.loads(report.read_text())
    called = {key.split(".", 1)[0] for key, count in got["counts"].items() if count}
    assert LAYERS[argv] <= called, LAYERS[argv] - called
    assert LAYERS[argv] <= set(got["self_s"])
    assert got["import_s"] > 0
    assert got["sums"]["cache.misses"] >= 1
    hits, misses = got["ts_action_cache"]
    assert (hits + misses > 0) == (argv[0] == "iwahori")
