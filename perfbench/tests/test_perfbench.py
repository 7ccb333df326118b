"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They drive the real runner over a tiny workload of cheap requests, so
they take seconds rather than the minutes of a real workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = [
    ("pi", "--n", "1", "--format", "json"),
    ("mirabolic", "--src", "|1", "--r", "1", "--side", "right", "--format", "csv"),
    ("hall", "--x", "1", "--y", "1", "--format", "latex"),
]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Digests of the tiny requests, made the same way reference.json is."""
    scratch = tmp_path_factory.mktemp("reference")
    client = run.Client({}, scratch, deadline=float("inf"))
    digests = {}
    for argv in TINY:
        sample = client.request(argv, client.fresh_dir("test-ref-"), check=False)
        assert sample.ok, sample.why
        digests[sample.key] = sample.digest
    return digests


@pytest.fixture(autouse=True)
def tiny_workload(monkeypatch):
    monkeypatch.setitem(workloads.PASSES, "tiny", lambda rng: list(TINY))
    monkeypatch.setattr(workloads, "HEAVY", {
        "pi_s": TINY[0][:-2], "mirabolic_right_s": TINY[1][:-2], "iwahori_s": TINY[2][:-2],
    })


def _printed(capsys, trace: int) -> dict:
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json(capsys, monkeypatch, reference):
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _printed(capsys, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        names = [m["name"] for m in BENCHMARK[section]]
        assert list(result["metrics"]) == names
        units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_correct_digests_pass(reference):
    record = run.benchmark("tiny", 1, 0, False, reference=reference)
    assert record["result"]["correct"], record["requests"]
    assert record["result"]["failed"] == 0


def test_corrupted_reference_digest_counts_as_failure(reference):
    bad = dict(reference)
    key = next(iter(bad))
    bad[key] = "0" * 64
    record = run.benchmark("tiny", 1, 0, False, reference=bad)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == 1
    assert [r["why"] for r in record["requests"] if not r["ok"]] == ["digest mismatch"]


def test_traced_self_times_fit_in_traced_wall(reference):
    record = run.benchmark("tiny", 2, 0, True, reference=reference)
    assert record["result"]["correct"], record["requests"]
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(v >= 0 for v in self_times)
    assert sum(self_times) > 0
    traced_wall = record["pass_walls"][-1]
    assert sum(self_times) <= traced_wall
    assert metrics["pairs.profiles_swept"] > 0
    assert metrics["cache.misses"] == 1  # only pi is a cached kind


def test_times_are_scaled_by_the_speed_gauge(reference, monkeypatch):
    monkeypatch.setattr(run, "gauge", lambda env: 2 * run.GAUGE_REF_S)
    record = run.benchmark("tiny", 1, 0, False, reference=reference)
    assert record["speed_factor"] == 0.5
    metrics = record["result"]["metrics"]
    for name, raw in record["raw_metrics"].items():
        factor = 0.5 if metrics[name]["unit"] == "s" else 1.0
        assert metrics[name]["value"] == raw * factor
    assert record["raw_metrics"]["wall_s"] == sum(
        r["latency_s"] for r in record["requests"] if r["argv"] != "--help")


def test_min_passes_holds_however_short_the_run(reference, monkeypatch):
    monkeypatch.setitem(workloads.MIN_PASSES, "tiny", 2)
    record = run.benchmark("tiny", 1, 0, False, reference=reference)
    assert record["result"]["correct"], record["requests"]
    assert len(record["pass_walls"]) == 2
    assert record["measured_requests"] == 2 * len(TINY)


def test_timed_out_request_is_killed_and_fails(reference, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "REQUEST_TIMEOUT_S", 0.05)
    client = run.Client(reference, tmp_path, deadline=float("inf"))
    sample = client.request(TINY[0], client.fresh_dir("timeout-"))
    assert not sample.ok
    assert sample.why.startswith("timed out")
