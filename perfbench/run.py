#!/usr/bin/env python3
"""mirahall benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/mirahall`` must exist).  The
loop is closed with one client: each request is one ``mirahall`` CLI
invocation in a fresh process, and the next starts only when the previous
one has exited, so at most one request process runs at a time.  Whole
passes of the workload run until S seconds have been measured, and at
least workloads.MIN_PASSES of them (one unless stated).

Every request's stdout is checked against reference sha256 digests
recorded in ``reference.json``; a nonzero exit, a timeout or a digest
mismatch counts the request as failed.  Each request gets its own empty
cache directory (warm-serve shares one it filled during set-up), and
MIRAHALL_CACHE_DIR and XDG_CACHE_HOME point inside the run's scratch
directory, so no user cache is ever read or written.

With ``--trace 0`` the result carries the end-to-end metrics, their
times scaled to a reference host speed (see GAUGE_REF_S).  With
``--trace 1`` the run makes one untraced pass and then the same pass
traced (see traced.py), and the result carries the per-layer metrics;
on cold-tables it also times each oracle suite (traced.py --suites).
The last line of stdout is the result as one JSON object; a fuller record
(run facts, every request, spans) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import random
import select
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

REQUEST_TIMEOUT_S = 60.0  # four times the slowest request (about 15 s) at this commit
RUN_BUDGET_S = 165.0  # every request ends by then; the run must end by 180 s
PRIME_LAUNCHES = 5

# Host speed gauge.  On the shared 2-vCPU VM the benchmark was built on,
# the speed of the same code drifts by up to 40% over minutes, and every
# timing drifts with it.  Between requests, about once per GAUGE_EVERY_S
# of request time, the client times GAUGE_ARGV: a Python start that
# imports numpy and nothing of mirahall.  Its time tracked the requests'
# times (warm, cold mirabolic and cold iwahori alike); an in-process dict
# loop moved twice as much as they did.  Every end-to-end time is scaled
# by GAUGE_REF_S over the run's median gauge time, so it reads as at the
# host speed at which the gauge takes GAUGE_REF_S.  Raw times stay in
# the record.
GAUGE_ARGV = ("-c", "import numpy")
GAUGE_EVERY_S = 2.0
GAUGE_REF_S = 0.16
GAUGE_TIMEOUT_S = 60.0

# Pinned on every child so that runs compare: one BLAS thread, a fixed
# hash seed (set iteration order, hence work order, is then the same).
ENV_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "pi_s": "s",
    "mirabolic_right_s": "s",
    "iwahori_s": "s",
    "peak_rss_mb": "MB",
}

SELF_LAYERS = (
    "pairs", "gf", "partitions", "laurent", "bimodule", "hall", "symfunc",
    "closedform", "traces", "affine",
)
CALL_COUNTS = {
    "pairs.pair_type_calls": "pairs.pair_type",
    "gf.rref_calls": "gf.rref",
    "partitions.xi_calls": "partitions.xi",
    "laurent.interpolate_calls": "laurent.interpolate",
    "bimodule.c_bipartition_calls": "bimodule.c_bipartition",
    "closedform.closed_left_table_calls": "closedform.closed_left_table",
    "affine.ts_action_calls": "affine.ts_action",
}
SUMS = {
    "pairs.profiles_swept": "count",
    "pairs.primes_sampled": "count",
    "gf.subspaces": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_stored": "bytes",
    "cli.render_bytes": "bytes",
}
TIMED = ("cache.load_s", "cache.store_s", "cli.payload_s", "cli.render_s")
SUITES = ("census", "constants", "hall", "pi", "classical", "trace", "rho", "green", "iwahori")

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    **{name: "count" for name in CALL_COUNTS},
    **SUMS,
    "laurent.interpolate_max_degree": "degree",
    "affine.ts_action_hit_ratio": "ratio",
    **{name: "s" for name in TIMED},
    "cli.import_s": "s",
    **{f"verify.{suite}_s": "s" for suite in SUITES},
    "trace.overhead_s": "s",
}

class Unrunnable(Exception):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Sample:
    argv: tuple
    latency_s: float = 0.0
    rss_mb: float = 0.0
    ok: bool = False
    why: str = ""
    digest: str = ""
    trace: dict | None = None

    @property
    def key(self) -> str:
        return shlex.join(self.argv)

    def record(self) -> dict:
        return {"argv": self.key, "latency_s": self.latency_s, "rss_mb": self.rss_mb,
                "ok": self.ok, "why": self.why}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def gauge(env: dict) -> float:
    """Seconds one GAUGE_ARGV process takes, start to exit.  Its exit is
    seen as EOF on its stderr, not by polling, which would round the
    time up to the polling step."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *GAUGE_ARGV], env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, timed_out = _read_to_eof(proc.stderr, start + GAUGE_TIMEOUT_S)
        if timed_out:
            proc.kill()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stderr.close()
    elapsed = time.perf_counter() - start
    if timed_out or proc.returncode != 0:
        raise RuntimeError(f"speed gauge {GAUGE_ARGV} failed (exit {proc.returncode})")
    return elapsed


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Client:
    """Sends requests one at a time and checks each reply."""

    def __init__(self, reference: dict, scratch: Path, deadline: float):
        self.reference = reference
        self.scratch = scratch
        self.deadline = deadline
        self.samples: list[Sample] = []
        self.gauges: list[float] = []
        self._since_gauge = GAUGE_EVERY_S  # the first request is followed by a gauge
        self._n = 0
        self.env = dict(os.environ)
        self.env.update(ENV_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["MIRAHALL_CACHE_DIR"] = str(scratch / "env-cache")
        self.env["XDG_CACHE_HOME"] = str(scratch / "xdg-cache")

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def request(self, argv: tuple, cache_dir: Path | None, traced: bool = False,
                check: bool = True) -> Sample:
        """One CLI request; cache_dir None sends no --cache-dir (priming)."""
        sample = Sample(tuple(argv))
        self.samples.append(sample)
        self._n += 1
        out_path = self.scratch / f"stdout-{self._n}"
        trace_path = self.scratch / f"trace-{self._n}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"), str(trace_path), "--"]
        else:
            cmd = [sys.executable, "-m", "mirahall.cli"]
        cmd += list(argv)
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        limit = min(REQUEST_TIMEOUT_S, self.deadline - time.monotonic())
        if limit <= 0:
            sample.why = "not sent: run budget spent"
            return sample
        start = time.perf_counter()
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE,
                                    stdin=subprocess.DEVNULL, env=self.env, cwd=ROOT)
        try:
            stderr, timed_out = _read_to_eof(proc.stderr, start + limit)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            sample.latency_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stderr.close()
        sample.rss_mb = usage.ru_maxrss / 1024
        sample.digest = digest = _digest(out_path)
        out_path.unlink()
        self._since_gauge += sample.latency_s
        while self._since_gauge >= GAUGE_EVERY_S:
            self._since_gauge -= GAUGE_EVERY_S
            self.gauges.append(gauge(self.env))
        if timed_out:
            sample.why = f"timed out after {limit:.0f} s"
        elif proc.returncode != 0:
            last = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            sample.why = f"exit {proc.returncode}" + "".join(f": {line}" for line in last)
        elif check and self.reference.get(sample.key) is None:
            sample.why = "no reference digest"
        elif check and self.reference[sample.key] != digest:
            sample.why = "digest mismatch"
        else:
            sample.ok = True
        if traced and trace_path.exists():
            sample.trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        return sample

    def probe_suites(self, seed: int) -> dict:
        """Per-suite oracle times from one unwrapped process (traced.py --suites)."""
        path = self.scratch / "suites.json"
        sample = Sample(("traced.py", "--suites", str(seed)))
        self.samples.append(sample)
        limit = min(REQUEST_TIMEOUT_S, self.deadline - time.monotonic())
        if limit <= 0:
            sample.why = "not sent: run budget spent"
            return {}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "traced.py"), "--suites",
                                   str(path), str(seed)], env=self.env, cwd=ROOT,
                                  stdin=subprocess.DEVNULL, capture_output=True,
                                  timeout=limit)
        except subprocess.TimeoutExpired:
            sample.why = f"timed out after {limit:.0f} s"
            return {}
        sample.latency_s = time.perf_counter() - start
        if proc.returncode != 0 or not path.exists():
            sample.why = f"exit {proc.returncode}"
            return {}
        sample.ok = True
        return json.loads(path.read_text())["times"]


def _read_to_eof(pipe, deadline: float) -> tuple[bytes, bool]:
    """Read a child's stderr to EOF or until the deadline.
    Returns (stderr, timed_out)."""
    chunks, fd = [], pipe.fileno()
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            return b"".join(chunks), True
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            return b"".join(chunks), False
        chunks.append(chunk)


# --- workloads ------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    setup_s: float = 0.0
    passes: list = field(default_factory=list)  # (wall seconds, [Sample])
    extras: list = field(default_factory=list)  # [Sample] of workloads.EXTRAS
    raw: dict = field(default_factory=dict)  # end-to-end metrics before scaling
    speed: float = 1.0  # GAUGE_REF_S over the median gauge time


def prime(client: Client) -> float:
    """Import-only launches: bytecode compiled and sources read before any
    request is timed.  Returns the median launch time."""
    times = []
    for _ in range(PRIME_LAUNCHES):
        times.append(client.request(("--help",), None, check=False).latency_s)
    return statistics.median(times)


def setup(client: Client, run: Run) -> Path | None:
    """Prepare the workload; returns warm-serve's filled cache directory."""
    prime_s = prime(client)
    shared = None
    fill_s = 0.0
    if run.workload == "warm-serve":
        shared = client.fresh_dir("warm-")
        for argv in workloads.CACHED_TABLES:
            fill_s += client.request(workloads.with_format(argv, "json"), shared).latency_s
    run.setup_s = prime_s + fill_s
    return shared


def run_pass(client: Client, argvs: list, shared: Path | None, traced: bool,
             extras: list = ()) -> tuple:
    """Send one pass; returns (wall seconds, samples, extra samples).

    The wall time is the sum of the pass's request latencies.  Extras go
    evenly spaced among the pass's requests, so they are timed over the
    same stretch as the pass (the machine's speed drifts over tens of
    seconds); their latency is left out of the wall time."""
    total = len(argvs) + len(extras)
    slots = {int((k + 0.5) * total / len(extras)) for k in range(len(extras))}
    queue, pending = list(argvs), list(extras)
    samples, extra_samples = [], []
    for i in range(total):
        argv = pending.pop(0) if i in slots else queue.pop(0)
        cache_dir = shared if shared is not None else client.fresh_dir("cold-")
        sample = client.request(argv, cache_dir, traced=traced)
        (extra_samples if i in slots else samples).append(sample)
    return sum(s.latency_s for s in samples), samples, extra_samples


def measure(client: Client, run: Run, seconds: float, trace: bool) -> dict:
    rng = random.Random(run.seed)
    make = workloads.PASSES[run.workload]
    shared = setup(client, run)
    if trace:
        argvs = make(rng)
        untraced = run_pass(client, argvs, shared, traced=False)[:2]
        traced = run_pass(client, argvs, shared, traced=True)[:2]
        run.passes = [untraced, traced]
        probe = {}
        if run.workload == "cold-tables":
            probe = client.probe_suites(rng.choice(workloads.VERIFY_SEEDS))
        return layer_metrics(untraced, traced, probe)
    extra = workloads.EXTRAS.get(run.workload)
    min_passes = workloads.MIN_PASSES.get(run.workload, 1)
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        argvs = make(rng)
        extras = [extra[1](rng) for _ in range(workloads.EXTRA_REPEATS)] if extra else []
        wall, samples, extra_samples = run_pass(client, argvs, shared, False, extras)
        run.passes.append((wall, samples))
        run.extras += extra_samples
        now = time.perf_counter()
        if time.monotonic() + (now - pass_start) >= client.deadline:
            break
        if now - begin >= seconds and len(run.passes) >= min_passes:
            break
    run.raw = end_to_end_metrics(run)
    run.speed = GAUGE_REF_S / statistics.median(client.gauges)
    return {name: value * run.speed if END_TO_END[name] == "s" else value
            for name, value in run.raw.items()}


def _base(argv: tuple) -> tuple:
    """The argv without its --format pair."""
    i = argv.index("--format")
    return argv[:i] + argv[i + 2:]


def end_to_end_metrics(run: Run) -> dict:
    requests = [s for _, samples in run.passes for s in samples]
    latencies = [s.latency_s for s in requests]
    out = {
        "setup_s": run.setup_s,
        "wall_s": statistics.median(wall for wall, _ in run.passes),
        "req_p50_s": statistics.median(latencies),
        "req_p90_s": percentile(latencies, 90),
    }
    extra_metric = workloads.EXTRAS.get(run.workload, (None,))[0]
    for metric, argv in workloads.HEAVY.items():
        if metric == extra_metric:
            vals = [s.latency_s for s in run.extras]
        else:
            vals = [s.latency_s for s in requests if _base(s.argv) == argv]
        out[metric] = statistics.median(vals)
    out["peak_rss_mb"] = max(s.rss_mb for s in requests + run.extras)
    return out


def layer_metrics(untraced: tuple, traced: tuple, probe: dict) -> dict:
    """Per-layer metrics summed over the requests of the traced pass."""
    self_s = dict.fromkeys(SELF_LAYERS, 0.0)
    counts = dict.fromkeys(CALL_COUNTS, 0)
    sums = dict.fromkeys(SUMS, 0)
    timers = dict.fromkeys(TIMED, 0.0)
    import_s, max_degree, hits, misses = 0.0, 0, 0, 0
    for sample in traced[1]:
        t = sample.trace
        if t is None:
            continue
        import_s += t["import_s"]
        for layer in SELF_LAYERS:
            self_s[layer] += t["self_s"].get(layer, 0.0)
        for name, key in CALL_COUNTS.items():
            counts[name] += t["counts"].get(key, 0)
        for name in SUMS:
            sums[name] += t["sums"].get(name, 0)
        for name in TIMED:
            timers[name] += t["timers"].get(name, 0.0)
        max_degree = max(max_degree, t["max"]["laurent.interpolate_max_degree"])
        hits += t["ts_action_cache"][0]
        misses += t["ts_action_cache"][1]
    out = {f"{layer}.self_s": v for layer, v in self_s.items()}
    out.update(counts)
    out.update(sums)
    out["laurent.interpolate_max_degree"] = max_degree
    out["affine.ts_action_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out.update(timers)
    out["cli.import_s"] = import_s
    out.update({f"verify.{suite}_s": probe.get(suite, 0.0) for suite in SUITES})
    out["trace.overhead_s"] = traced[0] - untraced[0]
    return out


# --- facts and output -----------------------------------------------------


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, all CPUs, since boot."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_facts() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "env_pins": ENV_PINS,
        "request_timeout_s": REQUEST_TIMEOUT_S,
    }


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise Unrunnable(f"missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())["digests"]


def check_checkout() -> None:
    if not (SRC / "mirahall" / "cli.py").is_file():
        raise Unrunnable(f"no mirahall sources under {SRC}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              reference: dict | None = None) -> dict:
    """Run one workload; returns the full record (result under 'result')."""
    check_checkout()
    reference = load_reference() if reference is None else reference
    OUT.mkdir(exist_ok=True)
    facts = run_facts()
    facts["loadavg_before"] = _loadavg()
    steal_before = _steal_s()
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    client = Client(reference, scratch, time.monotonic() + RUN_BUDGET_S)
    run = Run(workload, seed)
    try:
        metrics = measure(client, run, seconds, trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    facts["loadavg_after"] = _loadavg()
    steal_after = _steal_s()
    if steal_before is not None and steal_after is not None:
        facts["cpu_steal_s"] = round(steal_after - steal_before, 2)
    failed = sum(1 for s in client.samples if not s.ok)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(client.samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "facts": facts, "result": result,
        "raw_metrics": run.raw, "speed_factor": run.speed,
        "median_gauge_s": statistics.median(client.gauges) if client.gauges else None,
        "measured_requests": sum(len(samples) for _, samples in run.passes),
        "pass_walls": [wall for wall, _ in run.passes],
        "requests": [s.record() for s in client.samples],
        "spans": [s.trace["spans"] for s in client.samples if s.trace],
    }


def _terminate(signum, frame):
    """SIGTERM unwinds like an exception, so the request in flight is
    killed and waited for and the scratch directory removed."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unrunnable as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    result = record["result"]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1))
    print("facts:", json.dumps(record["facts"], sort_keys=True))
    for sample in record["requests"]:
        if not sample["ok"]:
            print(f"FAILED {sample['argv']}: {sample['why']}")
    print(f"failed_ratio = {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.4f}")
    print(f"requests measured = {record['measured_requests']}")
    raw = record["raw_metrics"]
    if raw:
        print(f"speed factor = {record['speed_factor']:.4f}"
              f" (median gauge {record['median_gauge_s']:.4f} s, reference {GAUGE_REF_S} s)")
    for metric, entry in result["metrics"].items():
        scaled = f" (raw {raw[metric]:.6g})" if raw and raw[metric] != entry["value"] else ""
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}{scaled}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
