#!/usr/bin/env python3
"""Time cold `mirahall pi --n N`, cold `iwahori mult --N 2, 3, 4`, the
cold requests of COLD_EXTRA and the warm path, and append the record to
BENCH_pi.json.

    python3 scripts/bench_pi.py [--ns 4 5 6 7 8] [--src CHECKOUT]

Each cold request runs once, as one fresh process that runs
`mirahall.cli` as `python3 -m mirahall.cli` does (CHILD), with its own
empty `--cache-dir`, so every table is built from scratch.  For each
the record keeps the wall time, the process's own peak resident size
(`VmHWM` from `/proc/self/status`, read by the process as it exits),
its exit code, the sha256 of its stdout, the number and total bytes
of the files it left in its cache directory, `compiled_lines` and
`compile_s`, the lines of mirahall source that the process compiled
and the time that took (`SourceFileLoader.source_to_code`, wrapped in
the child), and `exit_s`, the time
from the child's `finally` (after the CLI has returned, so after the
request's `main` and its exit call) to the harness's reap of the child,
both read on `time.monotonic()`, the clock every process on the host
shares: what interpreter shutdown costs the request.  Records without
`"peak_rss": "VmHWM"` took the `ru_maxrss` that `os.wait4` returns,
which for a forked child starts from the harness's own size, so their
small requests read as the harness (about 45 MB) and not as themselves.

The warm path is what a repeat request costs: the median wall time of
WARM_LAUNCHES import-only launches (`mirahall --help`), of as many
cached `pi --n 4` requests and of as many cached `iwahori mult --N 2
--format latex` requests (the heaviest render among the cached tables;
its cache is filled once in json, so the first of them renders from the
stored json artifact), and of as many `python3 -c pass` launches (the
interpreter floor, `floor_p50_s`, under which no request can go), taken
in turn so that a slow spell of the host hits all four, each a fresh
process that writes no bytecode (PYTHONDONTWRITEBYTECODE=1).  The
standard library's bytecode is read as installed, so each process
compiles only the package from source.
Records made before this rule also compiled the standard library in
every process and are not comparable with later ones.  A host speed
gauge, a `python3 -c "import numpy"` process that runs no mirahall
code, is timed in turn with them, as `perfbench/run.py` does; the
record keeps the raw medians, the gauge's median, and each warm median
scaled by GAUGE_REF_S over it, which reads as at the host speed at
which the gauge takes GAUGE_REF_S.

Every timed child, cold or warm, runs against a fresh copy of the
checkout's `src/` made without its `__pycache__` directories
(`clean_src`), so a checkout that holds bytecode from an earlier run is
timed as a fresh checkout is: each cold request compiles the package
from source, and so does each warm launch.  Records without
`"src": "copy without __pycache__"` read whatever bytecode the timed
checkout held.

The record also keeps the git sha of the timed checkout (and whether
its `src/` differs from that commit), nproc and the Python version.
`--src` times another checkout, such as a parent commit, with the same
harness; the record goes to BENCH_pi.json beside this script either
way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WARM_LAUNCHES = 9

# cold `iwahori mult --N N` at window 2, timed in every record
IWAHORI_NS = (2, 3, 4)

# further cold requests timed in every record: a Hall product that once
# built every pair table of its sizes, a low-rank `pi` at large n, the
# two other views of the transition table, `trace` and `mhl` (each at
# the largest `pi` size too, where `mhl` is refused by its own budget),
# a csv and a latex render of a large table, `iwahori mult` at N = 3's
# widest accepted window, every `verify` suite (its report's sha256 pins
# the checks), the latex render of the largest `iwahori mult` table,
# the eight requests of the benchmark's cold-tables workload (json) and
# `green` rings: the largest the guard admits at q = 2, 5, 7 and n = 1,
# and those the label budget of 3000 once admitted at q = 2 and 1499
COLD_EXTRA = (
    ("hall", "--x", "5,4", "--y", "4,4"),
    ("pi", "--n", "12", "--N", "1"),
    ("trace", "--n", "8", "--q", "3"),
    ("trace", "--n", "9", "--q", "3"),
    ("trace", "--n", "10", "--q", "3"),
    ("mhl", "--n", "8"),
    ("mhl", "--n", "9"),
    ("mhl", "--n", "10"),
    ("pi", "--n", "8", "--format", "csv"),
    ("trace", "--n", "8", "--q", "3", "--format", "latex"),
    ("iwahori", "mult", "--N", "3", "--window", "4"),
    ("verify", "--suite", "all"),
    ("iwahori", "mult", "--N", "4", "--format", "latex"),
    ("pi", "--n", "4"),
    ("mhl", "--n", "3"),
    ("trace", "--n", "3", "--q", "3"),
    ("hall", "--x", "2", "--y", "1,1"),
    ("mirabolic", "--src", "2,1|1", "--r", "2"),
    ("mirabolic", "--src", "2|1", "--r", "1", "--side", "right"),
    ("green", "--n", "2", "--q", "3"),
    ("iwahori", "mult", "--N", "2"),
    ("green", "--n", "8", "--q", "2"),
    ("green", "--n", "4", "--q", "5"),
    ("green", "--n", "1", "--q", "1499"),
    ("green", "--n", "9", "--q", "2"),
    ("green", "--n", "10", "--q", "2"),
    ("green", "--n", "4", "--q", "7"),
    ("green", "--n", "1", "--q", "5987"),
)

# the host speed gauge of perfbench/run.py, with its thread pins
GAUGE_ARGV = ("-c", "import numpy")
GAUGE_REF_S = 0.16
GAUGE_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _git(checkout: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else ""


# `python3 -c CHILD HWM_FILE ARGS...` runs `mirahall ARGS` as `-m
# mirahall.cli` would, then writes its own VmHWM, in kB, the monotonic
# time at which the CLI returned, and the lines and seconds of the
# mirahall source it compiled to HWM_FILE, whatever the exit.
CHILD = """
import os, runpy, sys, time
from importlib.machinery import SourceFileLoader
hwm_file = sys.argv.pop(1)
compiled = [0, 0.0]
source_to_code = SourceFileLoader.source_to_code


def timed_source_to_code(self, data, path, *args, **kwargs):
    start = time.perf_counter()
    try:
        return source_to_code(self, data, path, *args, **kwargs)
    finally:
        if os.sep + "mirahall" + os.sep in str(path):
            compiled[0] += bytes(data).count(b"\\n")
            compiled[1] += time.perf_counter() - start


SourceFileLoader.source_to_code = timed_source_to_code
try:
    runpy.run_module("mirahall.cli", run_name="__main__", alter_sys=True)
finally:
    returned = time.monotonic()
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    with open(hwm_file, "w") as fh:
        fh.write(f"{hwm.split()[1]} {returned!r} {compiled[0]} {compiled[1]!r}")
"""


def clean_src(checkout: Path, tmp: str) -> str:
    """A copy of the checkout's `src/` in `tmp`, without `__pycache__`."""
    dest = os.path.join(tmp, "src")
    shutil.copytree(checkout / "src", dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def time_cold(checkout: Path, args: list[str]) -> dict:
    """One cold `mirahall ARGS` in a fresh process, cache directory and
    copy of `src/`."""
    with tempfile.TemporaryDirectory(prefix="bench_pi_") as tmp:
        env = dict(os.environ, PYTHONPATH=clean_src(checkout, tmp))
        out_path = os.path.join(tmp, "stdout")
        hwm_path = os.path.join(tmp, "vmhwm")
        argv = [sys.executable, "-c", CHILD, hwm_path, *args,
                "--cache-dir", os.path.join(tmp, "cache")]
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            code = subprocess.run(argv, env=env, stdout=out,
                                  stderr=subprocess.DEVNULL).returncode
            reaped = time.monotonic()
            wall = time.perf_counter() - start
        digest = hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
        peak_kb, returned, lines, compile_s = Path(hwm_path).read_text().split()
        stored = [p.stat().st_size for p in Path(tmp, "cache").glob("*")]
    return {
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(int(peak_kb) / 1024, 1),
        "exit_s": round(reaped - float(returned), 4),
        "compiled_lines": int(lines),
        "compile_s": round(float(compile_s), 4),
        "exit": code,
        "sha256": digest,
        "cache_files": len(stored),
        "cache_bytes": sum(stored),
    }


def time_warm(checkout: Path) -> dict:
    """Median wall times of import-only launches, cached `pi --n 4` and
    cached `iwahori mult --N 2 --format latex` requests and bare
    interpreter launches, writing no bytecode, raw and scaled by the
    host gauge."""
    with tempfile.TemporaryDirectory(prefix="bench_warm_") as tmp:
        env = dict(os.environ, PYTHONPATH=clean_src(checkout, tmp),
                   PYTHONDONTWRITEBYTECODE="1")
        cli = [sys.executable, "-m", "mirahall.cli"]
        cached = cli + ["pi", "--n", "4", "--cache-dir", os.path.join(tmp, "cache")]
        iwahori = cli + ["iwahori", "mult", "--N", "2",
                         "--cache-dir", os.path.join(tmp, "cache")]

        gauge_env = dict(os.environ, **GAUGE_PINS)

        def wall(argv: list[str], env: dict = env) -> float:
            start = time.perf_counter()
            subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, check=True)
            return time.perf_counter() - start

        wall(cached)  # fills the cache
        wall(iwahori + ["--format", "json"])
        help_s, pi_s, iwahori_s, floor_s, gauge_s = [], [], [], [], []
        for _ in range(WARM_LAUNCHES):
            help_s.append(wall(cli + ["--help"]))
            pi_s.append(wall(cached))
            iwahori_s.append(wall(iwahori + ["--format", "latex"]))
            floor_s.append(wall([sys.executable, "-c", "pass"]))
            gauge_s.append(wall([sys.executable, *GAUGE_ARGV], gauge_env))
    gauge = statistics.median(gauge_s)
    speed = GAUGE_REF_S / gauge
    iwahori_p50 = statistics.median(iwahori_s)
    floor = statistics.median(floor_s)
    return {
        "launches": WARM_LAUNCHES,
        "bytecode_cache": "not-written",
        "help_p50_s": round(statistics.median(help_s), 4),
        "cached_pi4_p50_s": round(statistics.median(pi_s), 4),
        "gauge_p50_s": round(gauge, 4),
        "gauge_ref_s": GAUGE_REF_S,
        "help_p50_scaled_s": round(statistics.median(help_s) * speed, 4),
        "cached_pi4_p50_scaled_s": round(statistics.median(pi_s) * speed, 4),
        "cached_iwahori2_latex_p50_s": round(iwahori_p50, 4),
        "cached_iwahori2_latex_p50_scaled_s": round(iwahori_p50 * speed, 4),
        "floor_p50_s": round(floor, 4),
        "floor_p50_scaled_s": round(floor * speed, 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ns", type=int, nargs="+", default=[4, 5, 6, 7, 8])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout to time (default: this one)")
    args = parser.parse_args()
    checkout = args.src.resolve()
    runs = []
    for n in args.ns:
        run = {"n": n, **time_cold(checkout, ["pi", "--n", str(n)])}
        print(json.dumps(run), flush=True)
        runs.append(run)
    iwahori = []
    for N in IWAHORI_NS:
        run = {"N": N, **time_cold(checkout, ["iwahori", "mult", "--N", str(N)])}
        print(json.dumps(run), flush=True)
        iwahori.append(run)
    extra = []
    for argv in COLD_EXTRA:
        run = {"argv": " ".join(argv), **time_cold(checkout, list(argv))}
        print(json.dumps(run), flush=True)
        extra.append(run)
    warm = time_warm(checkout)
    print(json.dumps({"warm": warm}), flush=True)
    record = {
        "command": "mirahall pi --n N, iwahori mult --N N and COLD_EXTRA"
                   " (cold: fresh process, empty cache)",
        "git_sha": _git(checkout, "rev-parse", "HEAD"),
        "src_modified": bool(_git(checkout, "status", "--porcelain", "--", "src")),
        "when": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "peak_rss": "VmHWM",
        "src": "copy without __pycache__",
        "runs": runs,
        "iwahori": iwahori,
        "extra": extra,
        "warm": warm,
    }
    out = ROOT / "BENCH_pi.json"
    records = json.loads(out.read_text())["records"] if out.exists() else []
    records.append(record)
    out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
