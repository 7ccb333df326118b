#!/usr/bin/env python3
"""Time cold `mirahall pi --n N`, cold `iwahori mult --N 2, 3, 4`, the
cold requests of COLD_EXTRA and the warm path, and append the record to
BENCH_pi.json.

    python3 scripts/bench_pi.py [--ns 4 5 6 7 8] [--src CHECKOUT]

Each cold request runs once, as one fresh `python3 -m mirahall.cli`
process with its own empty `--cache-dir`, so every table is built from
scratch.  For each the record keeps the wall time, the process's peak
RSS, its exit code and the sha256 of its stdout.

The warm path is what a repeat request costs: the median wall time of
WARM_LAUNCHES import-only launches (`mirahall --help`), of as many
cached `pi --n 4` requests and of as many cached `iwahori mult --N 2
--format latex` requests (the heaviest render among the cached tables;
its cache is filled once in json, so the first of them renders from the
stored payload), taken in turn so that a slow spell of the
host hits all three, each a fresh process that writes no bytecode
(PYTHONDONTWRITEBYTECODE=1).  The standard library's bytecode is read
as installed, so in a checkout with no `__pycache__` under `src/` each
process compiles only the package from source.  Records made before
this rule also compiled the standard library in every process and are
not comparable with later ones.  A host speed gauge, a `python3 -c "import numpy"`
process that runs no mirahall code, is timed in turn with them, as
`perfbench/run.py` does; the record keeps the raw medians, the gauge's
median, and each warm median scaled by GAUGE_REF_S over it, which reads
as at the host speed at which the gauge takes GAUGE_REF_S.

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
# built every pair table of its sizes, and a low-rank `pi` at large n
COLD_EXTRA = (
    ("hall", "--x", "5,4", "--y", "4,4"),
    ("pi", "--n", "12", "--N", "1"),
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


def time_cold(checkout: Path, args: list[str]) -> dict:
    """One cold `mirahall ARGS` in a fresh process and cache directory."""
    with tempfile.TemporaryDirectory(prefix="bench_pi_") as tmp:
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        out_path = os.path.join(tmp, "stdout")
        argv = [sys.executable, "-m", "mirahall.cli", *args,
                "--cache-dir", os.path.join(tmp, "cache")]
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=out,
                                    stderr=subprocess.DEVNULL)
            # reaps the child and gives its own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        digest = hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
    return {
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "exit": proc.returncode,
        "sha256": digest,
    }


def time_warm(checkout: Path) -> dict:
    """Median wall times of import-only launches, cached `pi --n 4` and
    cached `iwahori mult --N 2 --format latex` requests, writing no
    bytecode, raw and scaled by the host gauge."""
    with tempfile.TemporaryDirectory(prefix="bench_warm_") as tmp:
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
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
        help_s, pi_s, iwahori_s, gauge_s = [], [], [], []
        for _ in range(WARM_LAUNCHES):
            help_s.append(wall(cli + ["--help"]))
            pi_s.append(wall(cached))
            iwahori_s.append(wall(iwahori + ["--format", "latex"]))
            gauge_s.append(wall([sys.executable, *GAUGE_ARGV], gauge_env))
    gauge = statistics.median(gauge_s)
    speed = GAUGE_REF_S / gauge
    iwahori_p50 = statistics.median(iwahori_s)
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
