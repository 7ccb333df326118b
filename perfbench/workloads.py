"""Request lists for the two benchmark workloads.

Every request is one ``mirahall`` argv.  The workload seed only shuffles
the order and picks the output format; the sources and sizes stay fixed
because cost varies by orders of magnitude within one size (a right-side
sweep from ``2|1`` takes seconds, from ``1|1 --r 2`` minutes).
"""

from __future__ import annotations

import random

FORMATS = ("json", "csv", "latex")

# What a user waits for the first time they ask for each table.  The
# three heavy ones (pi, right-side mirabolic, iwahori) each get their own
# end-to-end metric.
COLD_TABLES = (
    ("pi", "--n", "4"),
    ("mhl", "--n", "3"),
    ("trace", "--n", "3", "--q", "3"),
    ("hall", "--x", "2", "--y", "1,1"),
    ("mirabolic", "--src", "2,1|1", "--r", "2"),
    ("mirabolic", "--src", "2|1", "--r", "1", "--side", "right"),
    ("green", "--n", "2", "--q", "3"),
    ("iwahori", "mult", "--N", "2"),
)

# The kinds the program caches; warm-serve fills a cache with these and
# then serves them.
CACHED_TABLES = tuple(a for a in COLD_TABLES if a[0] in ("pi", "mhl", "trace", "iwahori"))

WARM_REQUESTS = 100

# Mirabolic tables are never cached, so a repeat right-side request
# recomputes.  warm-serve times that repeat on the smallest right-side
# source as an extra request (EXTRAS), outside the pass's own figures.
WARM_RIGHT = ("mirabolic", "--src", "|1,1", "--r", "1", "--side", "right")

# The traced cold-tables run also times each oracle suite in one process
# (traced.py --suites); the workload seed picks the verify seed from
# these, at each of which every suite passes.
VERIFY_SEEDS = (2024, 1, 7, 42, 99, 314, 2718, 65537)

# The per-request end-to-end metrics, by the argv that produces them.
HEAVY = {
    "pi_s": ("pi", "--n", "4"),
    "mirabolic_right_s": ("mirabolic", "--src", "2|1", "--r", "1", "--side", "right"),
    "iwahori_s": ("iwahori", "mult", "--N", "2"),
}


def with_format(argv: tuple, fmt: str) -> tuple:
    return tuple(argv) + ("--format", fmt)


def cold_tables(rng: random.Random) -> list[tuple]:
    """One pass: every cold table once, in seeded order and formats."""
    order = list(COLD_TABLES)
    rng.shuffle(order)
    return [with_format(a, rng.choice(FORMATS)) for a in order]


def warm_serve(rng: random.Random) -> list[tuple]:
    """One pass: WARM_REQUESTS cached requests, every (table, format)
    pair drawn as evenly as the count allows, in seeded order."""
    combos = [with_format(a, f) for a in CACHED_TABLES for f in FORMATS]
    reps, extra = divmod(WARM_REQUESTS, len(combos))
    out = combos * reps + rng.sample(combos, extra)
    rng.shuffle(out)
    return out


PASSES = {
    "cold-tables": cold_tables,
    "warm-serve": warm_serve,
}

# A cold-tables pass holds one sample of each heavy request, so a run
# makes at least two passes however short --seconds is.
MIN_PASSES = {"cold-tables": 2}

# A per-request metric that a workload's pass cannot sample is sampled
# by EXTRA_REPEATS requests spread through the pass, outside wall_s and
# the request percentiles.
EXTRA_REPEATS = 8
EXTRAS = {
    "warm-serve": ("mirabolic_right_s",
                   lambda rng: with_format(WARM_RIGHT, rng.choice(FORMATS))),
}


def all_reference_argv() -> list[tuple]:
    """Every argv any workload can send, one entry per format."""
    return [with_format(a, f) for a in COLD_TABLES + (WARM_RIGHT,) for f in FORMATS]
