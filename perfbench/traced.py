"""Child side of the benchmark's traced run.

    python traced.py REPORT -- <mirahall argv>
        Run one CLI request with every public function of every mirahall
        module wrapped, then write spans and counts to REPORT (JSON).
    python traced.py --suites REPORT SEED
        Time each oracle suite by calling cli.verify_payload((suite,), cfg)
        in SUITES order in this one process, unwrapped.

Only module-level public functions are wrapped; methods of classes run
inside the span of the function that called them.  A wrapper replaces the
function in its defining module and in every mirahall module that imported
it by name, so ``pi_table`` is traced whether called through
``bimodule``, ``cli`` or ``traces``.

A span opens when a call crosses into another module (a layer boundary),
or for the few functions timed on their own (TIMERS).  Calls that stay in
one module are only counted, which keeps the overhead on hot helpers such
as ``partitions.trim`` to a counter bump.  A layer's self time is its
spans' durations minus the time their child spans cover.  Spans nested
deeper than SPAN_DEPTH are folded into these totals but not listed.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_DEPTH = 3

# Functions timed cumulatively whatever module calls them.
TIMERS = {
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "cli.render": "cli.render_s",
    **{
        f"cli.{kind}_payload": "cli.payload_s"
        for kind in ("pi", "mhl", "trace", "hall", "mirabolic", "green", "iwahori", "verify")
    },
}

PROFILE_SWEEPS = {
    "pairs.left_profile",
    "pairs.right_profile",
    "pairs.left_elementary_profile",
    "pairs.right_elementary_profile",
}

# Functions whose arguments or results feed a counter (Tracer.hook).
HOOKED = PROFILE_SWEEPS | {
    "gf.rrefs_with_pattern", "laurent.interpolate", "laurent.primes",
    "cache.load", "cache.store", "cli.render",
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, child seconds, span id or None]
        self.self_s: defaultdict = defaultdict(float)
        self.timers: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self.spans: list = []  # [name, start, end, parent span id]
        self.sweeps: set = set()
        self.max_degree = 0

    def hook(self, key, args, kwargs, result, caller):
        """Counters that need arguments or results, not just a call."""
        if key == "gf.rrefs_with_pattern":
            self.sums["gf.subspaces"] += int(result.shape[0])
        elif key == "laurent.interpolate":
            degree = args[1] if len(args) > 1 else kwargs["degree"]
            self.max_degree = max(self.max_degree, degree)
        elif key in PROFILE_SWEEPS:
            self.sweeps.add((key, args, tuple(sorted(kwargs.items()))))
        elif key == "laurent.primes" and caller == "pairs":
            self.sums["pairs.primes_sampled"] += len(result)
        elif key == "cache.load":
            self.sums["cache.hits" if result is not None else "cache.misses"] += 1
        elif key == "cache.store":
            self.sums["cache.bytes_stored"] += os.path.getsize(result)
        elif key == "cli.render":
            self.sums["cli.render_bytes"] += len(result.encode("utf-8"))

    def span(self, fn, layer, key, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        sid = None
        if len(stack) < SPAN_DEPTH:
            sid = len(self.spans)
            self.spans.append([key, 0.0, 0.0, parent[2] if parent else None])
        frame = [layer, 0.0, sid]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[layer] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            timer = TIMERS.get(key)
            if timer:
                self.timers[timer] += dur
            if sid is not None:
                self.spans[sid][1:3] = [start, end]

    def wrap(self, fn, layer, key):
        stack, counts = self.stack, self.counts
        timed = key in TIMERS
        hooked = key in HOOKED

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                counts[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        if stack and stack[-1][0] == layer:
                            item = next(it)
                        else:
                            item = self.span(next, layer, key, (it,), {})
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            counts[key] += 1
            caller = stack[-1][0] if stack else None
            if caller == layer and not timed:
                result = fn(*args, **kwargs)
            else:
                result = self.span(fn, layer, key, args, kwargs)
            if hooked:
                self.hook(key, args, kwargs, result, caller)
            return result
        return wrapper

    def install(self) -> dict:
        """Wrap every public function of the loaded mirahall modules and
        patch every name bound to it.  Returns originals by key."""
        mods = {n: m for n, m in sys.modules.items() if n.startswith("mirahall.")}
        wrapped: dict[int, tuple] = {}
        originals: dict[str, object] = {}
        for mname, mod in mods.items():
            layer = mname.split(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mname:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                key = f"{layer}.{name}"
                originals[key] = obj
                wrapped[id(obj)] = (obj, self.wrap(obj, layer, key))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                pair = wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, name, pair[1])
        return originals

    def report(self, import_s: float, originals: dict) -> dict:
        info = originals["affine.ts_action"].cache_info()
        sums = dict(self.sums)
        sums["pairs.profiles_swept"] = len(self.sweeps)
        return {
            "import_s": import_s,
            "self_s": dict(self.self_s),
            "timers": dict(self.timers),
            "counts": dict(self.counts),
            "sums": sums,
            "max": {"laurent.interpolate_max_degree": self.max_degree},
            "ts_action_cache": [info.hits, info.misses],
            "spans": self.spans,
        }


def _write(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def run_request(path: str, argv: list[str]) -> int:
    start = perf_counter()
    from mirahall import cli

    import_s = perf_counter() - start
    tracer = Tracer()
    originals = tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        _write(path, tracer.report(import_s, originals))


def run_suites(path: str, seed: int) -> int:
    from mirahall import cli, config

    cfg = config.resolve({}, {"seed": seed})
    times, passed = {}, {}
    for suite in cli.SUITES:
        start = perf_counter()
        payload = cli.verify_payload((suite,), cfg)
        times[suite] = perf_counter() - start
        passed[suite] = payload["passed"]
    _write(path, {"times": times, "passed": passed})
    return 0 if all(passed.values()) else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--suites":
        return run_suites(argv[1], int(argv[2]))
    if len(argv) >= 2 and argv[1] == "--":
        return run_request(argv[0], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
