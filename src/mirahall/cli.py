"""Command-line front end: the part of the CLI that every request runs.

Every subcommand renders one deterministic artifact: the same invocation
produces the same bytes, whether the table came out of the cache or was
rebuilt.  Exit codes: 0 computed or verified, 1 a verification failed,
2 bad usage.

Every subcommand but `verify` serves through `_serve_cached`, from one
cache of rendered artifacts, each keyed by the table's parameters plus
`format`; a hit is written out as stored.  On a miss the requested
format is rendered from the parsed json artifact or, when that misses
too, from the payload builder's tree, which is then also stored as the
json artifact.  The payload builders and the renderers live in
`artifacts`; a builder is pure: cost guard (in `costs`), then table
build, then JSON tree.  So a guard runs only when the json artifact
misses, which changes no verdict: an entry under this code tag exists
only for input this same code accepted.  `verify` is the check itself
and always runs.

A request runs only the code it reaches.  The payload builders and
renderers (`artifacts`), the exact kernel (`laurent`, `partitions`),
the cost guards (`costs`) and the table modules (`affine`, `bimodule`,
`closedform`, `hall`, `symfunc`, `traces`) are registered lazily
(`_lazy`): each is in `sys.modules` from import on, and its body runs
at its first attribute access.  So an artifact hit runs only `mirahall`, `errors`, `config`,
`cache` and this module, and imports no `json`; a request served from
the json artifact runs `artifacts` and at most `laurent` besides (for
the render), and a refused request `artifacts` and `costs` (with
`partitions`, for a label count) but no table module.  Each request
adds the arguments of its own subcommand only (`_Subcommand`).  The
suites behind `verify` live in `checks`, which this module imports only
when `verify_payload` runs, so a serving request never loads them or
the counting oracles.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from typing import Sequence

from . import cache
from .config import (
    FORMATS,
    RunConfig,
    bplabel,
    check_prime,
    parse_bipartition,
    parse_partition,
    parse_primes,
    plabel,
    read_config_file,
    resolve,
)
from .errors import IOFailure, MiraError, UsageError


def _lazy(name: str):
    """The module `mirahall.<name>`, registered in `sys.modules` (and on
    the package) without running its body, which runs at the first
    attribute access; a module already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Every module a request can reach is in sys.modules from import on
# (perfbench/traced.py wraps the modules it finds there), symfunc too,
# which no payload calls; `artifacts` reads the others from the package.
for _name in ("laurent", "partitions", "costs", "affine", "bimodule",
              "closedform", "hall", "symfunc", "traces"):
    _lazy(_name)
artifacts = _lazy("artifacts")

SUITES = ("census", "constants", "hall", "pi", "classical", "trace", "rho", "green",
          "iwahori")


# --- verify and output ----------------------------------------------------------


def verify_payload(suites: Sequence[str], cfg: RunConfig) -> dict:
    """Run the named suites of `checks`; see `checks.verify_payload`."""
    from . import checks

    return checks.verify_payload(suites, cfg)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"cannot write {out}: {exc}") from exc


# --- argument parsing -----------------------------------------------------------


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments (`add_arguments`)
    when it first parses: a request builds only its own subcommand's."""

    def __init__(self, *, add_arguments=None, **kwargs):
        super().__init__(**kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
    sp.add_argument("--out", default=None, help="artifact file (default stdout)")
    sp.add_argument("--cache-dir", dest="cache_dir", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("-v", "--verbose", action="count", default=None)


def _size_rank(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--N", dest="rank", type=int, default=None)
    _add_common(sp)


def _size_field(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    _add_common(sp)


def _hall_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x", required=True, help="partition, e.g. '2,1'")
    sp.add_argument("--y", required=True, help="partition, e.g. '1'")
    sp.add_argument("--N", dest="rank", type=int, default=None)
    _add_common(sp)


def _mirabolic_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--src", required=True, help="bipartition, e.g. '|1' or '2|1'")
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--side", choices=("left", "right"), default="left")
    sp.add_argument("--N", dest="rank", type=int, default=None)
    _add_common(sp)


def _iwahori_args(sp: argparse.ArgumentParser) -> None:
    isub = sp.add_subparsers(dest="icmd", required=True)
    mp = isub.add_parser("mult", help="product table with case assignments")
    mp.add_argument("--N", type=int, default=2)
    mp.add_argument("--window", type=int, default=None)
    _add_common(mp)


def _verify_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--suite", default="all", help="one of %s or all" % (SUITES,))
    sp.add_argument("--qs", default=None, help="comma-separated primes")
    sp.add_argument("--max-n", dest="max_n", type=int, default=None)
    _add_common(sp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirahall",
        description="Exact tables for the mirabolic Hall bimodule and its traces.",
    )
    parser.add_argument("--config", default=None, help="key=value file; flags win")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Subcommand)
    for name, (text, add_arguments, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=text, add_arguments=add_arguments)
    return parser


_CONFIG_KEYS = ("n", "rank", "max_n", "window", "fmt", "cache_dir", "seed")


def _flag_values(args: argparse.Namespace) -> dict:
    out = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    qs = getattr(args, "qs", None)
    if qs is not None:
        out["primes"] = parse_primes(qs)
    verbose = getattr(args, "verbose", None)
    if verbose is not None:
        out["verbosity"] = verbose
    return out


# --- handlers -------------------------------------------------------------------


def _field_size(args: argparse.Namespace, cfg: RunConfig) -> int:
    """--q, or the first configured prime; the field must be prime."""
    return cfg.primes[0] if args.q is None else check_prime(args.q)


def _serve_cached(kind: str, params: dict, build, args: argparse.Namespace,
                  cfg: RunConfig) -> int:
    """Emit the stored artifact of `kind` at `params` plus the requested
    format.  On a miss, render it from the parsed json artifact, or from
    `build()` (cost guard, table build), whose json artifact is then
    rendered and stored too; then store it."""
    key = {**params, "format": cfg.fmt}
    text = cache.load(kind, key, cfg.cache_dir)
    if text is None:
        json_key = {**params, "format": "json"}
        stored = None if key == json_key else cache.load(kind, json_key, cfg.cache_dir)
        if stored is None:
            tree = build()
            text = artifacts.render(tree, cfg.fmt)
            if key != json_key:
                # rendered second: the pieces this render frees would
                # leave gaps that the requested render grows past
                cache.store(kind, json_key, artifacts.render(tree, "json"), cfg.cache_dir)
        else:
            import json  # only here: an artifact hit never loads json

            tree = json.loads(stored)
            del stored  # not held through the render
            text = artifacts.render(tree, cfg.fmt)
        cache.store(kind, key, text, cfg.cache_dir)
    _emit(text, args.out)
    return 0


def _cmd_pi(args: argparse.Namespace, cfg: RunConfig) -> int:
    n, rank = cfg.n, cfg.resolved_rank()
    return _serve_cached("pi", {"n": n, "N": rank},
                         lambda: artifacts.pi_payload(n, rank), args, cfg)


def _cmd_mhl(args: argparse.Namespace, cfg: RunConfig) -> int:
    n, rank = cfg.n, cfg.resolved_rank()
    # every label of size n has a two-sided polynomial only at rank >= n
    if rank < n:
        raise UsageError(f"mhl needs --N >= n, got n={n}, N={rank}")
    return _serve_cached("mhl", {"n": n, "N": rank},
                         lambda: artifacts.mhl_payload(n, rank), args, cfg)


def _cmd_trace(args: argparse.Namespace, cfg: RunConfig) -> int:
    n, q = cfg.n, _field_size(args, cfg)
    return _serve_cached("trace", {"n": n, "q": q},
                         lambda: artifacts.trace_payload(n, q), args, cfg)


def _cmd_hall(args: argparse.Namespace, cfg: RunConfig) -> int:
    x, y = parse_partition(args.x), parse_partition(args.y)
    rank = cfg.rank if cfg.rank else max(len(x) + len(y), 1)
    return _serve_cached("hall", {"x": plabel(x), "y": plabel(y), "N": rank},
                         lambda: artifacts.hall_payload(x, y, rank), args, cfg)


def _cmd_mirabolic(args: argparse.Namespace, cfg: RunConfig) -> int:
    src, r, side = parse_bipartition(args.src), args.r, args.side
    rank = cfg.rank if cfg.rank else sum(src[0]) + sum(src[1]) + r
    return _serve_cached("mirabolic", {"src": bplabel(src), "r": r, "side": side, "N": rank},
                         lambda: artifacts.mirabolic_payload(src, r, side, rank), args, cfg)


def _cmd_green(args: argparse.Namespace, cfg: RunConfig) -> int:
    n, q = cfg.n, _field_size(args, cfg)
    return _serve_cached("green", {"n": n, "q": q},
                         lambda: artifacts.green_payload(n, q), args, cfg)


def _cmd_iwahori(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.N < 2:
        raise UsageError(f"period must be at least 2, got {args.N}")
    N, window = args.N, cfg.window
    return _serve_cached("iwahori", {"N": N, "window": window},
                         lambda: artifacts.iwahori_payload(N, window), args, cfg)


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.suite == "all":
        suites: Sequence[str] = SUITES
    elif args.suite in SUITES:
        suites = (args.suite,)
    else:
        raise UsageError(f"suite {args.suite!r} not one of {SUITES} or all")
    payload = verify_payload(suites, cfg)
    _emit(artifacts.render(payload, cfg.fmt), args.out)
    return 0 if payload["passed"] else 1


# name: help line, arguments, handler
_SUBCOMMANDS = {
    "pi": ("calibrated transition table at one size", _size_rank, _cmd_pi),
    "mhl": ("two-sided deformed polynomials at one size", _size_rank, _cmd_mhl),
    "trace": ("trace table at one size and prime", _size_field, _cmd_trace),
    "hall": ("product of two plain classes", _hall_args, _cmd_hall),
    "mirabolic": ("structure constants on one source", _mirabolic_args, _cmd_mirabolic),
    "green": ("class-ring labels and freeness report", _size_field, _cmd_green),
    "iwahori": ("wall-crossing products at Iwahori level", _iwahori_args, _cmd_iwahori),
    "verify": ("run oracle suites and report", _verify_args, _cmd_verify),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg = resolve(file_values, _flag_values(args))
        return _SUBCOMMANDS[args.cmd][2](args, cfg)
    except UsageError as exc:
        print(f"mirahall: usage error: {exc}", file=sys.stderr)
        return 2
    except MiraError as exc:
        print(f"mirahall: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
