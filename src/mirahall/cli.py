"""Command-line front end: the part of the CLI that every request runs.

Every subcommand renders one deterministic artifact: the same invocation
produces the same bytes, whether the table came out of the cache or was
rebuilt.  Exit codes: 0 computed or verified, 1 a verification failed,
2 bad usage.

`parse_args` reads canonical argv (exact flags, each value after "=" or
in a token of its own) from one option table (`_SUBCOMMANDS`) into the
namespace argparse would make.  argparse, built from the same table
(`usage`), reads every argv that `parse_args` declines (prefixes, `-vv`,
values that start with "-", `--`, `-h`), and prints help and usage
errors.  Every subcommand but `verify` serves through
`_serve_cached`, from the cache of rendered artifacts; the renderers
(`artifacts`), each subcommand's payload builder and rows (its own
`serve_<subcommand>`, so a miss compiles no other's), the guards
(`costs`), the kernel and the table modules are registered lazily
(`_lazy`), so an artifact hit runs only `mirahall`, `errors`, `config`,
`cache` and this module.
A process ends through `entry`: `main()`, then `gc.freeze()`, so the
collections of interpreter shutdown skip the whole heap (which teardown
still frees by reference count), then `sys.exit`; not `os._exit`, which
would skip `atexit` and the report of a failed flush of stdout.
"""

import gc
import importlib.util
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from . import cache
from .config import (FORMATS, RunConfig, bplabel, check_prime, parse_bipartition,
                     parse_partition, parse_primes, plabel, read_config_file, resolve)
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


# Every module a request can reach is in sys.modules from import on, for perfbench/traced.py
# to wrap (symfunc through `hall.c_expand`, on every `pi`, `mhl` and `trace` build);
# `artifacts` and the serving modules (`_SERVE`) read them from the package.
for _name in ("laurent", "combination", "partitions", "costs", "affine", "bimodule",
              "closedform", "hall", "symfunc", "traces"):
    _lazy(_name)
artifacts = _lazy("artifacts")

# the suites of `checks._SUITE_RUNNERS`, in report order: `verify` checks --suite without numpy
SUITES = ("census", "constants", "hall", "pi", "classical", "trace", "rho", "green",
          "iwahori")


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


# --- the option table, its parser, and the handlers ----------------------------


def _option(flags: str, dest: str = "", type=str, default=None, choices=None,
            required: bool = False, help: str | None = None) -> tuple:
    """A row of the option table: flags, namespace attribute, the type
    that reads the value (None: the flag counts its uses), default,
    allowed values, required, help line."""
    names = tuple(flags.split())
    return (names, dest or names[-1].lstrip("-").replace("-", "_"), type, default,
            choices, required, help)


_TOP = (_option("--config", help="key=value file; flags win"),)
_SIZE, _FIELD = _option("--n", type=int), _option("--q", type=int)
_RANK = _option("--N", "rank", type=int)
_COMMON = (
    _option("--format", "fmt", choices=FORMATS),
    _option("--out", help="artifact file (default stdout)"),
    _option("--cache-dir"),
    _option("--seed", type=int),
    _option("-v --verbose", type=None),
)


def _read(argv: list, i: int, options: tuple, ns: SimpleNamespace) -> int:
    """Read `options` from argv[i:] into `ns` up to the first token that
    does not start with "-", and return its index; -1 at a flag that is
    not exact, a value that starts with "-" or fails its type or choices,
    and a missing required option."""
    flags = {}
    for option in options:
        flags.update(dict.fromkeys(option[0], option))
        setattr(ns, option[1], option[3])
    given = set()
    while i < len(argv) and argv[i].startswith("-"):
        flag, eq, value = argv[i].partition("=")
        option = flags.get(flag)
        if option is None or option[2] is None and eq:  # a counted flag takes no value
            return -1
        if option[2] is None:
            setattr(ns, option[1], (getattr(ns, option[1]) or 0) + 1)
        else:  # a flag that takes a value
            if not eq:
                i += 1
                if i == len(argv) or argv[i].startswith("-"):
                    return -1
                value = argv[i]
            try:
                value = option[2](value)
            except ValueError:
                return -1
            if option[4] is not None and value not in option[4]:
                return -1
            setattr(ns, option[1], value)
            given.add(option[1])
        i += 1
    return -1 if any(o[5] and o[1] not in given for o in options) else i


def parse_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace of `build_parser().parse_args(argv)` where argv
    names every flag exactly and no value starts with "-"; None where
    argparse prints help or a usage error, and at any flag that `_read`
    declines."""
    ns = SimpleNamespace()
    i = _read(argv, 0, _TOP, ns)
    if not 0 <= i < len(argv) or argv[i] not in _SUBCOMMANDS:
        return None
    ns.cmd, i = argv[i], i + 1
    if ns.cmd in _WORDS:
        if i == len(argv) or argv[i] not in _WORDS[ns.cmd]:
            return None
        ns.icmd, i = argv[i], i + 1
    return ns if _read(argv, i, _SUBCOMMANDS[ns.cmd][1], ns) == len(argv) else None


def build_parser():
    """argparse built from the option table (`usage.build_parser`)."""
    from . import usage

    return usage.build_parser(_TOP, _SUBCOMMANDS, _WORDS)


def _flag_values(args: SimpleNamespace) -> dict:
    out = {key: getattr(args, key, None)
           for key in ("n", "rank", "max_n", "window", "fmt", "cache_dir", "seed")}
    qs = getattr(args, "qs", None)
    out["primes"] = None if qs is None else parse_primes(qs)
    out["verbosity"] = getattr(args, "verbose", None)
    return out


def _field_size(args: SimpleNamespace, cfg: RunConfig) -> int:
    """--q, or the first configured prime; the field must be prime."""
    return cfg.primes[0] if args.q is None else check_prime(args.q)


def _serve_cached(kind: str, params: dict, build, args: SimpleNamespace,
                  cfg: RunConfig) -> int:
    """Emit the stored artifact of `kind` at `params` and format; on a
    miss render it from the stored json artifact, or from `build()`
    (guard, table, tree), storing the json artifact too; then store it."""
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
            import json  # only here: no hit and no miss built from its table loads json

            tree = json.loads(stored)
            del stored  # not held through the render
            text = artifacts.render(tree, cfg.fmt)
        cache.store(kind, key, text, cfg.cache_dir)
    _emit(text, args.out)
    return 0


def _cmd_pi(args: SimpleNamespace, cfg: RunConfig) -> int:
    n, rank = cfg.n, cfg.resolved_rank()
    return _serve_cached("pi", {"n": n, "N": rank},
                         lambda: _SERVE["pi"].payload(n, rank), args, cfg)


def _cmd_mhl(args: SimpleNamespace, cfg: RunConfig) -> int:
    n, rank = cfg.n, cfg.resolved_rank()
    # every label of size n has a two-sided polynomial only at rank >= n
    if rank < n:
        raise UsageError(f"mhl needs --N >= n, got n={n}, N={rank}")
    return _serve_cached("mhl", {"n": n, "N": rank},
                         lambda: _SERVE["mhl"].payload(n, rank), args, cfg)


def _cmd_trace(args: SimpleNamespace, cfg: RunConfig) -> int:
    n, q = cfg.n, _field_size(args, cfg)
    return _serve_cached("trace", {"n": n, "q": q},
                         lambda: _SERVE["trace"].payload(n, q), args, cfg)


def _cmd_hall(args: SimpleNamespace, cfg: RunConfig) -> int:
    x, y = parse_partition(args.x), parse_partition(args.y)
    rank = cfg.rank if cfg.rank else max(len(x) + len(y), 1)
    return _serve_cached("hall", {"x": plabel(x), "y": plabel(y), "N": rank},
                         lambda: _SERVE["hall"].payload(x, y, rank), args, cfg)


def _cmd_mirabolic(args: SimpleNamespace, cfg: RunConfig) -> int:
    src, r, side = parse_bipartition(args.src), args.r, args.side
    rank = cfg.rank if cfg.rank else sum(src[0]) + sum(src[1]) + r
    return _serve_cached("mirabolic", {"src": bplabel(src), "r": r, "side": side, "N": rank},
                         lambda: _SERVE["mirabolic"].payload(src, r, side, rank), args, cfg)


def _cmd_green(args: SimpleNamespace, cfg: RunConfig) -> int:
    n, q = cfg.n, _field_size(args, cfg)
    return _serve_cached("green", {"n": n, "q": q},
                         lambda: _SERVE["green"].payload(n, q), args, cfg)


def _cmd_iwahori(args: SimpleNamespace, cfg: RunConfig) -> int:
    if args.N < 2:
        raise UsageError(f"period must be at least 2, got {args.N}")
    N, window = args.N, cfg.window
    return _serve_cached("iwahori", {"N": N, "window": window},
                         lambda: _SERVE["iwahori"].payload(N, window), args, cfg)


def _cmd_verify(args: SimpleNamespace, cfg: RunConfig) -> int:
    if args.suite == "all":
        suites: Sequence[str] = SUITES
    elif args.suite in SUITES:
        suites = (args.suite,)
    else:
        raise UsageError(f"suite {args.suite!r} not one of {SUITES} or all")
    payload = verify_payload(suites, cfg)
    _emit(artifacts.render(payload, cfg.fmt), args.out)
    return 0 if payload["passed"] else 1


# name: help line, options, handler
_SUBCOMMANDS = {
    "pi": ("calibrated transition table at one size", (_SIZE, _RANK, *_COMMON), _cmd_pi),
    "mhl": ("two-sided deformed polynomials at one size", (_SIZE, _RANK, *_COMMON),
            _cmd_mhl),
    "trace": ("trace table at one size and prime", (_SIZE, _FIELD, *_COMMON), _cmd_trace),
    "hall": ("product of two plain classes", (
        _option("--x", required=True, help="partition, e.g. '2,1'"),
        _option("--y", required=True, help="partition, e.g. '1'"),
        _RANK, *_COMMON), _cmd_hall),
    "mirabolic": ("structure constants on one source", (
        _option("--src", required=True, help="bipartition, e.g. '|1' or '2|1'"),
        _option("--r", type=int, default=1),
        _option("--side", choices=("left", "right"), default="left"),
        _RANK, *_COMMON), _cmd_mirabolic),
    "green": ("class-ring labels and freeness report", (_SIZE, _FIELD, *_COMMON),
              _cmd_green),
    "iwahori": ("wall-crossing products at Iwahori level", (
        _option("--N", type=int, default=2), _option("--window", type=int),
        *_COMMON), _cmd_iwahori),
    "verify": ("run oracle suites and report", (
        _option("--suite", default="all", help="one of %s or all" % (SUITES,)),
        _option("--qs", help="comma-separated primes"),
        _option("--max-n", type=int), *_COMMON), _cmd_verify),
}

# each subcommand's payload builder and rows (`serve_<name>`), all but verify's
_SERVE = {name: _lazy(f"serve_{name}") for name in _SUBCOMMANDS if name != "verify"}

# words a subcommand reads before its options, into `icmd`: word: help line
_WORDS = {"iwahori": {"mult": "product table with case assignments"}}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if args is None:
        try:  # argparse reads the rest, or prints the help or the usage error
            args = build_parser().parse_args(argv)
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


def entry() -> None:
    """The process entry (`python -m mirahall.cli`, the `mirahall` script);
    `main` itself never freezes, for the callers that stay in process."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
