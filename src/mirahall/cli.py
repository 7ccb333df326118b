"""Command-line front end.

Every subcommand renders one deterministic artifact: the same invocation
produces the same bytes, whether the table came out of the cache or was
rebuilt.  Exit codes: 0 computed or verified, 1 a verification failed,
2 bad usage.

Every subcommand but `verify` serves through `_serve_cached`, from one
cache of rendered artifacts, each keyed by the table's parameters plus
`format`; a hit is written out as stored.  On a miss the requested
format is rendered from the parsed json artifact or, when that misses
too, from the payload builder's tree, which is then also stored as the
json artifact.  The payload builders (`pi_payload` ...
`iwahori_payload`) are pure: cost guard (in `costs`), then table
build, then JSON tree.  So a guard runs only when the json artifact
misses, which changes no verdict: an entry under this code tag exists
only for input this same code accepted.  `verify` is the check itself and always runs.

A request runs only the code it reaches.  The exact kernel (`laurent`,
`partitions`), the cost guards (`costs`) and the table modules
(`affine`, `bimodule`, `closedform`, `hall`, `symfunc`, `traces`) are
registered lazily (`_lazy`): each is in `sys.modules` from import on,
and its body runs at its first attribute access.  So an artifact hit
runs only `mirahall`, `errors`, `config`, `cache` and this module, a
request served from the json artifact at most `laurent` besides (for
the render), and a refused request `costs` (with `partitions`, for a
label count) but no table module.  The suites behind `verify` live in
`checks`, which this module imports only when `verify_payload` runs,
so a serving request never loads them or the counting oracles.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

from . import cache
from .config import (
    FORMATS,
    RunConfig,
    check_prime,
    parse_primes,
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


laurent = _lazy("laurent")
partitions = _lazy("partitions")
costs = _lazy("costs")
affine = _lazy("affine")
bimodule = _lazy("bimodule")
closedform = _lazy("closedform")
hall = _lazy("hall")
traces = _lazy("traces")
# no payload calls into symfunc; it is registered with the other table
# modules so that every module a request can reach is in sys.modules
# from import on (perfbench/traced.py wraps the modules it finds there)
_lazy("symfunc")

SUITES = (
    "census",
    "constants",
    "hall",
    "pi",
    "classical",
    "trace",
    "rho",
    "green",
    "iwahori",
)


# --- labels -----------------------------------------------------------------


def plabel(lam) -> str:
    return "(" + ",".join(str(part) for part in lam) + ")"


@lru_cache(maxsize=None)
def bplabel(bp) -> str:
    # memoised: a square table names each of its labels once per cell
    return f"{plabel(bp[0])}|{plabel(bp[1])}"


def parse_partition(text: str):
    body = text.strip().strip("()")
    if not body:
        return ()
    try:
        parts = tuple(int(tok) for tok in body.split(","))
    except ValueError:
        raise UsageError(f"bad partition {text!r}") from None
    if any(a < b for a, b in zip(parts, parts[1:])) or any(p < 0 for p in parts):
        raise UsageError(f"parts must be weakly decreasing and nonnegative: {text!r}")
    # the parts decrease weakly, so the zeros trail; dropping them here
    # leaves `partitions` unrun on an artifact hit
    return tuple(p for p in parts if p)


def parse_bipartition(text: str):
    if text.count("|") != 1:
        raise UsageError(f"bipartition must look like '2,1|1', got {text!r}")
    left, right = text.split("|")
    return parse_partition(left), parse_partition(right)


def _ilabel(x) -> dict:
    return {
        "window": list(x.w.window),
        "lo": x.beta.lo,
        "extra": list(x.beta.extra),
    }


# --- payload builders ---------------------------------------------------------


def _nonzero_cells(table, entries: dict):
    """(row, col, value) of each nonzero entry, row-major in `table.order`."""
    for row in table.order:
        for col in table.order:
            val = entries.get((row, col))
            if val is not None and not val.is_zero():
                yield row, col, val


def pi_payload(n: int, rank: int) -> dict:
    costs.check_cost(n, rank)
    table = bimodule.pi_table(n, rank)

    def cells(tbl) -> list:
        return [
            {"row": bplabel(row), "col": bplabel(col), "coeff": val.to_json()}
            for row, col, val in _nonzero_cells(table, tbl)
        ]

    return {
        "kind": "pi",
        "n": n,
        "N": rank,
        "order": [bplabel(bp) for bp in table.order],
        "calibrated": cells(table.calibrated),
        "raw": cells(table.raw),
        "diag_units": [
            {"col": bplabel(col), "unit": table.diag_units[col].to_json()}
            for col in table.order
        ],
    }


def mhl_payload(n: int, rank: int) -> dict:
    # every label of size n has a two-sided polynomial only at rank >= n
    if rank < n:
        raise UsageError(f"mhl needs --N >= n, got n={n}, N={rank}")
    costs.check_cost(n, rank)
    entries = []
    for bp in partitions.bipartitions_of(n):
        tensor, prefactor = bimodule.mhl_poly(bp, rank)
        entries.append(
            {
                "label": bplabel(bp),
                "prefactor": prefactor.to_json(),
                "tensor": [
                    {"pair": bplabel(key), "coeff": val.to_json()}
                    for key, val in tensor.items()
                ],
            }
        )
    return {"kind": "mhl", "n": n, "N": rank, "entries": entries}


def trace_payload(n: int, q: int) -> dict:
    costs.check_cost(n)
    table = bimodule.pi_table(n, max(n, 1))
    cells = []
    for row, col, _ in _nonzero_cells(table, table.calibrated):
        plain, radical = traces.trace_value(col, row, table)
        cells.append(
            {
                "row": bplabel(row),
                "col": bplabel(col),
                "plain": plain.to_json(),
                "radical": radical.to_json(),
            }
        )
    return {
        "kind": "trace",
        "n": n,
        "q": q,
        "order": [bplabel(bp) for bp in table.order],
        "cells": cells,
    }


def hall_payload(x, y, rank: int) -> dict:
    if len(x) > rank or len(y) > rank:
        raise UsageError(f"shapes {x} and {y} need rank above {rank}")
    costs.check_hall_cost(x, y, rank)
    prod = hall.hall_mul(hall.u_elt(x, rank), hall.u_elt(y, rank))
    return {
        "kind": "hall",
        "N": rank,
        "x": plabel(x),
        "y": plabel(y),
        "terms": [
            {"label": plabel(lam), "coeff": c.to_json()} for lam, c in prod.items()
        ],
    }


def mirabolic_payload(src, r: int, side: str, rank: int) -> dict:
    if r < 1:
        raise UsageError(f"generator degree must be positive, got {r}")
    costs.check_size_cost(partitions.size(src[0]) + partitions.size(src[1]) + r)
    if side == "left":
        column = closedform.closed_left_column
    else:
        column = closedform.stable_right_column
    table = column(r, src, rank)
    terms = [{"label": bplabel(tgt), "coeff": c.to_json()} for tgt, c in table.items()]
    return {
        "kind": "mirabolic",
        "side": side,
        "r": r,
        "N": rank,
        "src": bplabel(src),
        "terms": terms,
    }


def green_payload(n: int, q: int) -> dict:
    # refused here, before `traces` runs; the freeness check guards its
    # library callers with the same count
    costs.check_green_cost(n, q)
    freeness = traces.green_freeness_check(n, q)
    return {
        "kind": "green",
        "n": n,
        "q": q,
        "labels": [lab.pretty() for lab in traces.green_labels(n, q)],
        "freeness": freeness,
    }


def iwahori_payload(N: int, window: int) -> dict:
    costs.check_universe_cost(N, window)
    # one JSON tree per label and coefficient, shared by every product
    # that names it
    label_tree = lru_cache(maxsize=None)(_ilabel)
    coeff_tree = lru_cache(maxsize=None)(laurent.QPoly.to_json)
    products = []
    for x in affine.universe(N, 1, window):
        for i in range(1, N + 1):
            prod = affine.ts_action(x, i)
            products.append(
                {
                    "source": label_tree(x),
                    "i": i,
                    "case": affine.pattern_check(x, i, prod),
                    # ts_action lists its terms in label order
                    "terms": [
                        {"target": label_tree(y), "coeff": coeff_tree(c)}
                        for y, c in prod.items()
                    ],
                }
            )
    return {
        "kind": "iwahori",
        "N": N,
        "window": window,
        # kept for a stable output format: the closed products take no
        # field size, and this reads the counting oracle's default primes
        "qs": list(affine.DEFAULT_PRIMES),
        "products": products,
    }


def verify_payload(suites: Sequence[str], cfg: RunConfig) -> dict:
    """Run the named suites of `checks`; see `checks.verify_payload`."""
    from . import checks

    return checks.verify_payload(suites, cfg)


# --- rendering ----------------------------------------------------------------


def _poly_cell(d: Mapping[str, int], cls=None) -> tuple[str, str]:
    poly = (cls or laurent.LaurentPoly).from_json(d)
    return poly.pretty(), f"${poly.latex()}$"


def _text_cell(text: str) -> tuple[str, str]:
    return text, rf"$\mathtt{{{text}}}$"


def _plain_cell(text) -> tuple[str, str]:
    return str(text), str(text)


def _trace_cell(cell: dict) -> tuple[str, str]:
    """plain(q) + radical(q)*sqrt(q), the radical left out when zero."""
    a = laurent.QPoly.from_json(cell["plain"])
    b = laurent.QPoly.from_json(cell["radical"])
    if b.is_zero():
        return a.pretty(), f"${a.latex()}$"
    return (f"{a.pretty()} + ({b.pretty()})*sqrt(q)",
            rf"${a.latex()} + ({b.latex()})\sqrt{{q}}$")


def _grid(payload: dict) -> tuple[list[str], list[list[tuple[str, str]]]]:
    kind = payload["kind"]
    if kind in ("pi", "trace"):
        listed = payload["calibrated"] if kind == "pi" else payload["cells"]
        text = (lambda c: _poly_cell(c["coeff"])) if kind == "pi" else _trace_cell
        cells = {(c["row"], c["col"]): text(c) for c in listed}
        order, zero = payload["order"], _plain_cell(0)
        rows = [
            [_text_cell(row)] + [cells.get((row, col), zero) for col in order]
            for row in order
        ]
        return [""] + order, rows
    if kind == "mhl":
        rows = [
            [_text_cell(entry["label"]), _poly_cell(entry["prefactor"]),
             _text_cell(term["pair"]), _poly_cell(term["coeff"])]
            for entry in payload["entries"]
            for term in entry["tensor"]
        ]
        return ["label", "prefactor", "pair", "coeff"], rows
    if kind in ("hall", "mirabolic"):
        cls = laurent.LaurentPoly if kind == "hall" else laurent.QPoly
        header = ["label", "coeff"]
        rows = [
            [_text_cell(term["label"]), _poly_cell(term["coeff"], cls)]
            for term in payload["terms"]
        ]
        return header, rows
    if kind == "green":
        header = ["field", "value"]
        rows = [[_plain_cell("label"), _text_cell(lab)] for lab in payload["labels"]]
        rows.append([_plain_cell("dimension"), _plain_cell(payload["freeness"]["dimension"])])
        rows.append([_plain_cell("passed"), _plain_cell(payload["freeness"]["passed"])])
        return header, rows
    if kind == "iwahori":
        header = ["source", "i", "case", "target", "coeff"]
        rows = []
        for prod in payload["products"]:
            src = json.dumps(prod["source"], sort_keys=True)
            for term in prod["terms"]:
                rows.append(
                    [
                        _plain_cell(src),
                        _plain_cell(prod["i"]),
                        _plain_cell(prod["case"]),
                        _plain_cell(json.dumps(term["target"], sort_keys=True)),
                        _poly_cell(term["coeff"], laurent.QPoly),
                    ]
                )
        return header, rows
    if kind == "verify":
        header = ["suite", "name", "status", "detail"]
        rows = [
            [
                _plain_cell(c["suite"]),
                _plain_cell(c["name"]),
                _plain_cell("PASS" if c["passed"] else "FAIL"),
                _plain_cell(c["detail"]),
            ]
            for c in payload["checks"]
        ]
        return header, rows
    raise UsageError(f"no tabular view for payload kind {kind!r}")


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def json_text(value, pad: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=1)` for a payload tree
    of dicts with str keys, lists, tuples, str, int, bool and None; any
    other value raises TypeError.  `pad` is the newline and indent that
    `value` sits at.  The standard library's indenting encoder is pure
    Python, one generator step per token; this joins each container's
    text once, brackets and separators included, so a large table is
    held as one string per product."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        chunks = ["{"]
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"payload key {key!r} is not a string")
            v = value[key]
            scalar = _SCALARS.get(type(v))
            chunks += (inner, encode_basestring_ascii(key), ": ",
                       scalar(v) if scalar else json_text(v, inner), ",")
        chunks[-1] = pad + "}"
        return "".join(chunks)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        chunks = ["["]
        for v in value:
            scalar = _SCALARS.get(type(v))
            chunks += (inner, scalar(v) if scalar else json_text(v, inner), ",")
        chunks[-1] = pad + "]"
        return "".join(chunks)
    raise TypeError(f"{type(value).__name__} is not a payload value")


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json_text(payload) + "\n"
    header, rows = _grid(payload)
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell[0] for cell in row])
        return buf.getvalue()
    if fmt == "latex":
        cols = "l" * len(header)
        lines = [
            r"\documentclass{article}",
            r"\usepackage{amsmath}",
            r"\begin{document}",
            r"\begin{center}",
            rf"\begin{{tabular}}{{{cols}}}",
            " & ".join(rf"$\mathtt{{{h}}}$" if h else "" for h in header) + r" \\",
            r"\hline",
        ]
        for row in rows:
            lines.append(" & ".join(cell[1] for cell in row) + r" \\")
        lines += [r"\end{tabular}", r"\end{center}", r"\end{document}"]
        return "\n".join(lines) + "\n"
    raise UsageError(f"format {fmt!r} not one of {FORMATS}")


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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
    sp.add_argument("--out", default=None, help="artifact file (default stdout)")
    sp.add_argument("--cache-dir", dest="cache_dir", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("-v", "--verbose", action="count", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirahall",
        description="Exact tables for the mirabolic Hall bimodule and its traces.",
    )
    parser.add_argument("--config", default=None, help="key=value file; flags win")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("pi", help="calibrated transition table at one size")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--N", dest="rank", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("mhl", help="two-sided deformed polynomials at one size")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--N", dest="rank", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("trace", help="trace table at one size and prime")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("hall", help="product of two plain classes")
    sp.add_argument("--x", required=True, help="partition, e.g. '2,1'")
    sp.add_argument("--y", required=True, help="partition, e.g. '1'")
    sp.add_argument("--N", dest="rank", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("mirabolic", help="structure constants on one source")
    sp.add_argument("--src", required=True, help="bipartition, e.g. '|1' or '2|1'")
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--side", choices=("left", "right"), default="left")
    sp.add_argument("--N", dest="rank", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("green", help="class-ring labels and freeness report")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("iwahori", help="wall-crossing products at Iwahori level")
    isub = sp.add_subparsers(dest="icmd", required=True)
    mp = isub.add_parser("mult", help="product table with case assignments")
    mp.add_argument("--N", type=int, default=2)
    mp.add_argument("--window", type=int, default=None)
    _add_common(mp)

    sp = sub.add_parser("verify", help="run oracle suites and report")
    sp.add_argument("--suite", default="all", help="one of %s or all" % (SUITES,))
    sp.add_argument("--qs", default=None, help="comma-separated primes")
    sp.add_argument("--max-n", dest="max_n", type=int, default=None)
    _add_common(sp)

    return parser


_CONFIG_KEYS = ("n", "rank", "max_n", "window", "fmt", "cache_dir", "seed")


def _flag_values(args: argparse.Namespace) -> dict:
    out = {}
    for key in _CONFIG_KEYS:
        out[key] = getattr(args, key, None)
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
            text = render(tree, cfg.fmt)
            if key != json_key:
                # rendered second: the pieces this render frees would
                # leave gaps that the requested render grows past
                cache.store(kind, json_key, render(tree, "json"), cfg.cache_dir)
        else:
            tree = json.loads(stored)
            del stored  # not held through the render
            text = render(tree, cfg.fmt)
        cache.store(kind, key, text, cfg.cache_dir)
    _emit(text, args.out)
    return 0


def _cmd_pi(args: argparse.Namespace, cfg: RunConfig) -> int:
    n, rank = cfg.n, cfg.resolved_rank()
    return _serve_cached("pi", {"n": n, "N": rank},
                         lambda: pi_payload(n, rank), args, cfg)


def _cmd_mhl(args: argparse.Namespace, cfg: RunConfig) -> int:
    n, rank = cfg.n, cfg.resolved_rank()
    return _serve_cached("mhl", {"n": n, "N": rank},
                         lambda: mhl_payload(n, rank), args, cfg)


def _cmd_trace(args: argparse.Namespace, cfg: RunConfig) -> int:
    n, q = cfg.n, _field_size(args, cfg)
    return _serve_cached("trace", {"n": n, "q": q},
                         lambda: trace_payload(n, q), args, cfg)


def _cmd_hall(args: argparse.Namespace, cfg: RunConfig) -> int:
    x, y = parse_partition(args.x), parse_partition(args.y)
    rank = cfg.rank if cfg.rank else max(len(x) + len(y), 1)
    return _serve_cached("hall", {"x": plabel(x), "y": plabel(y), "N": rank},
                         lambda: hall_payload(x, y, rank), args, cfg)


def _cmd_mirabolic(args: argparse.Namespace, cfg: RunConfig) -> int:
    src, r, side = parse_bipartition(args.src), args.r, args.side
    rank = cfg.rank if cfg.rank else sum(src[0]) + sum(src[1]) + r
    return _serve_cached("mirabolic", {"src": bplabel(src), "r": r, "side": side, "N": rank},
                         lambda: mirabolic_payload(src, r, side, rank), args, cfg)


def _cmd_green(args: argparse.Namespace, cfg: RunConfig) -> int:
    n, q = cfg.n, _field_size(args, cfg)
    return _serve_cached("green", {"n": n, "q": q},
                         lambda: green_payload(n, q), args, cfg)


def _cmd_iwahori(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.N < 2:
        raise UsageError(f"period must be at least 2, got {args.N}")
    N, window = args.N, cfg.window
    return _serve_cached("iwahori", {"N": N, "window": window},
                         lambda: iwahori_payload(N, window), args, cfg)


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.suite == "all":
        suites: Sequence[str] = SUITES
    elif args.suite in SUITES:
        suites = (args.suite,)
    else:
        raise UsageError(f"suite {args.suite!r} not one of {SUITES} or all")
    payload = verify_payload(suites, cfg)
    _emit(render(payload, cfg.fmt), args.out)
    return 0 if payload["passed"] else 1


_HANDLERS = {
    "pi": _cmd_pi,
    "mhl": _cmd_mhl,
    "trace": _cmd_trace,
    "hall": _cmd_hall,
    "mirabolic": _cmd_mirabolic,
    "green": _cmd_green,
    "iwahori": _cmd_iwahori,
    "verify": _cmd_verify,
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
        return _HANDLERS[args.cmd](args, cfg)
    except UsageError as exc:
        print(f"mirahall: usage error: {exc}", file=sys.stderr)
        return 2
    except MiraError as exc:
        print(f"mirahall: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
