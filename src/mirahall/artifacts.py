"""The payload builders and renderers that a cache miss runs.

A payload builder (`pi_payload` ... `iwahori_payload`) is pure: cost
guard (in `costs`), then table build, then JSON tree; `render` writes a
tree in one of FORMATS, json through `json_text`.  `cli` registers this
module lazily, so an artifact hit never runs it.  It never imports
`cli`, which under `python -m mirahall.cli` is `__main__` and would run
twice; it reads the kernel and table modules from the package, which
keeps each of them lazy until its first use.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Mapping

from . import affine, bimodule, closedform, costs, hall, laurent, partitions, traces
from .config import FORMATS, bplabel, plabel
from .errors import UsageError


# --- payload builders ---------------------------------------------------------


def _ilabel(x) -> dict:
    return {
        "window": list(x.w.window),
        "lo": x.beta.lo,
        "extra": list(x.beta.extra),
    }


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
    # `cli` refuses rank < n first, as a usage error; below its size
    # `bimodule.mhl_poly` raises RankTooSmall
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
    # one text per distinct coefficient (and iwahori label) per render;
    # kept local, as a module-level memo would grow with every table
    texts = {}

    def poly(d: Mapping[str, int], cls=None) -> tuple[str, str]:
        key = (cls, *d.items())
        cell = texts.get(key)
        if cell is None:
            cell = texts[key] = _poly_cell(d, cls)
        return cell

    if kind in ("pi", "trace"):
        listed = payload["calibrated"] if kind == "pi" else payload["cells"]
        text = (lambda c: poly(c["coeff"])) if kind == "pi" else _trace_cell
        cells = {(c["row"], c["col"]): text(c) for c in listed}
        order, zero = payload["order"], _plain_cell(0)
        rows = [
            [_text_cell(row)] + [cells.get((row, col), zero) for col in order]
            for row in order
        ]
        return [""] + order, rows
    if kind == "mhl":
        rows = [
            [_text_cell(entry["label"]), poly(entry["prefactor"]),
             _text_cell(term["pair"]), poly(term["coeff"])]
            for entry in payload["entries"]
            for term in entry["tensor"]
        ]
        return ["label", "prefactor", "pair", "coeff"], rows
    if kind in ("hall", "mirabolic"):
        cls = laurent.LaurentPoly if kind == "hall" else laurent.QPoly
        header = ["label", "coeff"]
        rows = [
            [_text_cell(term["label"]), poly(term["coeff"], cls)]
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
        labels = {}

        def label(d: dict) -> tuple[str, str]:
            key = (tuple(d["window"]), d["lo"], tuple(d["extra"]))
            cell = labels.get(key)
            if cell is None:
                cell = labels[key] = _plain_cell(json.dumps(d, sort_keys=True))
            return cell

        rows = []
        for prod in payload["products"]:
            src = label(prod["source"])
            for term in prod["terms"]:
                rows.append(
                    [
                        src,
                        _plain_cell(prod["i"]),
                        _plain_cell(prod["case"]),
                        label(term["target"]),
                        poly(term["coeff"], laurent.QPoly),
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
