"""The renderers that every cache miss runs.

A subcommand's pure payload builder (cost guard, then table build, then
JSON tree) and its csv and latex rows are its own module's,
`serve_<subcommand>` (`payload`, `rows`), so a miss compiles no other
subcommand's.  `render` writes a tree in one of FORMATS, json through
`json_text` (whose string encoder is `_json`'s, so a miss built from its
table loads no `json` package), csv and latex each in its own format
only, one text per distinct cell.  `cli` registers this module and the serving modules
lazily, so an artifact hit never runs them.  They never import `cli`,
which under `python -m mirahall.cli` is `__main__` and would run twice;
they read the kernel and table modules from the package, which keeps
each of them lazy until its first use.
"""

import importlib
from typing import Mapping

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter built without the accelerator
    from json.encoder import encode_basestring_ascii

from . import laurent
from .config import FORMATS
from .errors import UsageError


def _poly_cell(d: Mapping[str, int], fmt: str, cls=None) -> str:
    poly = (cls or laurent.LaurentPoly).from_json(d)
    return poly.pretty() if fmt == "csv" else f"${poly.latex()}$"


def _text_cell(text: str, fmt: str) -> str:
    return text if fmt == "csv" else rf"$\mathtt{{{text}}}$"


def _cell_texts(fmt: str):
    """`once(key, make)`, the text `make()` made once per key, and
    `poly(d, cls)`, a coefficient's text in `fmt` once per distinct one:
    one text per distinct cell per render, kept local, as a module-level
    memo would grow with every table."""
    texts = {}

    def once(key, make) -> str:
        cell = texts.get(key)
        if cell is None:
            cell = texts[key] = make()
        return cell

    def poly(d: Mapping[str, int], cls=None) -> str:
        return once((cls, *d.items()), lambda: _poly_cell(d, fmt, cls))

    return once, poly


def _square_rows(order: list, cells: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    """A table over `order` both ways (`pi`, `trace`): each row's label,
    then its cells' texts, "0" where `cells` holds none."""
    rows = [
        [_text_cell(row, fmt)] + [cells.get((row, col), "0") for col in order]
        for row in order
    ]
    return [""] + order, rows


def _term_rows(payload: dict, fmt: str, cls) -> tuple[list[str], list[list[str]]]:
    """One row per term (`hall`, `mirabolic`): its label and coefficient."""
    _, poly = _cell_texts(fmt)
    rows = [[_text_cell(t["label"], fmt), poly(t["coeff"], cls)] for t in payload["terms"]]
    return ["label", "coeff"], rows


def _grid(payload: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of cell texts, each cell in `fmt`."""
    kind = payload["kind"]
    if kind == "verify":
        header = ["suite", "name", "status", "detail"]
        # suite, name and detail are strings in every report
        rows = [
            [c["suite"], c["name"], "PASS" if c["passed"] else "FAIL", c["detail"]]
            for c in payload["checks"]
        ]
        return header, rows
    try:
        module = importlib.import_module(f"{__package__}.serve_{kind}")
    except ModuleNotFoundError:
        raise UsageError(f"no tabular view for payload kind {kind!r}") from None
    return module.rows(payload, fmt)


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


class Shared(dict):
    """A subtree that one payload tree holds at many places (an iwahori
    label or coefficient, a `pi` cell); `json_text` encodes it once per indent."""

    __slots__ = ()


def json_text(value, pad: str = "\n", texts: dict | None = None) -> str:
    """`json.dumps(value, sort_keys=True, indent=1)` for a payload tree
    of dicts with str keys, lists, tuples, str, int, bool and None; any
    other value raises TypeError.  `pad` is the newline and indent that
    `value` sits at, and `texts` the text of each `Shared` subtree met
    so far in this render, by indent and id.  The standard library's
    indenting encoder is pure Python, one generator step per token; this
    joins each container's text once, brackets and separators included,
    so a large table is held as one string per product."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    texts = {} if texts is None else texts
    inner = pad + " "
    known = texts.get(inner)  # by id, at the indent of `value`'s items
    if known is None:
        known = texts[inner] = {}
    if isinstance(value, dict):
        if not value:
            return "{}"
        chunks = ["{"]
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"payload key {key!r} is not a string")
            v = value[key]
            scalar = _SCALARS.get(type(v))
            chunks += (inner, encode_basestring_ascii(key), ": ", scalar(v) if scalar
                       else known.get(id(v)) or json_text(v, inner, texts), ",")
        chunks[-1] = pad + "}"
        if pad == "\n":  # the whole tree: no subtree is met again
            texts.clear()
        text = "".join(chunks)
        if type(value) is Shared:
            texts.setdefault(pad, {})[id(value)] = text
        return text
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        chunks = ["["]
        for v in value:
            scalar = _SCALARS.get(type(v))
            chunks += (inner, scalar(v) if scalar
                       else known.get(id(v)) or json_text(v, inner, texts), ",")
        chunks[-1] = pad + "]"
        return "".join(chunks)
    raise TypeError(f"{type(value).__name__} is not a payload value")


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json_text(payload) + "\n"
    if fmt not in FORMATS:
        raise UsageError(f"format {fmt!r} not one of {FORMATS}")
    header, rows = _grid(payload, fmt)
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    cols = "l" * len(header)
    lines = [
        r"\documentclass{article}",
        r"\usepackage{amsmath}",
        r"\begin{document}",
        r"\begin{center}",
        rf"\begin{{tabular}}{{{cols}}}",
        " & ".join(_text_cell(h, fmt) if h else "" for h in header) + r" \\",
        r"\hline",
    ]
    lines += [" & ".join(row) + r" \\" for row in rows]
    lines += [r"\end{tabular}", r"\end{center}", r"\end{document}"]
    return "\n".join(lines) + "\n"
