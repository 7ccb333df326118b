"""`mirahall trace`: the calibrated table read at v = √q, as a payload
and as rows."""

from . import bimodule, costs, laurent
from .artifacts import _cell_texts, _square_rows
from .config import bplabel


def payload(n: int, q: int) -> dict:
    costs.check_cost(n)
    table = bimodule.pi_table(n, max(n, 1))
    cells = []
    for row, col, val in table.nonzero_cells():
        plain, radical = bimodule.trace_value(col, row, val)
        cells.append({"row": bplabel(row), "col": bplabel(col),
                      "plain": plain.to_json(), "radical": radical.to_json()})
    order = [bplabel(bp) for bp in table.order]
    return {"kind": "trace", "n": n, "q": q, "order": order, "cells": cells}


def _cell(cell: dict, fmt: str) -> str:
    """plain(q) + radical(q)*sqrt(q), the radical left out when zero."""
    a = laurent.QPoly.from_json(cell["plain"])
    b = laurent.QPoly.from_json(cell["radical"])
    if fmt == "csv":
        text = a.pretty()
        return text if b.is_zero() else f"{text} + ({b.pretty()})*sqrt(q)"
    text = a.latex()
    return f"${text}$" if b.is_zero() else rf"${text} + ({b.latex()})\sqrt{{q}}$"


def rows(tree: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    once, _ = _cell_texts(fmt)
    cells = {
        (c["row"], c["col"]): once((tuple(c["plain"].items()), tuple(c["radical"].items())),
                                   lambda: _cell(c, fmt))
        for c in tree["cells"]
    }
    return _square_rows(tree["order"], cells, fmt)
