"""`mirahall mirabolic`: the structure constants on one source, as a
payload and as rows."""

from . import closedform, costs, laurent, partitions
from .artifacts import _term_rows
from .config import bplabel
from .errors import UsageError


def payload(src, r: int, side: str, rank: int) -> dict:
    if r < 1:
        raise UsageError(f"generator degree must be positive, got {r}")
    costs.check_size_cost(partitions.size(src[0]) + partitions.size(src[1]) + r)
    column = closedform.closed_left_column if side == "left" else closedform.stable_right_column
    terms = [{"label": bplabel(tgt), "coeff": c.to_json()}
             for tgt, c in column(r, src, rank).items()]
    return {"kind": "mirabolic", "side": side, "r": r, "N": rank, "src": bplabel(src),
            "terms": terms}


def rows(tree: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    return _term_rows(tree, fmt, laurent.QPoly)
