"""`mirahall mhl`: the two-sided deformed polynomials at one size, as a
payload and as rows."""

from . import bimodule, costs, partitions
from .artifacts import _cell_texts, _text_cell
from .config import bplabel


def payload(n: int, rank: int) -> dict:
    # `cli` refuses rank < n first, as a usage error; below its size
    # `bimodule.mhl_poly` raises RankTooSmall
    costs.check_cost(n, rank, costs.MAX_MHL_LABELS)
    entries = []
    for bp in partitions.bipartitions_of(n):
        tensor, prefactor = bimodule.mhl_poly(bp, rank)
        terms = [{"pair": bplabel(key), "coeff": val.to_json()} for key, val in tensor.items()]
        entries.append({"label": bplabel(bp), "prefactor": prefactor.to_json(),
                        "tensor": terms})
    return {"kind": "mhl", "n": n, "N": rank, "entries": entries}


def rows(tree: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    _, poly = _cell_texts(fmt)
    rows = [
        [_text_cell(entry["label"], fmt), poly(entry["prefactor"]),
         _text_cell(term["pair"], fmt), poly(term["coeff"])]
        for entry in tree["entries"]
        for term in entry["tensor"]
    ]
    return ["label", "prefactor", "pair", "coeff"], rows
