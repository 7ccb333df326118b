"""`mirahall green`: the class ring's labels and freeness report, as a
payload and as rows."""

from . import traces
from .artifacts import _text_cell


def payload(n: int, q: int) -> dict:
    # refused by its label count before any label is listed
    labels, freeness = traces.green_ring(n, q)
    return {"kind": "green", "n": n, "q": q, "labels": [lab.pretty() for lab in labels],
            "freeness": freeness}


def rows(tree: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    rows = [["label", _text_cell(lab, fmt)] for lab in tree["labels"]]
    rows.append(["dimension", str(tree["freeness"]["dimension"])])
    rows.append(["passed", str(tree["freeness"]["passed"])])
    return ["field", "value"], rows
