"""`mirahall hall`: the product of two plain classes, as a payload and
as rows."""

from . import costs, hall, laurent
from .artifacts import _term_rows
from .config import plabel
from .errors import UsageError


def payload(x, y, rank: int) -> dict:
    if len(x) > rank or len(y) > rank:
        raise UsageError(f"shapes {x} and {y} need rank above {rank}")
    costs.check_hall_cost(x, y, rank)
    prod = hall.hall_mul(hall.u_elt(x, rank), hall.u_elt(y, rank))
    terms = [{"label": plabel(lam), "coeff": c.to_json()} for lam, c in prod.items()]
    return {"kind": "hall", "N": rank, "x": plabel(x), "y": plabel(y), "terms": terms}


def rows(tree: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    return _term_rows(tree, fmt, laurent.LaurentPoly)
