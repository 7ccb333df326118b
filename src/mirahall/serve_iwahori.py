"""`mirahall iwahori mult`: the wall-crossing products at Iwahori level,
as a payload and as rows."""

from functools import lru_cache

from . import affine, costs, laurent
from .artifacts import Shared, _cell_texts


def payload(N: int, window: int) -> dict:
    costs.check_universe_cost(N, window)
    # one JSON tree per label and coefficient, shared by every product
    # that names it
    label_tree = lru_cache(maxsize=None)(lambda x: Shared(
        window=list(x.w.window), lo=x.beta.lo, extra=list(x.beta.extra)))
    coeff_tree = lru_cache(maxsize=None)(lambda c: Shared(c.to_json()))
    products = []
    for x in affine.universe(N, 1, window):
        for i in range(1, N + 1):
            # one prediction: the case, and its shape's terms in label order
            case, roles = affine.predicted_case(x, i)
            terms = [{"target": label_tree(y), "coeff": coeff_tree(c)}
                     for y, c in affine._shape(x, case, roles).items()]
            products.append({"source": label_tree(x), "i": i, "case": case, "terms": terms})
    # "qs" is kept for a stable output format: the closed products take
    # no field size, and this reads the counting oracle's default primes
    return {"kind": "iwahori", "N": N, "window": window,
            "qs": list(affine.DEFAULT_PRIMES), "products": products}


def rows(tree: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    once, poly = _cell_texts(fmt)

    def label(d: dict) -> str:
        # its json text, keys sorted: a list of ints reads as json does
        key = (tuple(d["window"]), d["lo"], tuple(d["extra"]))
        return once(key, lambda: f'{{"extra": {d["extra"]}, "lo": {d["lo"]}, '
                                 f'"window": {d["window"]}}}')

    rows = []
    for prod in tree["products"]:
        head = [label(prod["source"]), str(prod["i"]), str(prod["case"])]
        rows += (
            head + [label(term["target"]), poly(term["coeff"], laurent.QPoly)]
            for term in prod["terms"]
        )
    return ["source", "i", "case", "target", "coeff"], rows
