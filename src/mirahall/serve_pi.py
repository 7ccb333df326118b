"""`mirahall pi`: the calibrated transition table, as a payload and as rows."""

from . import bimodule, costs
from .artifacts import Shared, _cell_texts, _square_rows
from .config import bplabel


def payload(n: int, rank: int) -> dict:
    costs.check_cost(n, rank)
    table = bimodule.pi_table(n, rank)
    calibrated, raw = [], []
    for row, col, val in table.nonzero_cells():
        cell = {"row": bplabel(row), "col": bplabel(col), "coeff": val.to_json()}
        if bimodule.calibration_sign(row, col) > 0:
            cell = Shared(cell)  # its raw cell is this very cell, encoded once
            raw.append(cell)
        else:
            raw.append({**cell, "coeff": {e: -c for e, c in cell["coeff"].items()}})
        calibrated.append(cell)
    units = [{"col": bplabel(col), "unit": bimodule.diag_unit(col).to_json()}
             for col in table.order]
    return {"kind": "pi", "n": n, "N": rank, "order": [bplabel(bp) for bp in table.order],
            "calibrated": calibrated, "raw": raw, "diag_units": units}


def rows(tree: dict, fmt: str) -> tuple[list[str], list[list[str]]]:
    _, poly = _cell_texts(fmt)
    cells = {(c["row"], c["col"]): poly(c["coeff"]) for c in tree["calibrated"]}
    return _square_rows(tree["order"], cells, fmt)
