#!/usr/bin/env python3
"""Recompute every frozen constant the test suite pins.

Run after any change to the computational core and diff the output
against the values hard-coded in tests/.  Nothing here writes files;
the point is an eyeball check with provenance in one place.
"""

from mirahall.affine import pattern_check, ts_action, universe
from mirahall.bimodule import pi_table
from mirahall.closedform import closed_form_G
from mirahall.hall import hall_mul, u_elt
from mirahall.oracle import counted_ts_action, fiber_oracle_check
from mirahall.traces import green_freeness_check, trace_value


def size_two_table():
    print("# calibrated table, size 2, rank 2 (nonzero cells per column)")
    tab = pi_table(2, 2)
    for col in tab.order:
        cells = [
            tab.value(row, col).pretty()
            for row in tab.order
            if not tab.value(row, col).is_zero()
        ]
        print(f"  column {col}: {cells}")


def golden_constants():
    print("# structure constants, one-box source, corank 1")
    for tgt, poly in sorted(closed_form_G(1, ((), (1,))).items()):
        if not poly.is_zero():
            print(f"  target {tgt}: {poly.pretty()}")


def line_square():
    print("# square of the one-box class, rank 3")
    line = u_elt((1,), 3)
    for shape, coeff in hall_mul(line, line).items():
        print(f"  {shape}: {coeff.pretty()}")


def wall_histogram():
    print("# wall-product template counts, N=2, window 2")
    hist: dict[int, int] = {}
    agree = total = 0
    for x in universe(2):
        for i in (1, 2):
            prod = ts_action(x, i)
            case = pattern_check(x, i, prod)
            hist[case] = hist.get(case, 0) + 1
            agree += prod == counted_ts_action(x, i)
            total += 1
    print(f"  {dict(sorted(hist.items()))}")
    print(f"  served and counted products agree on {agree} of {total}")


def trace_goldens():
    print("# trace cell (col one-box/one-box, row empty/column-pair) at q=2")
    plain, radical = trace_value(((1,), (1,)), ((), (1, 1)), pi_table(2, 2))
    print(f"  plain {plain.pretty()}, radical {radical.pretty()}")
    print(f"  integer {plain.evaluate(2)}")
    counted = {
        (tuple(map(tuple, c["stratum"])), c["m"]): c["count"]
        for c in fiber_oracle_check(2, 2)["cells"]
    }
    print(f"  flag count at that stratum, step 1: {counted[(((), (1, 1)), 1)]}")


def green_dimensions():
    print("# class-ring dimensions per (size, q)")
    for q in (2, 3):
        for n in (1, 2):
            rep = green_freeness_check(n, q)
            print(f"  n={n} q={q}: {rep['dimension']}")


def main():
    for section in (
        size_two_table,
        golden_constants,
        line_square,
        wall_histogram,
        trace_goldens,
        green_dimensions,
    ):
        section()
        print()


if __name__ == "__main__":
    main()
