import pytest

from mirahall.closedform import (
    closed_form_G,
    closed_left_column,
    closed_left_table,
    reachable_targets,
    right_via_star,
    stable_right_column,
)
from mirahall.errors import UsageError
from mirahall.laurent import QPoly, gauss_binomial
from mirahall.oracle import (
    rho_check,
    shift_labels,
    stable_right_constant,
    verify_closed_form,
)
from mirahall.partitions import add_parts, bipartitions_of, label_size, trim
from mirahall import (
    bimodule,
    closedform,
    gf,
    hall,
    oracle,
    pairs,
    partitions,
    symfunc,
    traces,
)
from mirahall.bimodule import gen_act, mhl_poly, pi_table, u_bip
from mirahall.artifacts import mirabolic_payload
from mirahall.hall import hall_mul, u_elt
from mirahall.traces import GreenLabel, green_mul

one = QPoly.one()
q = QPoly.q_power(1)


def test_row_for_smallest_vector_source():
    row = closed_form_G(1, ((), (1,)))
    assert row[((1,), (1,))] == one
    assert row[((), (1, 1))] == one + q
    assert row[((), (2,))] == one
    assert row[((1, 1), ())] == one
    assert ((2,), ()) not in row


def test_trivial_slices():
    assert closed_left_table(((2, 1), (1,)), 0) == {((2, 1), (1,)): one}
    assert closed_left_table(((1,), (1,)), 5) == {}
    with pytest.raises(UsageError):
        closed_left_table(((1,), ()), -1)


def test_two_gap_split():
    # the one-depth bucketing collapses these two sources into one class
    table = closed_left_table(((2, 1, 1), (1,)), 1)
    assert table[((2, 1), (1,))] == QPoly.q_power(2)
    assert table[((2,), (1, 1))] == q
    assert table[((1, 1, 1), (1,))] == one
    assert len(table) == 3


def test_closed_matches_counted_on_awkward_targets():
    # targets chosen for gap structure: several distinct first-slot rows,
    # interleaved second slots, and a legless one for the no-gap path
    for tgt, r in [
        (((2, 1), (1,)), 1),
        (((2, 2), (1,)), 2),
        (((3, 1), (1, 1)), 2),
        (((2,), (2, 1)), 1),
        (((), (2, 1)), 1),
    ]:
        verify_closed_form(tgt, r)


def test_closed_matches_counted_exhaustive_small():
    for n in range(1, 5):
        for tgt in bipartitions_of(n):
            for r in range(1, n + 1):
                verify_closed_form(tgt, r)


def _unshift(table, rows):
    out = {}
    for (lam, mu), val in table.items():
        if len(lam) != rows or (lam and lam[-1] == 0):
            continue
        out[(trim(tuple(x - 1 for x in lam)), mu)] = val
    return out


def test_column_shift_roundtrip():
    for tgt, r in [(((1,), (1,)), 1), (((2,), (1, 1)), 2), (((), (2,)), 1)]:
        rows = len(add_parts(*tgt)) + 1
        big = closed_left_table(shift_labels(tgt, 1, rows), r)
        assert _unshift(big, rows) == dict(closed_left_table(tgt, r))


def test_mirrored_right_constants():
    assert right_via_star(((), (2,)), ((), (1,)), 1, 2) == one
    assert right_via_star(((), (1, 1)), ((), (1,)), 1, 2) == q
    assert right_via_star(((1,), ()), ((), ()), 1, 2).is_zero()
    assert right_via_star(((), (1,)), ((), ()), 1, 2) == one


def test_stable_right_constant_sheds_boundary_mass():
    # the raw count at this cell is 1 + q; one extra column drains the
    # unit that belongs to a label with a negative first-slot row
    raw = pairs.right_elementary_constants(((), (1, 1)), 1)[((), (1,))]
    assert raw == one + q
    assert stable_right_constant(((), (1, 1)), ((), (1,)), 1, 2) == q


def test_rho_check_small_sources():
    assert rho_check(((), (1,)), 1, 2)
    assert rho_check(((), ()), 1, 2)
    assert rho_check(((1,), ()), 1, 2)
    assert rho_check(((1,), (1,)), 2, 3)
    assert rho_check(((), (2,)), 1, 3)


def test_guards():
    with pytest.raises(UsageError):
        right_via_star(((), (1,)), ((), ()), 2, 2)
    with pytest.raises(UsageError):
        right_via_star(((), (1,)), ((), ()), 0, 2)
    with pytest.raises(UsageError):
        rho_check(((1, 1, 1), ()), 1, 2)


def test_right_column_boundaries():
    # the right rows, read from the module's columns (`closed_form_G`)
    right = {
        (((), (1, 1, 1)), 1): {((), (1, 1)): gauss_binomial(3, 1)},
        (((), (1, 1)), 2): {((), ()): one},
        (((1,), (1,)), 2): {},
        (((2,), ()), 3): {},
    }
    for (tgt, r), want in right.items():
        assert verify_closed_form(tgt, r, "right") == want, (tgt, r)


def test_served_right_column_is_the_module_column_off_the_vectorless_target():
    # at its own rank n the served mirror agrees with the module's,
    # which reads it one rank up, everywhere but at ((), (1^n))
    for n in range(2, 6):
        vectorless = ((), (1,) * n)
        for r in range(1, n):
            for src in bipartitions_of(n - r):
                served = dict(stable_right_column(r, src, n))
                module = dict(closed_form_G(r, src, "right"))
                served.pop(vectorless, None)
                module.pop(vectorless, None)
                assert served == module, (src, r)


def test_closed_right_matches_counted_exhaustive_small():
    # every target up to size 4 and every rank, read as a table and
    # through the module action at rank n and n + 1
    for n in range(1, 5):
        for tgt in bipartitions_of(n):
            for r in range(1, n + 1):
                counted = pairs.right_elementary_constants(tgt, r)
                assert verify_closed_form(tgt, r, "right") == counted
                for rank in (n, n + 1):
                    for src in bipartitions_of(n - r):
                        got = gen_act("right", r, u_bip(src, rank)).coeff(tgt)
                        want = counted.get(src, QPoly.zero()).to_laurent()
                        assert got == want, (tgt, r, rank, src)


def _clear_caches():
    for module in (bimodule, closedform, hall, pairs, partitions, symfunc, traces):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_serving_path_never_counts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the serving path reached a counting oracle")

    _clear_caches()
    monkeypatch.setattr(gf, "subspace_batches", refuse)
    for name in dir(pairs):
        if name.endswith(("_constants", "_profile", "_constant")):
            monkeypatch.setattr(pairs, name, refuse)
    monkeypatch.setattr(oracle, "stable_right_constant", refuse)
    try:
        assert len(pi_table(3, 3).order) == 10
        prod = hall_mul(u_elt((2,), 3), u_elt((1, 1), 3))
        assert not prod.coeff((2, 1, 1)).is_zero()
        tensor, _ = mhl_poly(((1,), (1,)), 2)
        assert not tensor.is_zero()
        payload = mirabolic_payload(((2,), (1,)), 1, "right", 4)
        assert {t["label"] for t in payload["terms"]} == {"(2)|(2)", "(2)|(1,1)"}
        x = {GreenLabel(2, {(1, 1): ((), (1,))}): 1}
        for side in ("left", "right"):
            assert green_mul(side, GreenLabel(2, {(1, 1): ((), (1,))}), x)
    finally:
        _clear_caches()


def test_tables_and_class_ring_read_no_right_table(monkeypatch):
    # the cyclic basis and the class ring's products against the empty
    # label take the right action on the vacuum in closed form
    def refuse(*args, **kwargs):
        raise AssertionError("a table read a right constant")

    _clear_caches()
    monkeypatch.setattr(closedform, "right_via_star", refuse)
    try:
        pi_table(6, 6)
        bimodule._basis_in_tensor(5, 5)
        traces.green_freeness_check(4, 2)
    finally:
        _clear_caches()


def test_left_column_bounded_by_rank():
    full = closed_form_G(1, ((1, 1), ()))
    # the same row rule as stable_right_column: longer targets are left out
    assert closed_left_column(1, ((1, 1), ()), 3) == full
    kept = closed_left_column(1, ((1, 1), ()), 2)
    assert kept == {t: c for t, c in full.items() if len(t[0]) <= 2 and len(t[1]) <= 2}
    assert kept and len(kept) < len(full)
    # and a longer source is a usage error
    with pytest.raises(UsageError):
        closed_left_column(1, ((1, 1, 1), ()), 2)


def _is_vertical_strip(small, big, r):
    # big / small: r boxes, at most one in each row
    rows = len(big)
    if len(small) > rows:
        return False
    small = small + (0,) * (rows - len(small))
    return sum(big) - sum(small) == r and all(
        0 <= b - s <= 1 for b, s in zip(big, small)
    )


def test_every_cell_adds_a_vertical_strip_to_the_jordan_type():
    # g^lam_(mu, (1^r)) != 0 only if lam / mu is a vertical r-strip, so
    # nu(tgt) is nu(src) plus one (Macdonald ch. II section 4)
    cells = 0
    for n in range(1, 7):
        for tgt in bipartitions_of(n):
            nu = add_parts(*tgt)
            for r in range(1, n + 1):
                right = [
                    src for src in bipartitions_of(n - r)
                    if right_via_star(tgt, src, r, n + 1)
                ]
                for src in [*closed_left_table(tgt, r), *right]:
                    assert _is_vertical_strip(add_parts(*src), nu, r), (tgt, src, r)
                    cells += 1
    for m in range(0, 6):
        for src in bipartitions_of(m):
            for r in range(1, 7 - m):
                rank = max(len(src[0]), len(src[1]), r + (m > 0))
                for tgt in stable_right_column(r, src, rank):
                    assert _is_vertical_strip(add_parts(*src), add_parts(*tgt), r)
                    cells += 1
    assert cells > 1000


def _all_labels_column(r, src, side, rank):
    """The column read over every label of its size: the oracle of the
    reachable targets.  A right cell is the mirror one rank above the
    target's size, which needs neither boundary rule: it gives the
    vectorless square-zero target's Gauss binomial, and nothing at
    r = n."""
    n = label_size(src) + r
    cell = {
        "left": lambda tgt: closed_left_table(tgt, r).get(src),
        "right": lambda tgt: right_via_star(tgt, src, r, n + 1),
    }[side]
    cells = {
        tgt: cell(tgt)
        for tgt in bipartitions_of(n)
        if rank is None or max(len(tgt[0]), len(tgt[1])) <= rank
    }
    return {tgt: poly for tgt, poly in cells.items() if poly}


def test_reachable_column_is_the_all_labels_column():
    # values and order, on both sides and at every rank; the right
    # oracle reads one lifted left table per cell, so it stops at 6
    for side, top in (("left", 7), ("right", 6)):
        for m in range(0, top):
            for src in bipartitions_of(m):
                for r in range(1, top + 1 - m):
                    for rank in (None, *range(1, m + r + 1)):
                        want = _all_labels_column(r, src, side, rank)
                        got = closed_form_G(r, src, side, rank)
                        assert list(got.items()) == list(want.items()), (src, r, side, rank)


def test_stable_right_column_is_the_all_labels_column():
    for m in range(1, 5):
        for src in bipartitions_of(m):
            for r in range(1, 6 - m):
                for rank in range(max(len(src[0]), len(src[1]), r + 1), m + r + 2):
                    want = {
                        tgt: right_via_star(tgt, src, r, rank)
                        for tgt in bipartitions_of(m + r)
                        if max(len(tgt[0]), len(tgt[1])) <= rank
                    }
                    want = {tgt: poly for tgt, poly in want.items() if poly}
                    got = stable_right_column(r, src, rank)
                    assert list(got.items()) == list(want.items()), (src, r, rank)


def test_reachable_targets_fit_the_rank_exactly():
    for m in range(0, 6):
        for nu in partitions.partitions_of(m):
            for r in range(1, 4):
                every = reachable_targets(nu, r)
                for rank in range(1, m + r + 1):
                    assert reachable_targets(nu, r, rank) == tuple(
                        tgt for tgt in every if max(len(tgt[0]), len(tgt[1])) <= rank
                    )
