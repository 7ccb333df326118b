import random
import time
from fractions import Fraction
from functools import partial

import pytest

from mirahall import serve_green, traces
from mirahall.bimodule import act, gen_act, pi_table, trace_value, u_bip
from mirahall.errors import (
    CostGuard,
    FieldMismatch,
    NonIntegral,
    NotInTable,
    UsageError,
)
from mirahall.hall import monomial_action, u_elt
from mirahall.laurent import LaurentPoly, QPoly
from mirahall.oracle import fiber_oracle_check
from mirahall.pairs import orbit_census
from mirahall.partitions import bipartitions_of, pair_codim, partitions_of
from mirahall.traces import (
    MAX_GREEN_LABELS,
    GreenLabel,
    _image,
    _invertible_over_rationals,
    check_green_cost,
    green_freeness_check,
    green_label_count,
    green_labels,
    green_mul,
    irreducible_polys,
)


def _cell(tab, col, row):
    """The trace cell at (row, col) of `tab`, read through `PiTable.value`."""
    return trace_value(col, row, tab.value(row, col))


def test_trace_cell_from_laurent():
    row, col = ((), (3,)), ((3,), ())
    assert pair_codim(row) - pair_codim(col) == 3
    plain, radical = trace_value(col, row, LaurentPoly({-1: 1, -3: 1}))
    assert plain == QPoly({0: 1, 1: 1})
    assert radical.is_zero()
    with pytest.raises(NonIntegral):
        trace_value(col, row, LaurentPoly({-4: 1}))


def test_trace_value_golden_cells():
    tab = pi_table(2, 2)
    plain, radical = _cell(tab, ((1,), (1,)), ((), (1, 1)))
    assert plain == QPoly({0: 1, 1: 1})
    assert radical.is_zero()
    assert plain.evaluate(2) == 3
    untrimmed = _cell(tab, ((1, 0), (1,)), ((0,), (1, 1, 0)))
    assert untrimmed == (plain, radical)
    assert _cell(tab, ((2,), ()), ((), (2,))) == (QPoly.one(), QPoly.zero())
    plain, radical = _cell(tab, ((1, 1), ()), ((2,), ()))
    assert plain.is_zero() and radical.is_zero()
    with pytest.raises(NotInTable):
        _cell(tab, ((3,), ()), ((2,), ()))


def test_trace_diagonal_is_one():
    for n in (1, 2, 3):
        tab = pi_table(n, n)
        for col in tab.order:
            assert _cell(tab, col, col) == (QPoly.one(), QPoly.zero()), col


def test_trace_cells_recombine_to_the_calibrated_entry():
    # plain(q) + radical(q)*√q at q = v**2 is the entry carried up by the gap
    for n in range(1, 7):
        tab = pi_table(n, n)
        for (row, col), entry in tab.cells.items():
            assert not entry.is_zero(), (n, row, col)
            plain, radical = trace_value(col, row, entry)
            gap = pair_codim(row) - pair_codim(col)
            assert plain.to_laurent() + radical.to_laurent().shift(1) == entry.shift(
                gap
            ), (n, row, col)


def test_fiber_oracle_small():
    for q in (2, 3):
        for n in (1, 2, 3):
            rep = fiber_oracle_check(n, q)
            assert rep["passed"] and rep["epsilon"] == 1
            assert len(rep["cells"]) == (n + 1) * len(bipartitions_of(n))


def test_fiber_oracle_size_four():
    assert fiber_oracle_check(4, 2)["passed"]


def test_fiber_example_cells():
    rep = fiber_oracle_check(2, 2)
    cells = {(tuple(map(tuple, c["stratum"])), c["m"]): c for c in rep["cells"]}
    assert cells[(((), (1, 1)), 1)]["count"] == 3
    for sig in (((2,), ()), ((1,), (1,)), ((1, 1), ())):
        assert cells[(sig, 2)]["count"] == 0, sig
    assert cells[(((2,), ()), 0)]["count"] == 1


def test_fiber_oracle_guards():
    with pytest.raises(CostGuard):
        fiber_oracle_check(5, 2)
    with pytest.raises(CostGuard):
        fiber_oracle_check(4, 3)
    with pytest.raises(UsageError):
        fiber_oracle_check(2, 2, table=pi_table(3, 3))


def test_irreducible_polys_enumeration():
    assert irreducible_polys(2, 2) == ((1, 1), (1, 1, 1))
    assert irreducible_polys(3, 1) == ((1, 1), (2, 1))
    assert len(irreducible_polys(3, 2)) == 5  # two linear plus three quadratic
    assert (0, 1) not in irreducible_polys(5, 1)


def test_green_label_guards():
    with pytest.raises(UsageError):
        GreenLabel(2, {(0, 1): ((1,), ())})
    with pytest.raises(UsageError):
        GreenLabel(2, {(1, 0, 1): ((1,), ())})  # square of t+1
    with pytest.raises(UsageError):
        GreenLabel(2, [((1, 1), ((1,), ())), ((1, 1), ((), (1,)))])
    lab = GreenLabel(2, {(1, 1): ((), ()), (1, 1, 1): ((1,), (1,))})
    assert lab.support() == {(1, 1, 1): ((1,), (1,))}
    assert lab.size() == 4
    assert not lab.is_pure()
    assert GreenLabel(2).is_pure()


def test_green_label_enumeration():
    assert [g.pretty() for g in green_labels(1, 2)] == [
        "[t+1]:((), (1,))",
        "[t+1]:((1,), ())",
    ]
    assert len(green_labels(2, 2)) == 7
    assert len(green_labels(2, 3)) == 20
    assert green_labels(0, 2) == [GreenLabel(2)]


def test_green_unit_two_sided():
    q = 2
    unit_cls = GreenLabel(q)
    x = {lab: i + 1 for i, lab in enumerate(green_labels(2, q))}
    assert green_mul("left", unit_cls, x) == x
    assert green_mul("right", unit_cls, x) == x


def test_green_mul_degree_one_seed():
    q = 2
    cls = GreenLabel(q, {(1, 1): ((), (1,))})
    got = green_mul("left", cls, {GreenLabel(q): 1})
    assert got == {
        GreenLabel(q, {(1, 1): ((1,), ())}): 1,
        GreenLabel(q, {(1, 1): ((), (1,))}): 1,
    }


def test_green_mul_degree_two_evaluation():
    q = 2
    f = (1, 1, 1)
    cls = GreenLabel(q, {f: ((), (1,))})
    got = green_mul("left", cls, {GreenLabel(q, {f: ((), (1,))}): 1})
    assert got[GreenLabel(q, {f: ((), (1, 1))})] == q**2 + 1
    g = (1, 1)
    cls1 = GreenLabel(q, {g: ((), (1,))})
    got1 = green_mul("left", cls1, {GreenLabel(q, {g: ((), (1,))}): 1})
    assert got1[GreenLabel(q, {g: ((), (1, 1))})] == q + 1


def test_green_mixed_support_factorizes():
    q = 3
    f, g = (1, 1), (2, 1)
    cls = GreenLabel(q, {f: ((), (1,))})
    x = {GreenLabel(q, {g: ((1,), ())}): 2}
    got = green_mul("left", cls, x)
    assert got == {
        GreenLabel(q, {f: ((1,), ()), g: ((1,), ())}): 2,
        GreenLabel(q, {f: ((), (1,)), g: ((1,), ())}): 2,
    }


def test_green_guards():
    with pytest.raises(FieldMismatch):
        green_mul("left", GreenLabel(2), {GreenLabel(3): 1})
    with pytest.raises(UsageError):
        green_mul("left", GreenLabel(2, {(1, 1): ((1,), ())}), {GreenLabel(2): 1})
    with pytest.raises(UsageError):
        green_mul("up", GreenLabel(2), {GreenLabel(2): 1})


def test_library_entry_points_reject_non_prime_fields():
    # Z/4 and Z/6 are not fields: the irreducibility listing and the
    # Fermat inversion behind the census are wrong there
    for q in (1, 4, 6):
        with pytest.raises(UsageError):
            green_labels(1, q)
        with pytest.raises(UsageError):
            green_freeness_check(1, q)
        with pytest.raises(UsageError):
            orbit_census(1, q)
    assert green_freeness_check(1, 5)["passed"]


def test_green_bimodule_axiom_sampled():
    for q in (2, 3):
        for an in (1, 2):
            for bn in (1, 2):
                for xn in range(0, 3 - max(an, bn)):
                    for a in green_labels(an, q, pure=True):
                        for b in green_labels(bn, q, pure=True):
                            for lab in green_labels(xn, q):
                                x = {lab: 1}
                                lhs = green_mul("left", a, green_mul("right", b, x))
                                rhs = green_mul("right", b, green_mul("left", a, x))
                                assert lhs == rhs, (q, a, b, lab)


def test_green_freeness():
    dims = {}
    for q in (2, 3):
        for n in (0, 1, 2):
            rep = green_freeness_check(n, q)
            assert rep["passed"]
            dims[(n, q)] = rep["dimension"]
    assert dims[(1, 2)] == 2
    assert dims[(1, 3)] == 4
    assert dims[(2, 2)] == 7
    assert dims[(2, 3)] == 20


def test_a_green_payload_lists_its_labels_once(monkeypatch):
    # the freeness check lists the size-n labels, and the payload reads
    # its list rather than listing them again
    real = traces.green_labels
    calls = []

    def counted(n, q, pure=False):
        calls.append((n, q, pure))
        return real(n, q, pure)

    monkeypatch.setattr(traces, "green_labels", counted)
    for n, q in ((0, 2), (2, 3), (3, 2)):
        calls.clear()
        tree = serve_green.payload(n, q)
        assert [c for c in calls if not c[2]] == [(n, q, False)], (n, q)
        assert tree["labels"] == [lab.pretty() for lab in real(n, q)], (n, q)
        assert tree["freeness"] == green_freeness_check(n, q), (n, q)


def test_green_degree_one_matches_finite_action():
    q = 2
    f = (1, 1)
    for side in ("left", "right"):
        for wn in (1, 2):
            for srcn in range(0, 3 - wn):
                for w in partitions_of(wn):
                    cls = GreenLabel(q, {f: ((), w)})
                    for src in bipartitions_of(srcn):
                        got = green_mul(side, cls, {GreenLabel(q, {f: src}): 1})
                        rank = wn + srcn
                        fin = act(side, u_elt(w, rank), u_bip(src, rank))
                        want = {}
                        for bp, lp in fin._c.items():
                            assert all(e % 2 == 0 for e, _ in lp.items()), bp
                            val = sum(c * q ** (e // 2) for e, c in lp.items())
                            if val:
                                want[GreenLabel(q, {f: bp})] = val
                        assert got == want, (side, w, src)


def _invertible_by_fractions(rows):
    """The elimination `green_freeness_check` used before Bareiss:
    Gauss-Jordan over Fractions on the dense matrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return True


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(11)
    verdicts = []
    for trial in range(300):
        size = rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        rows = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(size)]
            for _ in range(size)
        ]
        if trial % 3 == 0 and size > 1:
            # a row that is a combination of two others makes it singular
            a, b, c = (rng.randrange(size) for _ in range(3))
            rows[c] = [2 * x - 3 * y for x, y in zip(rows[a], rows[b])]
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        want = _invertible_by_fractions(rows)
        assert _invertible_over_rationals(sparse) == want, rows
        verdicts.append(want)
    assert 50 < sum(verdicts) < 250


def test_image_on_the_empty_label_matches_act():
    # the right products against the empty label, read in closed form,
    # against the generator route at several field sizes
    for n in range(1, 6):
        for nu in partitions_of(n):
            image = monomial_action(
                u_elt(nu, n), u_bip(((), ()), n), partial(gen_act, "right"), False
            )
            for qd in (2, 3, 4, 9):
                want = tuple(
                    (tgt, g.bar().to_t_poly().evaluate(qd)) for tgt, g in image.items()
                )
                assert _image("right", nu, ((), ()), qd) == want, (nu, qd)


def test_green_label_count_matches_listing():
    for q in (2, 3, 5, 7):
        for n in range(0, 5 if q < 5 else 3):
            assert green_label_count(n, q) == len(green_labels(n, q)), (n, q)
    # the counts the budget was set on
    assert green_label_count(5, 3) == 1160
    assert green_label_count(4, 7) == 11124
    assert green_label_count(8, 2) == 1606


def test_green_cost_guard():
    check_green_cost(8, 2)
    check_green_cost(1, 1499)
    for n, q in ((9, 2), (4, 7), (2, 37), (1, 1511), (200, 2), (3, 1000003)):
        start = time.perf_counter()
        with pytest.raises(CostGuard):
            check_green_cost(n, q)
        with pytest.raises(CostGuard):
            green_freeness_check(n, q)
        assert time.perf_counter() - start < 1.0
    assert MAX_GREEN_LABELS >= green_label_count(5, 3)
