import pytest

from mirahall import bimodule, hall, serve_green, serve_trace, traces
from mirahall.bimodule import (
    MirElt,
    PiTable,
    TensorSym,
    act,
    basis_in_tensor,
    c_bipartition,
    diag_unit,
    gen_act,
    mhl_poly,
    pi_table,
    u_bip,
    vacuum,
)
from mirahall.errors import DiagonalNotUnit, NotInTable, OracleMismatch, RankTooSmall
from mirahall.hall import c_expand, u_elt
from mirahall.laurent import LaurentPoly, QPoly
from mirahall.partitions import (
    ah_leq,
    bipartitions_of,
    label_size,
    pair_codim,
    pair_orbit_dim,
    partitions_of,
)
from mirahall.oracle import _kostka_table, act_direct, hl_schur_coefficients

q = LaurentPoly({2: 1})
one = LaurentPoly.one()

X1 = ((2,), ())
X2 = ((1,), (1,))
X3 = ((1, 1), ())
X4 = ((), (2,))
X5 = ((), (1, 1))


def test_mirelt_basics():
    m = MirElt(2, {(((1, 1, 1), ())): 1, (((1,), ())): 3})
    assert m.coeff(((1, 1, 1), ())).is_zero()  # three-row type, dropped
    assert m.coeff(((1,), ())) == LaurentPoly.from_int(3)
    assert (m - m).is_zero()
    with pytest.raises(ValueError):
        m + MirElt(3)
    with pytest.raises(TypeError):
        MirElt(2, {((1,), ()): QPoly.q_power(1)})
    with pytest.raises(TypeError):
        TensorSym({((1,), ()): QPoly.q_power(1)})


def test_vacuum_seeds():
    rank = 2
    right = act("right", u_elt((1,), rank), vacuum(rank))
    assert right == u_bip(((), (1,)), rank)
    left = act("left", u_elt((1,), rank), vacuum(rank))
    assert left == u_bip(((1,), ()), rank) + u_bip(((), (1,)), rank)


def test_right_action_on_the_vacuum_is_its_label():
    # u_b . () = ((), b) with coefficient 1 by the generator route, for
    # every shape of size <= 7 at every rank from its row count to
    # |b| + 1: the identity that lets every cyclic vector read
    # `action_matrix`; and so the signed Kostka combination the cyclic
    # basis applies there lands on the labels of its shapes
    for k in range(8):
        for b in partitions_of(k):
            for rank in range(max(len(b), 1), k + 2):
                assert act("right", u_elt(b, rank), vacuum(rank)) == u_bip(((), b), rank)
                a = c_expand(b, rank)
                want = MirElt(rank, {((), c): coeff for c, coeff in a._c.items()})
                assert act("right", a, vacuum(rank)) == want, (b, rank)


def test_frozen_left_action():
    rank = 2
    m = u_bip(((), (1,)), rank)
    got = act("left", u_elt((1,), rank), m)
    want = (
        u_bip(X2, rank)
        + u_bip(X4, rank)
        + u_bip(X3, rank)
        + (q + 1) * u_bip(X5, rank)
    )
    assert got == want


def test_frozen_right_action_is_asymmetric():
    rank = 2
    m = u_bip(((), (1,)), rank)
    got = act("right", u_elt((1,), rank), m)
    want = u_bip(X4, rank) + (q + 1) * u_bip(X5, rank)
    assert got == want
    assert got.coeff(X2).is_zero()


def test_act_matches_direct_tables():
    rank = 3
    for wn in (1, 2):
        for srcn in range(0, 4 - wn):
            from mirahall.partitions import partitions_of

            for w in partitions_of(wn):
                for src in bipartitions_of(srcn):
                    a = u_elt(w, rank)
                    m = u_bip(src, rank)
                    for side in ("left", "right"):
                        assert act(side, a, m) == act_direct(side, a, m), (
                            side,
                            w,
                            src,
                        )


def test_act_matches_direct_size_four_spot():
    rank = 2
    a = u_elt((2,), rank)
    m = u_bip(((1,), (1,)), rank)
    for side in ("left", "right"):
        assert act(side, a, m) == act_direct(side, a, m), side


def test_actions_commute():
    rank = 2
    for src in bipartitions_of(1) + bipartitions_of(2):
        m = u_bip(src, rank)
        a, b = u_elt((1,), rank), u_elt((1,), rank)
        lhs = act("right", b, act("left", a, m))
        rhs = act("left", a, act("right", b, m))
        assert lhs == rhs, src


def test_c_bipartition_frozen():
    rank = 2
    got = c_bipartition((1,), (1,), rank)
    vm2 = LaurentPoly.v_power(-2)
    want = vm2 * (
        u_bip(X2, rank) + u_bip(X4, rank) + u_bip(X3, rank) + (q + 1) * u_bip(X5, rank)
    )
    assert got == want


GOLDEN_N2 = {
    X1: {X1: {0: 1}, X2: {-1: 1}, X3: {-2: 1}, X4: {-2: 1}, X5: {-4: 1}},
    X2: {X2: {0: 1}, X3: {-1: 1}, X4: {-1: 1}, X5: {-1: 1, -3: 1}},
    X3: {X3: {0: 1}, X5: {-2: 1}},
    X4: {X4: {0: 1}, X5: {-2: 1}},
    X5: {X5: {0: 1}},
}


def test_pi_table_golden_size_two():
    tab = pi_table(2, 2)
    assert tab.order == (X1, X2, X3, X4, X5)
    for col, rows in GOLDEN_N2.items():
        for row in tab.order:
            want = LaurentPoly(rows.get(row, {}))
            assert tab.value(row, col) == want, (row, col)


def test_pi_table_triangular_with_unit_diagonal():
    for n in (0, 1, 2, 3):
        tab = pi_table(n, 3)
        for col in tab.order:
            assert tab.raw_value(col, col) == one
            for row in tab.order:
                if not tab.value(row, col).is_zero():
                    assert ah_leq(row, col), (row, col)


def test_pi_table_rank_stability():
    lo, hi = pi_table(2, 2), pi_table(2, 3)
    assert lo.order == hi.order
    for col in lo.order:
        for row in lo.order:
            assert lo.value(row, col) == hi.value(row, col), (row, col)


def test_pi_table_truncated_rank_agrees():
    small = pi_table(2, 1)
    big = pi_table(2, 2)
    assert small.order == (X1, X2, X4)
    for col in small.order:
        for row in small.order:
            assert small.value(row, col) == big.value(row, col), (row, col)
    with pytest.raises(NotInTable):
        small.value(X3, X1)


def test_basis_in_tensor_frozen_size_one():
    for rank in (2, 3):
        left = basis_in_tensor(((1,), ()), rank)
        assert left == TensorSym({((1,), ()): 1, ((), (1,)): -1})
        right = basis_in_tensor(((), (1,)), rank)
        assert right == TensorSym({((), (1,)): 1})


def test_basis_in_tensor_classical_block():
    # labels with no marked vector reduce to deformed one-sided
    # expansions in the second slot
    from mirahall.partitions import n_stat, partitions_of

    rank = 3
    for n in (1, 2, 3):
        for rho in partitions_of(n):
            got = basis_in_tensor(((), rho), rank)
            scale = LaurentPoly.v_power(-2 * n_stat(rho))
            want = TensorSym(
                {
                    ((), mu): scale * LaurentPoly.from_t_poly(cf)
                    for mu, cf in hl_schur_coefficients(rho, rank).items()
                }
            )
            assert got == want, rho


def test_basis_in_tensor_rank_stability():
    for bp in bipartitions_of(2):
        assert basis_in_tensor(bp, 2) == basis_in_tensor(bp, 3), bp


def test_mhl_prefactor():
    rank = 2
    body, pre = mhl_poly(((1,), ()), rank)
    assert body == TensorSym({((1,), ()): 1, ((), (1,)): -1})
    assert pre == one
    body, pre = mhl_poly(((), (1,)), rank)
    assert body == TensorSym({((), (1,)): 1})
    assert pre == LaurentPoly.v_power(1, -1)
    for bp in bipartitions_of(2):
        body, pre = mhl_poly(bp, rank)
        b = pair_codim(bp)
        assert pre == LaurentPoly.v_power(b, -1 if b % 2 else 1)
        assert body == basis_in_tensor(bp, rank), bp
    with pytest.raises(RankTooSmall):
        mhl_poly(((1, 1), (1,)), 2)


def test_mhl_round_trip_returns_each_cyclic_column():
    # a guard on the inversion, not an oracle: expanding each cyclic
    # vector in the inverted basis gives back (-v)^(-(n-1)n) times its
    # own column
    for n in range(1, 7):
        k = -(n - 1) * n
        scale = LaurentPoly.v_power(k, -1 if k % 2 else 1)
        for col in bipartitions_of(n):
            vec = c_bipartition(col[0], col[1], n)
            total = TensorSym()
            for row, coeff in vec.items():
                total = total + coeff * basis_in_tensor(row, n)
            assert total == TensorSym({col: scale}), (n, col)


def test_basis_in_tensor_rank_guard():
    with pytest.raises(NotInTable):
        basis_in_tensor(((1, 1), ()), 1)


def test_pi_table_raw_off_diagonal_in_v_inverse():
    tab = pi_table(4, 4)
    for row, col in tab.cells:
        val = tab.raw_value(row, col)
        if row == col:
            assert val == one
        else:
            assert all(e < 0 for e, _ in val.items()), (row, col)


def test_pi_table_matches_the_per_cell_normalisation():
    # the table stores only its nonzero calibrated cells; rebuild every
    # raw and calibrated cell and every diagonal unit from the cyclic
    # vectors, one cell at a time, and compare all three views
    def signed_v(k):
        return LaurentPoly.v_power(k, -1 if k % 2 else 1)

    for n in range(7):
        for rank in sorted({max(n, 1), 2}):
            tab = pi_table(n, rank)
            nonzero = 0
            for col in tab.order:
                vec = c_bipartition(col[0], col[1], rank)
                assert set(vec._c) <= set(tab.order), (n, rank, col)
                unit = signed_v(sum(col[0]))
                assert vec.coeff(col) * signed_v(pair_orbit_dim(col, rank)) == unit
                assert diag_unit(col) == unit, (n, rank, col)
                inv = unit**-1
                for row in tab.order:
                    raw = vec.coeff(row) * signed_v(pair_orbit_dim(row, rank)) * inv
                    gap = pair_codim(row) - pair_codim(col)
                    cal = raw * (-1 if gap % 2 else 1)
                    assert tab.raw_value(row, col) == raw, (n, rank, row, col)
                    assert tab.value(row, col) == cal, (n, rank, row, col)
                    nonzero += not cal.is_zero()
            assert len(tab.cells) == nonzero, (n, rank)


def test_pi_table_calibrated_coefficients_nonnegative():
    tab = pi_table(4, 4)
    for key, val in tab.cells.items():
        assert all(c > 0 for _, c in val.items()), key


def test_pi_table_classical_blocks():
    # each one-sided block of the table is the classical deformed
    # Kostka matrix with t sent to 1/q
    for n in (2, 3, 4):
        tab = pi_table(n, 4)
        oracle = _kostka_table(n, n)
        for col in partitions_of(n):
            for row in partitions_of(n):
                want = LaurentPoly.from_t_poly(oracle.get((col, row), QPoly.zero()))
                assert tab.value(((), row), ((), col)) == want, ("u", row, col)
                assert tab.value((row, ()), (col, ())) == want, ("v", row, col)


def test_pi_table_inverse_is_identity_at_v_infinity():
    # the inverse transition matrix also has unit diagonal and
    # off-diagonal entries vanishing as v grows
    for n in (2, 3):
        tab = pi_table(n, 3)
        order = tab.order
        inv: dict = {}
        for ci, col in enumerate(order):
            inv[(col, col)] = one
            for row in order[ci + 1 :]:
                s = LaurentPoly.zero()
                for mid in order[ci:]:
                    if mid == row:
                        break
                    picked = inv.get((mid, col))
                    if picked is not None:
                        s = s + tab.value(row, mid) * picked
                if not s.is_zero():
                    inv[(row, col)] = -1 * s
        for (row, col), val in inv.items():
            if row != col:
                assert all(e < 0 for e, _ in val.items()), (row, col)


def test_generator_actions_commute_rank_four():
    rank = 4
    for rn in (1, 2, 3):
        for sn in range(1, 5 - rn):
            for srcn in range(0, 5 - rn - sn):
                for src in bipartitions_of(srcn):
                    m = u_bip(src, rank)
                    lhs = gen_act("left", rn, gen_act("right", sn, m))
                    rhs = gen_act("right", sn, gen_act("left", rn, m))
                    assert lhs == rhs, (rn, sn, src)


def test_c_bipartition_rank_guard():
    with pytest.raises(RankTooSmall):
        c_bipartition((1, 1, 1), (), 2)
    with pytest.raises(RankTooSmall):
        c_bipartition((), (1, 1, 1), 2)


@pytest.fixture
def cold_tables():
    # the corruption below must reach no table a later test reads
    caches = (pi_table, bimodule._basis_in_tensor, bimodule.action_matrix,
              hall._gen_decomposition, hall.c_expand)
    for table in caches:
        table.cache_clear()
    yield
    for table in caches:
        table.cache_clear()


def test_both_triangular_systems_refuse_a_corrupt_cyclic_vector(monkeypatch, cold_tables):
    # one rule per system: pi and mhl read the same checked cyclic
    # vectors, and the generator decomposition's lead must be exactly 1.
    # Neither corruption is one that `action_matrix`'s own check sees:
    # a negated action keeps each diagonal a monomial, and the extra
    # signed Kostka term leaves the matrix untouched
    real_act, real_c_expand, real_gen_mul = bimodule.act, bimodule.c_expand, hall.gen_mul
    top = (3,)

    def negated(side, a, m):
        out = real_act(side, a, m)
        return -1 * out if label_size(next(iter(out._c))) == 3 else out

    def above(lam, rank):
        # every size-3 shape but the top one gains the top shape
        out = real_c_expand(lam, rank)
        if sum(lam) == 3 and lam != top:
            out = out + u_elt(top, rank)
        return out

    for name, corrupt, error in (("act", negated, DiagonalNotUnit),
                                 ("c_expand", above, OracleMismatch)):
        real = getattr(bimodule, name)
        monkeypatch.setattr(bimodule, name, corrupt)
        # a refused table leaves no cache entry behind
        for build in (lambda: pi_table(3, 3), lambda: mhl_poly(((1,), (1, 1)), 3)):
            with pytest.raises(error):
                build()
        monkeypatch.setattr(bimodule, name, real)
        # the negated matrix passed its own check, and is forgotten
        bimodule.action_matrix.cache_clear()

    def gen_mul(r, m):
        out = real_gen_mul(r, m)
        return -1 * out if r == 1 else out

    monkeypatch.setattr(hall, "gen_mul", gen_mul)
    hall._gen_decomposition.cache_clear()
    with pytest.raises(DiagonalNotUnit):
        hall._gen_decomposition((1,), 2)


def _two_sided_route(lam, mu, rank):
    """The cyclic vector of (lam, mu) as two actions on the vacuum, the
    right one first: the route `c_bipartition` took before it read
    `action_matrix`, kept as its oracle."""
    return act("left", c_expand(lam, rank), act("right", c_expand(mu, rank), vacuum(rank)))


def test_c_bipartition_matches_the_two_sided_route():
    for n in range(7):
        for rank in sorted({max(n, 1), max(1, n - 2)}):
            for lam, mu in bipartitions_of(n, rank):
                got = c_bipartition(lam, mu, rank)
                assert got == _two_sided_route(lam, mu, rank), (lam, mu, rank)


def test_no_table_takes_a_right_action(monkeypatch, cold_tables):
    # the cyclic basis, the two-sided polynomials, the trace cells and
    # the class ring all read `action_matrix`, which acts on the left
    real = bimodule.gen_act

    def left_only(side, r, m):
        if side == "right":
            raise AssertionError("a table took a right action")
        return real(side, r, m)

    monkeypatch.setattr(bimodule, "gen_act", left_only)
    pi_table(5, 5)
    mhl_poly(((2,), (1, 1)), 4)
    serve_trace.payload(4, 3)
    traces.green_ring(3, 2)


def test_a_green_payload_and_pi_share_one_action_matrix(cold_tables):
    serve_green.payload(3, 2)
    built = bimodule.action_matrix.cache_info()
    assert built.misses == 3  # sizes 1, 2 and 3, at their own rank
    pi_table(3, 3)
    after = bimodule.action_matrix.cache_info()
    # one hit per column, and no build
    assert after.misses == built.misses
    assert after.hits - built.hits == len(pi_table(3, 3).order)


def test_labels_that_fit_a_rank_are_the_filtered_labels_in_order():
    # listed without the labels that do not fit; a rank of n or more
    # keeps every label
    for n in range(13):
        every = bipartitions_of(n)
        for rank in range(1, n + 2):
            fit = tuple(bp for bp in every if len(bp[0]) <= rank and len(bp[1]) <= rank)
            assert bipartitions_of(n, rank) == fit, (n, rank)
