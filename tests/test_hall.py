import pytest

from mirahall.bimodule import act, u_bip
from mirahall.closedform import closed_form_G, closed_left_table
from mirahall.costs import hall_units
from mirahall.hall import (
    HallElt,
    _gen_decomposition,
    c_expand,
    gen_mul,
    hall_mul,
    u_elt,
)
from mirahall.laurent import LaurentPoly, QPoly
from mirahall.oracle import elementary_in_vars, hall_mul_direct, psi
from mirahall.partitions import bipartitions_of, dominance_leq, partitions_of


def lp(**kw):
    return LaurentPoly({int(k[1:].replace("m", "-")): v for k, v in kw.items()})


q = LaurentPoly({2: 1})  # q = v^2


def test_hallelt_basics():
    x = HallElt(3, {(2, 1): 1, (1, 1, 1, 1): 5})
    assert x.coeff((1, 1, 1, 1)).is_zero()  # too many rows, dropped
    assert x.coeff((2, 1)) == LaurentPoly.one()
    assert (x - x).is_zero()
    assert x.truncate(1).is_zero()
    with pytest.raises(ValueError):
        x + HallElt(2)
    with pytest.raises(ValueError):
        HallElt(0)
    with pytest.raises(TypeError):
        HallElt(3, {(2, 1): QPoly.q_power(1)})


def test_square_of_line():
    one = u_elt((1,), 3)
    prod = hall_mul(one, one)
    assert prod == HallElt(3, {(2,): LaurentPoly.one(), (1, 1): q + 1})
    assert hall_mul_direct(one, one) == prod


def test_rank_one_is_polynomial_ring():
    for a in range(1, 4):
        for b in range(1, 4 - a + 1):
            prod = hall_mul(u_elt((a,), 1), u_elt((b,), 1))
            assert prod == u_elt((a + b,), 1), (a, b)
            assert hall_mul_direct(u_elt((a,), 1), u_elt((b,), 1)) == prod


def test_products_match_direct_route():
    rank = 4
    for n in range(2, 5):
        for ka in range(1, n):
            for a in partitions_of(ka):
                for b in partitions_of(n - ka):
                    x, y = u_elt(a, rank), u_elt(b, rank)
                    assert hall_mul(x, y) == hall_mul_direct(x, y), (a, b)


def test_hall_product_is_the_vectorless_left_action():
    # hall_mul runs gen_mul and bimodule.act runs gen_act through the
    # same driver: on a vectorless label the left action's vectorless
    # part is the Hall product
    cases = 0
    for rank in range(1, 5):
        shapes = [lam for n in range(4) for lam in partitions_of(n) if len(lam) <= rank]
        for a in shapes:
            if not a:
                continue
            for b in shapes:
                x = u_elt(a, rank)
                image = act("left", x, u_bip(((), b), rank))
                vectorless = {c: g for (v, c), g in image._c.items() if not v}
                assert hall_mul(x, u_elt(b, rank)) == HallElt(rank, vectorless), (a, b)
                cases += 1
    assert cases == 126


def test_products_of_several_shapes_match_direct_route():
    # a left factor with several shapes is summed per generator monomial
    cases = 0
    for rank in (2, 4):
        for n in range(1, 5):
            for lam in partitions_of(n):
                if len(lam) > rank:
                    continue
                x = c_expand(lam, rank)
                for m in range(5 - n):
                    for b in partitions_of(m):
                        if len(b) <= rank:
                            y = u_elt(b, rank)
                            assert hall_mul(x, y) == hall_mul_direct(x, y), (lam, b)
                            cases += 1
    assert cases == 47


def test_generators_commute():
    rank = 4
    for r in range(1, 4):
        for s in range(r, 5 - r):
            for m in partitions_of(5 - r - s):
                if len(m) > rank:
                    continue
                x = u_elt(m, rank)
                assert gen_mul(r, gen_mul(s, x)) == gen_mul(s, gen_mul(r, x)), (
                    r,
                    s,
                    m,
                )


def test_associativity_spot():
    rank = 3
    a, b, c = u_elt((1,), rank), u_elt((2,), rank), u_elt((1, 1), rank)
    assert hall_mul(hall_mul(a, b), c) == hall_mul(a, hall_mul(b, c))


def test_truncation_is_algebra_map():
    a, b = u_elt((2, 1), 4), u_elt((1,), 4)
    wide = hall_mul(a, b).truncate(2)
    narrow = hall_mul(u_elt((2, 1), 2), u_elt((1,), 2))
    assert wide == narrow


def test_psi_on_generators():
    for rank in (2, 3):
        for r in range(1, rank + 1):
            # columns carry no v-scaling beyond v^(-2 n), and the
            # deformed element of a column is the elementary polynomial
            got = psi(u_elt((1,) * r, rank))
            want = LaurentPoly.v_power(-r * (r - 1)) * elementary_in_vars(r, rank)
            assert got == want, (rank, r)


def test_psi_is_ring_map():
    rank = 3
    for n in range(2, 5):
        for ka in range(1, n):
            for a in partitions_of(ka):
                if len(a) > rank:
                    continue
                for b in partitions_of(n - ka):
                    if len(b) > rank:
                        continue
                    x, y = u_elt(a, rank), u_elt(b, rank)
                    assert psi(hall_mul(x, y)) == psi(x) * psi(y), (a, b)


def test_c_expand_frozen():
    got = c_expand((2,), 2)
    vm2 = LaurentPoly.v_power(-2)
    assert got == HallElt(2, {(2,): vm2, (1, 1): vm2})
    # single column: a plain signed power of the basis element
    for rank in (2, 3, 4):
        for r in range(1, rank + 1):
            e = (rank - r) * r
            want = LaurentPoly.v_power(-e, -1 if e % 2 else 1)
            assert c_expand((1,) * r, rank) == want * u_elt((1,) * r, rank), (rank, r)


def test_c_expand_rank_one():
    assert c_expand((3,), 1) == u_elt((3,), 1)


def test_hall_product_lists_no_pair_label():
    # gen_mul reads the vectorless targets ((), b + strip) directly, so
    # a product from cold caches adds no bipartitions_of cache miss
    for table in (closed_left_table, closed_form_G, _gen_decomposition, bipartitions_of):
        table.cache_clear()
    for x, y, rank in (((2, 1), (2, 1), 4), ((3,), (1, 1), 2), ((1,), (4, 4), 3)):
        hall_mul(u_elt(x, rank), u_elt(y, rank))
    assert bipartitions_of.cache_info().misses == 0


def test_hall_units_count_the_shapes():
    # the guard's count against listing the shapes it counts
    for n in range(0, 9):
        for nx in range(0, n + 1):
            for x in partitions_of(nx):
                for y in partitions_of(n - nx):
                    for rank in range(max(len(x), len(y), 1), n + 2):
                        fit = lambda m: [
                            mu for mu in partitions_of(m) if len(mu) <= rank
                        ]
                        dominated = [mu for mu in fit(nx) if dominance_leq(mu, x)]
                        want = (
                            x[0] * (len(dominated) * len(fit(n)) + n) if x else 0
                        )
                        assert hall_units(x, y, rank) == want, (x, y, rank)
