import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirahall.errors import MiraError, NotInImage, RankTooSmall
from mirahall.oracle import n_standard_tableaux
from mirahall.partitions import (
    add_parts,
    ah_leq,
    bipartition_count,
    bipartitions_of,
    conjugate,
    dominance_leq,
    interleaved_key,
    n_stat,
    orbit_dim,
    pad,
    pair_codim,
    pair_orbit_dim,
    partitions_of,
    shifted,
    star,
    trim,
    upsilon,
    xi,
)

parts = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def all_bipartitions_upto(n):
    for m in range(n + 1):
        yield from bipartitions_of(m)


def xi_search(nu, theta):
    """Inverse of upsilon by exhaustive search over the splittings of nu
    into two partitions; the oracle for the direct `xi`."""
    found = set()
    nu = trim(nu)
    theta = trim(theta)

    def descend(i, lam, mu):
        if i == len(nu):
            bp = (trim(tuple(lam)), trim(tuple(mu)))
            if upsilon(bp) == (nu, theta):
                found.add(bp)
            return
        hi = min(nu[i], lam[i - 1] if i else nu[i])
        for li in range(hi, -1, -1):
            mi = nu[i] - li
            if i and mi > mu[i - 1]:
                continue
            lam.append(li)
            mu.append(mi)
            descend(i + 1, lam, mu)
            lam.pop()
            mu.pop()

    descend(0, [], [])
    if not found:
        raise NotInImage(f"no bipartition maps to ({nu}, {theta})")
    assert len(found) == 1, f"{sorted(found)} all map to ({nu}, {theta})"
    return found.pop()


def test_trim():
    assert trim((3, 1, 0, 0)) == (3, 1)
    assert trim(()) == ()
    with pytest.raises(ValueError):
        trim((1, 2))
    with pytest.raises(ValueError):
        trim((2, -1))


def test_conjugate_values():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((4,)) == (1, 1, 1, 1)


@given(parts)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, c in enumerate(expected):
        assert len(list(partitions_of(n))) == c


def test_partitions_order():
    assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions_of(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_n_stat():
    assert n_stat(()) == 0
    assert n_stat((3, 1)) == 1
    assert n_stat((1, 1, 1)) == 3


@given(parts)
def test_n_stat_via_conjugate(lam):
    # n(lam) is the sum of binomial(col, 2) over conjugate columns
    assert n_stat(lam) == sum(c * (c - 1) // 2 for c in conjugate(lam))


def test_hook_counts():
    assert n_standard_tableaux(()) == 1
    assert n_standard_tableaux((2, 1)) == 2
    assert n_standard_tableaux((2, 2)) == 2
    assert n_standard_tableaux((3, 2)) == 5
    assert n_standard_tableaux((1, 1, 1, 1)) == 1


def test_add_parts():
    assert add_parts((2, 1), (1, 1)) == (3, 2)
    assert add_parts((), (3,)) == (3,)
    assert add_parts((2,), (1, 1)) == (3, 1)


@given(parts, parts)
def test_n_stat_additive_on_componentwise_sum(lam, mu):
    # the staircase weight adds because row indices line up
    k = max(len(lam), len(mu))
    assert n_stat(add_parts(lam, mu)) == sum(
        i * (pad(lam, k)[i] + pad(mu, k)[i]) for i in range(k)
    )


def test_bipartition_golden_order():
    assert bipartitions_of(2) == (
        ((2,), ()),
        ((1,), (1,)),
        ((1, 1), ()),
        ((), (2,)),
        ((), (1, 1)),
    )


def test_bipartition_counts():
    assert len(bipartitions_of(0)) == 1
    assert len(bipartitions_of(1)) == 2
    assert len(bipartitions_of(3)) == 10
    assert len(bipartitions_of(4)) == 20


def test_interleaved_key():
    assert interleaved_key(((2, 1), (1,)), 3) == (2, 1, 1, 0, 0, 0)


def test_ah_golden_relations():
    x1, x2, x3, x4, x5 = bipartitions_of(2)
    assert ah_leq(x5, x3) and ah_leq(x5, x4) and ah_leq(x5, x1)
    assert ah_leq(x3, x2) and ah_leq(x4, x2) and ah_leq(x2, x1)
    assert not ah_leq(x3, x4) and not ah_leq(x4, x3)
    assert not ah_leq(x1, x2)
    assert all(ah_leq(x, x) for x in (x1, x2, x3, x4, x5))


def test_ah_rejects_different_sizes():
    assert not ah_leq(((1,), ()), ((2,), ()))


def test_ah_antisymmetric_and_transitive():
    bps = bipartitions_of(3)
    for a in bps:
        for b in bps:
            if ah_leq(a, b) and ah_leq(b, a):
                assert a == b
            for c in bps:
                if ah_leq(a, b) and ah_leq(b, c):
                    assert ah_leq(a, c)


def test_enumeration_refines_ah():
    # the fixed global order lists AH-larger elements first
    for n in range(5):
        bps = bipartitions_of(n)
        index = {bp: i for i, bp in enumerate(bps)}
        for a in bps:
            for b in bps:
                if a != b and ah_leq(a, b):
                    assert index[b] < index[a]


def test_pair_orbit_dim_values():
    assert pair_orbit_dim(((1,), (1,)), 2) == 3
    assert pair_orbit_dim(((), (2,)), 2) == 2
    assert pair_orbit_dim(((1, 1), ()), 2) == 2
    assert pair_orbit_dim(((), (1, 1)), 2) == 0
    assert pair_orbit_dim(((2,), ()), 2) == 4


def test_pair_codim_values():
    assert pair_codim(((2,), ())) == 0
    assert pair_codim(((1,), (1,))) == 1
    assert pair_codim(((1, 1), ())) == 2
    assert pair_codim(((), (2,))) == 2
    assert pair_codim(((), (1, 1))) == 4


def test_dim_statistics_are_complementary():
    for n in range(6):
        for bp in bipartitions_of(n):
            lo = max(1, len(add_parts(*bp)))
            for rank in range(lo, 7):
                assert pair_orbit_dim(bp, rank) + pair_codim(bp) == n * rank


def test_rank_guard():
    with pytest.raises(RankTooSmall):
        pair_orbit_dim(((1, 1, 1), ()), 2)
    with pytest.raises(RankTooSmall):
        orbit_dim((1, 1, 1), 2)


def test_upsilon_values():
    assert upsilon(((1,), (1,))) == ((2,), (1,))
    assert upsilon(((1, 1), (1,))) == ((2, 1), (2,))
    assert upsilon(((2,), ())) == ((2,), ())
    assert upsilon(((), ())) == ((), ())


def test_upsilon_fixes_pure_second_component():
    for n in range(5):
        for mu in partitions_of(n):
            assert upsilon(((), mu)) == (mu, mu)


def test_upsilon_quotient_size():
    for bp in all_bipartitions_upto(5):
        lam, mu = bp
        nu, theta = upsilon(bp)
        assert nu == add_parts(lam, mu)
        assert sum(theta) == sum(nu) - (lam[0] if lam else 0)
        # quotient type sits inside the full type row by row
        assert all(
            theta[i] <= nu[i] for i in range(len(theta))
        )


def test_upsilon_injective():
    for n in range(6):
        seen = {}
        for bp in bipartitions_of(n):
            img = upsilon(bp)
            assert img not in seen, (bp, seen.get(img))
            seen[img] = bp


def test_xi_inverts_upsilon():
    for bp in all_bipartitions_upto(5):
        assert xi(*upsilon(bp)) == bp


def test_xi_matches_search_on_images():
    for bp in all_bipartitions_upto(9):
        img = upsilon(bp)
        assert xi(*img) == xi_search(*img) == bp


def test_xi_matches_search_off_the_image():
    def outcome(fn, nu, theta):
        try:
            return fn(nu, theta)
        except MiraError as exc:
            return type(exc)

    images = {upsilon(bp) for bp in all_bipartitions_upto(6)}
    misses = 0
    for n in range(7):
        for nu in partitions_of(n):
            for m in range(n + 1):
                for theta in partitions_of(m):
                    if (nu, theta) in images:
                        continue
                    misses += 1
                    want = outcome(xi_search, nu, theta)
                    assert want is NotInImage, (nu, theta)
                    assert outcome(xi, nu, theta) is want, (nu, theta)
    assert misses > 0


def test_bipartition_count():
    for n in range(10):
        labels = bipartitions_of(n)
        assert bipartition_count(n) == len(labels)
        for rows in range(n + 2):
            fit = [bp for bp in labels if max(len(bp[0]), len(bp[1])) <= rows]
            assert bipartition_count(n, rows) == len(fit), (n, rows)
    assert bipartition_count(-1) == 0


def test_the_guard_counts_the_labels_a_table_lists():
    # the cost guards count with `bipartition_count(n, rows)` the labels
    # that `bipartitions_of(n, rows)` lists for the table
    for n in range(15):
        for rows in (None, *range(n + 2)):
            assert bipartition_count(n, rows) == len(bipartitions_of(n, rows)), (n, rows)


def test_bipartition_count_stops_past_its_cap():
    # exact up to the cap, and above it exactly when the full count is
    for n in range(41):
        for rows in (None, *range(n + 2)):
            full = bipartition_count(n, rows)
            for cap in (0, 1, 5, 40, 300, 1770):
                capped = bipartition_count(n, rows, cap)
                assert capped == full if full <= cap else capped > cap, (n, rows, cap)
    # n >= cap is settled by the n + 1 labels (k)|(n - k), uncounted
    assert bipartition_count(10**7, 1, 300) == 10**7 + 1
    assert bipartition_count(300, 0, 300) == 0


def test_xi_examples_and_guards():
    assert xi((2,), (1,)) == ((1,), (1,))
    assert xi((1,), (1,)) == ((), (1,))
    with pytest.raises(NotInImage):
        xi((2,), (1, 1))
    with pytest.raises(NotInImage):
        xi((1, 1), (2,))


def test_signature_helpers():
    assert star((2, 1), 3) == (0, -1, -2)
    assert star((), 2) == (0, 0)
    assert shifted((0, -1, -2), 2) == (2, 1, 0)
    with pytest.raises(ValueError):
        pad((1, 1, 1), 2)


def test_dominance():
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))
    assert not dominance_leq((2,), (2, 1))
