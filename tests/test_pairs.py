import time

import numpy as np
import pytest

from mirahall import gf, pairs
from mirahall.errors import CostGuard, NotNilpotent
from mirahall.laurent import QPoly
from mirahall.partitions import add_parts, bipartitions_of, partitions_of


def bps_up_to(n):
    for m in range(n + 1):
        yield from bipartitions_of(m)


def test_normal_form_shapes():
    u, v = pairs.normal_form(((1,), (1,)))
    assert u.tolist() == [[0, 0], [1, 0]]
    assert v.tolist() == [0, 1]
    u, v = pairs.normal_form(((1, 1), ()))
    assert u.tolist() == [[0, 0], [0, 0]]
    assert v.tolist() == [1, 1]
    u, v = pairs.normal_form(((), ()))
    assert u.shape == (0, 0) and v.shape == (0,)


def test_jordan_type_of_normal_forms():
    for n in range(6):
        for nu in partitions_of(n):
            u, _ = pairs.normal_form(((), nu))
            for p in (2, 3):
                assert pairs.jordan_type(u % p, p) == nu


def test_jordan_type_rejects_invertible():
    with pytest.raises(NotNilpotent):
        pairs.jordan_type(np.eye(2, dtype=np.int64), 3)


def test_pair_type_recovers_label():
    # the counting model and the combinatorial correspondence agree
    for bp in bps_up_to(4):
        u, v = pairs.normal_form(bp)
        for p in (2, 3, 5):
            assert pairs.pair_type(u % p, v % p, p) == bp


def test_left_profile_frozen_size_two():
    for p in (2, 3, 5):
        assert pairs.left_profile(((), (1, 1)), 1, p) == {
            ((1,), ((), (1,))): p + 1
        }
        assert pairs.left_profile(((1,), (1,)), 1, p) == {
            ((1,), ((), (1,))): 1
        }
        assert pairs.left_profile(((1, 1), ()), 1, p) == {
            ((1,), ((), (1,))): 1,
            ((1,), ((1,), ())): p,
        }
        assert pairs.left_profile(((), (2,)), 1, p) == {
            ((1,), ((), (1,))): 1
        }


def test_left_profile_frozen_size_three():
    for p in (2, 3):
        assert pairs.left_profile(((), (2, 1)), 1, p) == {
            ((1,), ((), (1, 1))): 1,
            ((1,), ((), (2,))): p,
        }
        # marked vector deep in the big block
        assert pairs.left_profile(((1,), (1, 1)), 1, p) == {
            ((1,), ((), (1, 1))): 1,
            ((1,), ((1,), (1,))): p,
        }


def test_right_profile_frozen():
    for p in (2, 3, 5):
        assert pairs.right_profile(((), (1,)), 0, p) == {(((), ()), (1,)): 1}
        assert pairs.right_profile(((1,), (1,)), 1, p) == {
            (((1,), ()), (1,)): 1
        }
        assert pairs.right_profile(((), (2,)), 1, p) == {
            (((), (1,)), (1,)): 1
        }
        assert pairs.right_profile(((), (1, 1)), 1, p) == {
            (((), (1,)), (1,)): p + 1
        }
        assert pairs.right_profile(((1, 1), ()), 1, p) == {
            (((1,), ()), (1,)): 1
        }


def test_right_profile_lift_path():
    # dim-2 subspaces through a nonzero marked vector
    for p in (2, 3):
        assert pairs.right_profile(((1,), (1, 1)), 2, p) == {
            (((1,), (1,)), (1,)): p,
            (((1, 1), ()), (1,)): 1,
        }


def test_profiles_identity_slice():
    for bp in bps_up_to(3):
        n = pairs.label_size(bp)
        for p in (2, 3):
            assert pairs.left_profile(bp, 0, p) == {((), bp): 1}
            assert pairs.right_profile(bp, n, p) == {(bp, ()): 1}


def test_elementary_profiles_match_full_sweeps():
    for bp in bps_up_to(3):
        n = pairs.label_size(bp)
        for r in range(n + 1):
            for p in (2, 3):
                left = pairs.left_profile(bp, r, p)
                ones = (1,) * r
                expect = {
                    src: c for (w, src), c in left.items() if w == ones
                }
                assert pairs.left_elementary_profile(bp, r, p) == expect
                right = pairs.right_profile(bp, n - r, p)
                expect_r = {
                    src: c for (src, w), c in right.items() if w == ones
                }
                assert pairs.right_elementary_profile(bp, r, p) == expect_r


def test_profiles_unchanged_by_batch_slicing(monkeypatch):
    sweeps = (pairs.left_profile, pairs.right_profile, pairs.right_elementary_profile)
    cases = [(bp, k, p) for bp in bps_up_to(3)
             for k in range(pairs.label_size(bp) + 1) for p in (2, 3)]
    whole = [[dict(f(*case)) for f in sweeps] for case in cases]
    monkeypatch.setattr(gf, "BATCH_ROWS", 2)
    for f in sweeps:
        f.cache_clear()
    try:
        assert [[dict(f(*case)) for f in sweeps] for case in cases] == whole
    finally:
        for f in sweeps:
            f.cache_clear()


def test_invariant_subspace_mass_ignores_vector():
    # the invariance sweep cannot depend on the marked vector
    for bp in bps_up_to(3):
        nu = add_parts(*bp)
        n = sum(nu)
        for k in range(n + 1):
            for p in (2, 3):
                a = sum(pairs.left_profile(bp, k, p).values())
                b = sum(pairs.left_profile(((), nu), k, p).values())
                assert a == b


def test_left_constants_interpolated():
    table = pairs.left_constants(((), (1, 1)), 1)
    assert table == {((1,), ((), (1,))): QPoly({0: 1, 1: 1})}
    table = pairs.left_constants(((1, 1), ()), 1)
    assert table == {
        ((1,), ((), (1,))): QPoly.one(),
        ((1,), ((1,), ())): QPoly({1: 1}),
    }
    table = pairs.left_constants(((1,), (1,)), 1)
    assert table == {((1,), ((), (1,))): QPoly.one()}


def test_right_elementary_constants():
    assert pairs.right_elementary_constants(((), (1, 1)), 1) == {
        ((), (1,)): QPoly({0: 1, 1: 1})
    }
    # the marked vector blocks the square-zero source here
    assert pairs.right_elementary_constants(((1,), (1,)), 1) == {
        ((1,), ()): QPoly.one()
    }


def test_hall_constants_frozen():
    q = QPoly.q_power
    assert pairs.hall_constant((2,), (1,), (1,)) == QPoly.one()
    assert pairs.hall_constant((1, 1), (1,), (1,)) == QPoly({0: 1, 1: 1})
    assert pairs.hall_constant((2, 1), (1,), (1, 1)) == QPoly.one()
    assert pairs.hall_constant((2, 1), (1,), (2,)) == q(1)
    assert pairs.hall_constant((1, 1, 1), (1,), (1, 1)) == QPoly(
        {0: 1, 1: 1, 2: 1}
    )
    assert pairs.hall_constant((3,), (1,), (1, 1)) == QPoly.zero()


def test_hall_sub_quotient_symmetry():
    # swapping sub and quotient types never changes the count
    for n in range(1, 5):
        for c in partitions_of(n):
            for k in range(n + 1):
                tab = pairs.left_constants(((), c), k)
                for (a, (_, b)), poly in tab.items():
                    mirror = pairs.left_constants(((), c), n - k).get(
                        (b, ((), a)), QPoly.zero()
                    )
                    assert mirror == poly, (c, a, b)


def test_orbit_census_frozen_n2_q2():
    assert pairs.orbit_census(2, 2) == {
        ((2,), ()): 2,
        ((1,), (1,)): 1,
        ((), (2,)): 1,
        ((1, 1), ()): 3,
        ((), (1, 1)): 1,
    }


def test_orbit_census_counts_and_masses():
    for n in (1, 2, 3):
        for q in (2, 3):
            census = pairs.orbit_census(n, q, seed=7)
            assert set(census) == set(bipartitions_of(n))
            by_nu = {}
            for (lam, mu), cnt in census.items():
                key = add_parts(lam, mu)
                by_nu[key] = by_nu.get(key, 0) + cnt
            assert set(by_nu.values()) == {q**n}


def test_orbit_census_guard():
    with pytest.raises(CostGuard):
        pairs.orbit_census(5, 7)


def test_flag_fiber_frozen():
    for p in (2, 3):
        assert [pairs.flag_fiber_count(((), (2,)), m, p) for m in (0, 1, 2)] == [1, 1, 1]
        assert [pairs.flag_fiber_count(((), (1, 1)), m, p) for m in (0, 1, 2)] == [
            p + 1,
            p + 1,
            p + 1,
        ]
        assert [pairs.flag_fiber_count(((1,), (1,)), m, p) for m in (0, 1, 2)] == [1, 1, 0]
        assert [pairs.flag_fiber_count(((2,), ()), m, p) for m in (0, 1, 2)] == [1, 0, 0]
        assert [pairs.flag_fiber_count(((1, 1), ()), m, p) for m in (0, 1, 2)] == [
            p + 1,
            1,
            0,
        ]
        assert pairs.flag_fiber_count(((1,), ()), 0, p) == 1
        assert pairs.flag_fiber_count(((1,), ()), 1, p) == 0
        assert pairs.flag_fiber_count(((), (1,)), 1, p) == 1


def test_sweep_guard():
    with pytest.raises(CostGuard):
        pairs._guard_sweep(20, 10, 11)


def test_right_sweep_guard_fires_before_sweeping():
    # [12 choose 6]_2 is about 2.3e11 subspaces
    start = time.perf_counter()
    with pytest.raises(CostGuard):
        pairs.right_elementary_profile(((), (1,) * 12), 6, 2)
    assert time.perf_counter() - start < 1.0
