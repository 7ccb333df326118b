import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirahall.affine as affine
import mirahall.serve_iwahori as serve_iwahori
import mirahall.oracle as oracle
from mirahall.affine import (
    AffinePerm,
    BetaSet,
    RBAffElt,
    _sort_key,
    _violation,
    pattern_check,
    predicted_case,
    ts_action,
    universe,
    validate,
)
from mirahall.checks import (apply_ts, bruhat_leq, h_basis_check, hecke_quadratic_check,
                             verify_payload)
from mirahall.config import RunConfig
from mirahall.errors import (
    ComponentMismatch,
    Incompatible,
    NoTemplateMatch,
    UsageError,
)
from mirahall.laurent import QPoly
from mirahall.oracle import counted_ts_action, mass_check, rep_roundtrip

ONE = QPoly.one()
Q = QPoly.q_power(1)


def test_affine_perm_basics():
    w = AffinePerm((2, 1))
    assert w(1) == 2 and w(2) == 1
    assert w(3) == 4 and w(0) == -1
    assert w.inverse() == w
    assert w.after(w) == AffinePerm.identity(2)
    assert AffinePerm.rotation(2)(5) == 6
    assert AffinePerm.simple(3, 2).window == (1, 3, 2)
    assert AffinePerm((3, 0)).degree() == 0
    assert AffinePerm((3, 4)).degree() == 2
    with pytest.raises(UsageError):
        AffinePerm((2, 4))
    with pytest.raises(UsageError):
        AffinePerm(())


def test_affine_perm_length():
    assert AffinePerm.identity(3).length() == 0
    assert AffinePerm.rotation(2, 1).length() == 0
    assert AffinePerm.rotation(2, -3).length() == 0
    assert AffinePerm((2, 1)).length() == 1
    assert AffinePerm((3, 0)).length() == 2
    assert AffinePerm((-1, 4)).length() == 2
    # length is inverse-invariant
    for wnd in [(2, 1), (3, 0), (-1, 4), (0, 3), (2, 3, 1), (4, 2, 0)]:
        w = AffinePerm(wnd)
        assert w.length() == w.inverse().length()


def test_beta_set_canonical():
    b = BetaSet(0, (1, 3))
    assert (b.lo, b.extra) == (1, (3,))
    assert 3 in b and 2 not in b and -5 in b
    assert b.top() == 3
    assert BetaSet(0, (2, 1)) == BetaSet(2)
    assert BetaSet(-2, (0,)).toggle(-1) == BetaSet(0)
    assert BetaSet(0).toggle(-1) == BetaSet(-2, (0,))
    assert BetaSet(0).diff(BetaSet(-2, (0,))) == ((-1,), ())
    assert BetaSet(-1).diff(BetaSet(1)) == ((), (0, 1))


def test_beta_set_ell():
    assert BetaSet(0).ell() == 0
    assert BetaSet(0, (2,)).ell() == 1
    assert BetaSet(1).ell() == 1
    assert BetaSet(-2).ell() == -2
    assert BetaSet(-2, (0,)).ell() == -1
    # toggling any single slot moves ell by one
    for b in [BetaSet(0), BetaSet(-1, (1,)), BetaSet(2)]:
        for k in range(-3, 4):
            assert abs(b.toggle(k).ell() - b.ell()) == 1


def test_validate_examples():
    assert validate((1, 2), 0).length() == 0
    assert validate((2, 1), 1).length() == 2
    # the message names the first failing pair
    for args, message in [
        (((1, 2), 0, (2,)), "pair (w=(1, 2), beta=BetaSet(0, (2,))) fails at (i, j)=(1, 2)"),
        (((2, 1), -2, (-1, 2)), "pair (w=(2, 1), beta=BetaSet(-1, (2,))) fails at (i, j)=(0, 2)"),
    ]:
        with pytest.raises(Incompatible) as exc:
            validate(*args)
        assert str(exc.value) == message
    # same beta is fine once the permutation moves the hole out of the way
    assert validate((2, 1), 0, (2,)).length() == 2


def universe_candidates(N, beta_bound=2):
    """Every (w, beta) that universe(N, 1, beta_bound) tries: window
    shifts in {-1, 0, 1}, beta the tail below -beta_bound plus any
    subset of the slots -beta_bound + 1 .. beta_bound."""
    slots = range(1 - beta_bound, beta_bound + 1)
    for pi in itertools.permutations(range(1, N + 1)):
        for cs in itertools.product((-1, 0, 1), repeat=N):
            w = AffinePerm(tuple(p + N * c for p, c in zip(pi, cs)))
            for k in range(len(slots) + 1):
                for members in itertools.combinations(slots, k):
                    yield w, BetaSet(-beta_bound, members)


@pytest.mark.parametrize("N, sample", [(2, None), (3, None), (4, 3000)])
def test_closure_rule_accepts_what_the_pairwise_scan_accepts(N, sample):
    candidates = list(universe_candidates(N))
    if sample is not None:
        candidates = random.Random(N).sample(candidates, sample)
    accepted = set()
    for w, beta in candidates:
        bad = _violation(w, beta)
        assert affine._is_closed(w.inverse().window, beta) == (bad is None), (w, beta)
        if bad is None:
            accepted.add(RBAffElt(w, beta))
            continue
        with pytest.raises(Incompatible) as exc:
            RBAffElt(w, beta)
        assert str(exc.value) == f"pair (w={w.window}, beta={beta!r}) fails at (i, j)={bad}"
    if sample is None:
        assert accepted == set(universe(N))
    else:
        assert accepted <= set(universe(N))


def test_shift():
    x = validate((1, 2), 0)
    assert x.shift(1).shift(-1) == x
    assert x.shift(1).w == AffinePerm.rotation(2, 1)
    assert x.shift(1).beta == x.beta
    assert x.shift(1).degree() == 1
    assert x.shift(1).length() == x.length()
    # additive beta transport would break this label; ours keeps it valid
    y = validate((2, 1), 0, (2,))
    assert y.shift(1) == RBAffElt(AffinePerm((1, 4)), BetaSet(0, (2,)))
    assert y.shift(1).length() == y.length()


def test_rep_roundtrip_base_and_random():
    base = validate((1, 2), 0)
    assert rep_roundtrip(base) == base
    rng = random.Random(11)
    pool = list(universe(2))
    for x in rng.sample(pool, 50):
        assert rep_roundtrip(x, 2) == x
    for x in rng.sample(pool, 10):
        assert rep_roundtrip(x, 3) == x


def test_rep_roundtrip_n3():
    for args in [((1, 2, 3), 0, ()), ((2, 1, 3), 0, ()), ((2, 3, 1), 0, (2,)),
                 ((3, 1, 2), -1, ()), ((0, 2, 4), 0, ())]:
        x = validate(*args)
        assert rep_roundtrip(x, 2) == x
        assert rep_roundtrip(x, 3) == x


def test_ts_action_base_point():
    x = validate((1, 2), 0)
    prod = ts_action(x, 1)
    assert prod == {
        validate((2, 1), 0): ONE,
        validate((2, 1), -2, (0,)): ONE,
    }
    assert pattern_check(x, 1, prod) == 2


def test_ts_action_descent_golden():
    x = validate((1, 0), -2)
    assert ts_action(x, 1) == {
        validate((0, 1), -2): Q,
        x: Q - 1,
    }
    assert pattern_check(x, 1) == 4


def test_ts_action_marked_move_golden():
    x = validate((-1, 2), -2, (0,))
    assert ts_action(x, 2) == {
        validate((0, 1), 0): ONE,
        validate((-1, 2), 0): ONE,
    }
    assert pattern_check(x, 2) == 3


def test_ts_action_double_descent_golden():
    x = validate((-1, 2), -2)
    assert ts_action(x, 2) == {
        x: Q - 2,
        validate((-1, 2), -4, (-2,)): Q - 1,
        validate((0, 1), -2): Q - 1,
    }
    assert pattern_check(x, 2) == 5


def test_ts_action_usage_errors():
    x = validate((1, 2), 0)
    with pytest.raises(UsageError):
        ts_action(x, 3)
    # the field sizes belong to the counting oracle alone
    with pytest.raises(UsageError):
        counted_ts_action(x, 1, primes=(2,))


PERIOD3_SPOTS = [
    (((2, 1, 3), 0, ()), 2),
    (((-2, -1, 3), -2, (0,)), 3),
    (((-2, -1, 3), 0, (3,)), 3),
]


def _assert_served_is_counted(x, i, primes=(2, 3)):
    served = ts_action(x, i)
    counted = counted_ts_action(x, i, primes)
    # same terms, same coefficients, same term order
    assert list(served.items()) == list(counted.items()), (x, i)


def test_closed_ts_action_matches_count_window2():
    for args in ((2,), (2, 1, 1)):
        for x in universe(*args):
            for i in (1, 2):
                _assert_served_is_counted(x, i)


def test_closed_ts_action_matches_count_period3():
    labs = [validate(*args) for args, _ in PERIOD3_SPOTS]
    labs += random.Random(3).sample(list(universe(3)), 100)
    for x in labs:
        for i in (1, 2, 3):
            _assert_served_is_counted(x, i)


def test_closed_ts_action_matches_count_period4():
    for x in random.Random(4).sample(list(universe(4)), 12):
        for i in (1, 2, 3, 4):
            _assert_served_is_counted(x, i)


def test_served_products_make_no_count(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the serving path reached the counting oracle")

    ts_action.cache_clear()
    monkeypatch.setattr(oracle, "_classify_core", forbidden)
    monkeypatch.setattr(oracle, "_ts_counts", forbidden)
    monkeypatch.setattr(oracle, "interpolate", forbidden)
    payload = serve_iwahori.payload(2, 2)
    assert len(payload["products"]) == 2 * len(universe(2))
    for args, i in PERIOD3_SPOTS:
        assert pattern_check(validate(*args), i) in range(1, 6)
    with pytest.raises(AssertionError):
        counted_ts_action(validate((1, 2), 0), 1)


def test_served_product_ignores_primes():
    # the served product takes no field size; the count agrees with it
    # whichever primes it interpolates through, and rejects non-primes
    x = validate((-1, 2), -2)
    with pytest.raises(TypeError):
        ts_action(x, 2, (2, 3))
    for primes in ((5, 7), (3, 2)):
        _assert_served_is_counted(x, 2, primes)
    for primes in ((2, 4), (1, 3), (2,)):
        with pytest.raises(UsageError):
            counted_ts_action(x, 2, primes)
        with pytest.raises(UsageError):
            mass_check(x, 2, primes)


def match_template(x, i, product):
    """Identify the unique case shape fitting the computed product, with
    the toggle slot read off the product; the oracle for the predicted
    case (`predicted_case`)."""
    one = QPoly.one()
    qq = QPoly.q_power(1)
    s = AffinePerm.simple(x.w.N, i)
    ws = x.w.after(s)
    ascent = ws.length() > x.w.length()
    labs = sorted(product, key=_sort_key)
    hits = []
    if ascent and len(labs) == 1:
        y = labs[0]
        if y.w == ws and y.beta == x.beta and product[y] == one:
            hits.append((1, {"xs": y}))
    if ascent and len(labs) == 2 and all(product[y] == one for y in labs):
        mains = [y for y in labs if y.beta == x.beta]
        if len(mains) == 1 and all(y.w == ws for y in labs):
            other = next(y for y in labs if y is not mains[0])
            gone, came = x.beta.diff(other.beta)
            if len(gone) == 1 and not came:
                hits.append((2, {"xs": mains[0], "xsp": other, "toggle": gone[0]}))
    if not ascent and len(labs) == 2 and all(product[y] == one for y in labs):
        kept = [y for y in labs if y.w == x.w]
        moved = [y for y in labs if y.w == ws]
        if len(kept) == 1 and len(moved) == 1 and kept[0].beta == moved[0].beta:
            gone, came = x.beta.diff(kept[0].beta)
            if not gone and len(came) == 1:
                hits.append((3, {"xf": kept[0], "xfs": moved[0], "toggle": came[0]}))
    if not ascent and len(labs) == 2 and product.get(x) == qq - 1:
        other = [y for y in labs if y != x]
        if other and other[0].w == ws and other[0].beta == x.beta and product[other[0]] == qq:
            hits.append((4, {"xs": other[0]}))
    if not ascent and len(labs) == 3 and product.get(x) == qq - 2:
        side = [y for y in labs if y != x]
        xs_c = [y for y in side if y.w == ws and y.beta == x.beta]
        xp_c = [y for y in side if y.w == x.w]
        if (len(xs_c) == 1 and len(xp_c) == 1
                and product[xs_c[0]] == qq - 1 and product[xp_c[0]] == qq - 1):
            gone, came = x.beta.diff(xp_c[0].beta)
            if len(gone) == 1 and not came:
                hits.append((5, {"xs": xs_c[0], "xp": xp_c[0], "toggle": gone[0]}))
    if len(hits) != 1:
        raise NoTemplateMatch(f"product at {x}, position {i} matched {hits}")
    return hits[0]


def wall_pairs():
    """Every (label, wall) of universe(2) and universe(3), a seeded
    sample of 400 labels of universe(4), and the period-3 spot labels."""
    pool = list(universe(2)) + list(universe(3))
    pool += random.Random(8).sample(list(universe(4)), 400)
    pool += [validate(*args) for args, _ in PERIOD3_SPOTS]
    return [(x, i) for x in pool for i in range(1, x.w.N + 1)]


# the lines in each of `affine._line_classes`'s three classes
CLASS_WEIGHTS = (ONE, ONE, Q - 2)


def class_sum_product(x, i):
    """The product summed from line classes, in label order: the
    coefficient of y, for y in x and the labels of x's classes, is the
    summed weight of y's classes that land on x.  The reference for the
    served product, which reads x's own classes only."""
    out = {}
    for y in sorted({x, *affine._line_classes(x, i)}, key=_sort_key):
        coeff = sum((w for z, w in zip(affine._line_classes(y, i), CLASS_WEIGHTS)
                     if z == x), QPoly.zero())
        if coeff:
            out[y] = coeff
    return out


def test_direct_line_classes_match_jump_round_trip():
    for x, i in wall_pairs():
        direct = affine._line_classes(x, i)
        assert direct == oracle.jump_line_classes(x, i), (x, i)
        for lab in direct:
            assert _violation(lab.w, lab.beta) is None, (x, i, lab)


def test_predicted_case_matches_template():
    for x, i in wall_pairs():
        product = class_sum_product(x, i)
        assert list(ts_action(x, i).items()) == list(product.items()), (x, i)
        case, roles = match_template(x, i, product)
        assert predicted_case(x, i) == (case, roles), (x, i)
        assert pattern_check(x, i, product) == case


def _counted(monkeypatch, name):
    """Replace `affine.<name>` by a wrapper that lists its calls' args."""
    calls = []
    inner = getattr(affine, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(affine, name, counting)
    return calls


def test_served_products_read_only_their_own_line_classes(monkeypatch):
    # the class sum read the classes of every label it named too:
    # 323 triples for 232 products at N = 2, 4,128 for 3,288 at N = 3
    calls = _counted(monkeypatch, "_line_classes")
    for N in (2, 3):
        calls.clear()
        payload = serve_iwahori.payload(N, 2)
        assert len(payload["products"]) == {2: 232, 3: 3288}[N]
        assert calls == [(x, i) for x in universe(N, 1, 2) for i in range(1, N + 1)]


def test_iwahori_payload_keeps_no_memo_per_product():
    # a memo as large as the table is never read again by the payload
    for obj in vars(affine).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    payload = serve_iwahori.payload(3, 2)
    assert len(payload["products"]) == 3288
    sizes = {name: obj.cache_info().currsize for name, obj in vars(affine).items()
             if hasattr(obj, "cache_info")}
    assert max(sizes.values()) < len(payload["products"]), sizes


def test_pattern_check_refuses_a_product_off_its_shape():
    x = validate((-1, 2), -2)
    product = dict(ts_action(x, 2))
    product[x] = Q - 1
    with pytest.raises(NoTemplateMatch):
        pattern_check(x, 2, product)
    with pytest.raises(NoTemplateMatch):
        pattern_check(x, 1, ts_action(x, 2))


ROUND_TRIP = ("_beta_from_jumps", "_label_from_jumps", "_predicted_jumps",
              "_window", "_retry", "_bounds", "jump_line_classes")


def test_serving_never_rebuilds_labels(monkeypatch):
    for name in ROUND_TRIP + ("_match_template", "_marked_top", "_GROW_STEPS"):
        assert not hasattr(affine, name), name

    def forbidden(*args, **kwargs):
        raise AssertionError("the serving path rebuilt a label from its jumps")

    ts_action.cache_clear()
    for name in ROUND_TRIP:
        monkeypatch.setattr(oracle, name, forbidden)
    payload = serve_iwahori.payload(3, 2)
    assert len(payload["products"]) == 3 * len(universe(3))
    with pytest.raises(AssertionError):
        oracle.rep_roundtrip(validate((1, 2), 0))


def test_pattern_exhaustive_window2():
    hist = {}
    for x in universe(2):
        for i in (1, 2):
            prod = ts_action(x, i)
            case = pattern_check(x, i, prod)
            hist[case] = hist.get(case, 0) + 1
            assert all(c.degree() <= 1 for c in prod.values())
    assert hist == {1: 100, 2: 41, 3: 16, 4: 46, 5: 29}


def test_mass_conservation_window2():
    pool = list(universe(2))
    for x in pool[::4]:
        for i in (1, 2):
            assert mass_check(x, i)


def test_hecke_quadratic_window2():
    for x in universe(2):
        for i in (1, 2):
            assert hecke_quadratic_check(x, i)


def test_h_basis_shapes_window2():
    for x in universe(2):
        for i in (1, 2):
            assert h_basis_check(x, i)


def test_bruhat_support_window2():
    for x in universe(2):
        for i in (1, 2):
            prod = ts_action(x, i)
            tops = [y for y in prod
                    if all(y.length() >= z.length() for z in prod)]
            assert len(tops) == 1
            assert all(bruhat_leq(y, tops[0]) for y in prod)


def test_shift_equivariance():
    pool = list(universe(2))
    for x in pool[::5]:
        for i in (1, 2):
            prod = ts_action(x, i)
            j = i + 1 if i < 2 else 1
            shifted = ts_action(x.shift(1), j)
            assert shifted == {y.shift(1): c for y, c in prod.items()}


def test_apply_ts_linearity():
    x = validate((1, 2), 0)
    comb = {x: QPoly.from_int(2)}
    doubled = apply_ts(comb, 1)
    single = ts_action(x, 1)
    assert doubled == {y: c * 2 for y, c in single.items()}


def test_bruhat_basics():
    x = validate((1, 2), 0)
    assert bruhat_leq(x, x)
    s = validate((2, 1), 0)
    assert bruhat_leq(x, s)
    assert not bruhat_leq(s, x)
    # tail variants form a chain: the deeper marked vector degenerates
    lo = validate((1, 2), -1)
    assert bruhat_leq(lo, x)
    assert not bruhat_leq(x, lo)
    with pytest.raises(ComponentMismatch):
        bruhat_leq(x, x.shift(1))


def test_n3_spot_products():
    x = validate((2, 1, 3), 0)
    assert ts_action(x, 2) == {
        validate((2, 3, 1), 0): ONE,
        validate((2, 3, 1), -3, (-1, 0)): ONE,
    }
    assert pattern_check(x, 2) == 2
    y = validate((-2, -1, 3), -2, (0,))
    assert ts_action(y, 3) == {
        y: Q - 2,
        validate((-2, -1, 3), -3, (0,)): Q - 1,
        validate((0, -1, 1), -2, (0,)): Q - 1,
    }
    assert pattern_check(y, 3) == 5
    z = validate((-2, -1, 3), 0, (3,))
    assert ts_action(z, 3) == {
        validate((0, -1, 1), 1, (3,)): ONE,
        validate((-2, -1, 3), 1, (3,)): ONE,
    }
    assert pattern_check(z, 3) == 3


def test_n3_spot_checks():
    for args, i in [(((1, 2, 3), 0, ()), 2), (((2, 1, 3), 0, ()), 1),
                    (((2, 3, 1), 0, (2,)), 3), (((0, 2, 4), 0, ()), 3)]:
        x = validate(*args)
        assert pattern_check(x, i) in range(1, 6)
        assert h_basis_check(x, i)
        assert hecke_quadratic_check(x, i)
        assert mass_check(x, i)


@st.composite
def labels(draw):
    n = draw(st.sampled_from((2, 3)))
    perm = draw(st.permutations(range(1, n + 1)))
    shifts = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    lo = draw(st.integers(-2, 1))
    extra = draw(st.sets(st.integers(lo + 2, lo + 4), max_size=2))
    window = tuple(perm[r] + n * shifts[r] for r in range(n))
    try:
        return validate(window, lo, tuple(extra))
    except Incompatible:
        return None


@settings(max_examples=60, deadline=None)
@given(labels(), st.integers(1, 2), st.integers(-2, 2))
def test_label_properties(x, i, d):
    if x is None:
        return
    assert x.shift(d).shift(-d) == x
    assert x.shift(d).length() == x.length()
    assert x.shift(d).degree() == x.degree() + d
    try:
        xs = x.wall(i)
    except Incompatible:
        return
    assert xs.beta == x.beta
    assert abs(xs.length() - x.length()) == 1
    assert xs.wall(i) == x


def test_iwahori_payload_predicts_each_case_once(monkeypatch):
    # the product and its case column read one prediction
    def forbidden(*args, **kwargs):
        raise AssertionError("the payload formed a product outside its prediction")

    monkeypatch.setattr(affine, "ts_action", forbidden)
    monkeypatch.setattr(affine, "pattern_check", forbidden)
    calls = _counted(monkeypatch, "predicted_case")
    payload = serve_iwahori.payload(2, 2)
    assert calls == [(x, i) for x in universe(2, 1, 2) for i in (1, 2)]
    assert len(calls) == len(payload["products"])


@pytest.fixture
def broken_plain_descent(monkeypatch):
    """`_shape` with the coefficients of case 4 (a plain descent)
    swapped, for the served products and the template alike."""
    shape = affine._shape

    def broken(x, case, roles):
        out = shape(x, case, roles)
        return {y: (Q if c == Q - 1 else Q - 1) for y, c in out.items()} if case == 4 else out

    ts_action.cache_clear()
    monkeypatch.setattr(affine, "_shape", broken)
    yield
    ts_action.cache_clear()


def test_a_broken_shape_fails_the_iwahori_suite(broken_plain_descent):
    report = verify_payload(("iwahori",), RunConfig())
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    # the counted product is read against the shape of its predicted case
    assert failed["templates"].startswith("NoTemplateMatch: product at")
    assert "case 4 shape" in failed["templates"]
    assert not report["passed"]
