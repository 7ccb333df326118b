"""Release gate.  One test per shipped guarantee, exact equality only.

Every expected value here comes from an independent route: finite-field
enumeration, the symmetric-function pipeline, or a hand-checked frozen
table.  Each test ends by printing a single verdict line so the log of
a full run reads as a checklist.
"""

import hashlib

import mirahall.cli as cli
from mirahall.affine import pattern_check, ts_action, universe, validate
from mirahall.bimodule import act, pi_table, u_bip
from mirahall.checks import (
    bruhat_leq,
    h_basis_check,
    hecke_quadratic_check,
    verify_payload,
)
from mirahall.closedform import closed_form_G
from mirahall.config import RunConfig
from mirahall.hall import HallElt, hall_mul, u_elt
from mirahall.laurent import LaurentPoly, QPoly
from mirahall.oracle import (
    _kostka_table,
    fiber_oracle_check,
    mass_check,
    psi,
    rho_check,
    verify_closed_form,
)
from mirahall.pairs import left_elementary_constants
from mirahall.partitions import bipartitions_of, partitions_of
from mirahall.traces import (
    GreenLabel,
    green_freeness_check,
    green_labels,
    green_mul,
    trace_value,
)

one = LaurentPoly.one()

# sha256 of the default `verify --suite all` report
VERIFY_ALL_SHA256 = "ce6ff297a813e2bae853bd36fe6fd6dd62382a389ea0d64a1fd9f0871c9d4ac6"


def _verdict(k: int, text: str) -> None:
    print(f"[gate {k:02d}] PASS  {text}")


def _failed(report: dict) -> list[str]:
    """The failing checks of a `verify_payload` report, named."""
    return [
        f"{c['suite']} {c['name']}: {c['detail']}"
        for c in report["checks"]
        if not c["passed"]
    ]


def test_gate_01_orbit_census():
    report = verify_payload(["census"], RunConfig(max_n=4))
    assert report["passed"], _failed(report)
    assert len(bipartitions_of(4)) == 20
    _verdict(1, "orbit counts match bipartition counts, n <= 4, q in {2,3}")


def test_gate_02_structure_constants():
    # closed route vs counting route over every table the counting
    # budget covers: ambient dimension <= 4, corank 1 and 2
    for n in range(1, 5):
        for tgt in bipartitions_of(n):
            for r in (1, 2):
                if r <= n:
                    verify_closed_form(tgt, r)
                    counted = left_elementary_constants(tgt, r)
                    for src, poly in counted.items():
                        closed = closed_form_G(r, src).get(tgt, QPoly.zero())
                        for x in (2, 3, 5):
                            assert closed.evaluate(x) == poly.evaluate(x), (
                                tgt,
                                src,
                                r,
                                x,
                            )
    col = closed_form_G(1, ((), (1,)))
    assert col[((), (1, 1))] == QPoly({0: 1, 1: 1})
    assert col[((1,), (1,))] == QPoly({0: 1})
    _verdict(2, "closed constants equal counted constants, sampled at q=2,3,5")


def _words(total: int):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in _words(total - head):
            yield (head,) + rest


def test_gate_03_hall_sanity():
    q_plus_one = LaurentPoly({2: 1, 0: 1})
    for rank in (2, 3, 4):
        line = u_elt((1,), rank)
        assert hall_mul(line, line) == HallElt(
            rank, {(2,): one, (1, 1): q_plus_one}
        ), rank
    line = u_elt((1,), 1)
    assert hall_mul(line, line) == HallElt(1, {(2,): one})
    rank = 4
    for total in range(2, 6):
        for word in _words(total):
            if len(word) < 2:
                continue
            prod = u_elt((1,) * word[0], rank)
            want = psi(prod)
            for r in word[1:]:
                gen = u_elt((1,) * r, rank)
                prod = hall_mul(prod, gen)
                want = want * psi(gen)
            assert psi(prod) == want, word
    _verdict(3, "line squares and character multiplicativity, total size <= 5")


GOLDEN_COLUMNS = {
    ((2,), ()): [{0: 1}, {-1: 1}, {-2: 1}, {-2: 1}, {-4: 1}],
    ((1,), (1,)): [{0: 1}, {-1: 1}, {-1: 1}, {-1: 1, -3: 1}],
    ((1, 1), ()): [{0: 1}, {-2: 1}],
    ((), (2,)): [{0: 1}, {-2: 1}],
    ((), (1, 1)): [{0: 1}],
}


def test_gate_04_size_two_table():
    tab = pi_table(2, 2)
    assert set(GOLDEN_COLUMNS) == set(tab.order)
    for colbp, want in GOLDEN_COLUMNS.items():
        nonzero = [
            tab.value(row, colbp)
            for row in tab.order
            if not tab.value(row, colbp).is_zero()
        ]
        assert nonzero == [LaurentPoly(d) for d in want], colbp
    _verdict(4, "size-two table matches the hand-counted columns exactly")


def test_gate_05_table_shape():
    report = verify_payload(["pi"], RunConfig(max_n=4))
    assert report["passed"], _failed(report)
    for n in range(1, 4):
        assert pi_table(n, n).order == pi_table(n, n + 1).order, n
    _verdict(5, "triangularity, positivity, negative degrees, rank stability")


def test_gate_06_classical_reduction():
    for n in range(1, 5):
        tab = pi_table(n, 4)
        oracle = _kostka_table(n, n)
        for col in partitions_of(n):
            for row in partitions_of(n):
                want = LaurentPoly.from_t_poly(oracle.get((col, row), QPoly.zero()))
                assert tab.value(((), row), ((), col)) == want, ("u", n, row, col)
                assert tab.value((row, ()), (col, ())) == want, ("v", n, row, col)
    _verdict(6, "one-sided blocks equal deformed Kostka matrices, sizes <= 4")


def test_gate_07_trace_fiber():
    for n in range(1, 4):
        for qv in (2, 3):
            assert fiber_oracle_check(n, qv)["passed"], (n, qv)
    rep = fiber_oracle_check(4, 2)
    assert rep["passed"] and rep["epsilon"] == 1
    col, row = ((1,), (1,)), ((), (1, 1))
    plain, radical = trace_value(col, row, pi_table(2, 2).value(row, col))
    assert plain == QPoly({0: 1, 1: 1})
    assert radical.is_zero()
    assert plain.evaluate(2) == 3
    counted = {
        (tuple(map(tuple, c["stratum"])), c["m"]): c["count"]
        for c in fiber_oracle_check(2, 2)["cells"]
    }
    assert counted[(((), (1, 1)), 1)] == 3
    _verdict(7, "flag fibers match weighted traces; golden cell counts 3 at q=2")


def test_gate_08_boundary_duality():
    for m in range(0, 4):
        for src in bipartitions_of(m):
            for r in (1, 2):
                assert rho_check(src, r, 3), (src, r)
    _verdict(8, "row-strip and column-strip constants agree, rank 3")


def test_gate_09_green_bimodule():
    for qv in (2, 3):
        for an in (1, 2):
            for bn in (1, 2):
                for xn in range(0, 3 - max(an, bn)):
                    for a in green_labels(an, qv, pure=True):
                        for b in green_labels(bn, qv, pure=True):
                            for lab in green_labels(xn, qv):
                                x = {lab: 1}
                                lhs = green_mul("left", a, green_mul("right", b, x))
                                rhs = green_mul("right", b, green_mul("left", a, x))
                                assert lhs == rhs, (qv, a, b, lab)
        for n in (0, 1, 2):
            assert green_freeness_check(n, qv)["passed"], (n, qv)
        point = (1, 1)
        for side in ("left", "right"):
            for wn in (1, 2):
                for srcn in range(0, 3 - wn):
                    for w in partitions_of(wn):
                        cls = GreenLabel(qv, {point: ((), w)})
                        for src in bipartitions_of(srcn):
                            got = green_mul(
                                side, cls, {GreenLabel(qv, {point: src}): 1}
                            )
                            rank = wn + srcn
                            fin = act(side, u_elt(w, rank), u_bip(src, rank))
                            want = {}
                            for bp, lpoly in fin.items():
                                assert all(e % 2 == 0 for e, _ in lpoly.items())
                                val = sum(
                                    c * qv ** (e // 2) for e, c in lpoly.items()
                                )
                                if val:
                                    want[GreenLabel(qv, {point: bp})] = val
                            assert got == want, (qv, side, w, src)
    _verdict(9, "class-ring actions commute, bases free, degree one specializes")


def test_gate_10_wall_products():
    hist: dict[int, int] = {}
    for x in universe(2):
        for i in (1, 2):
            prod = ts_action(x, i)
            case = pattern_check(x, i, prod)
            hist[case] = hist.get(case, 0) + 1
            assert all(c.degree() <= 1 for c in prod.values()), (x, i)
            assert hecke_quadratic_check(x, i), (x, i)
            assert mass_check(x, i), (x, i)
            assert h_basis_check(x, i), (x, i)
            tops = [y for y in prod if all(y.length() >= z.length() for z in prod)]
            assert len(tops) == 1, (x, i)
            assert all(bruhat_leq(y, tops[0]) for y in prod), (x, i)
    assert hist == {1: 100, 2: 41, 3: 16, 4: 46, 5: 29}
    spots = [
        (((2, 1, 3), 0, ()), 2, 2),
        (((-2, -1, 3), -2, (0,)), 3, 5),
        (((-2, -1, 3), 0, (3,)), 3, 3),
    ]
    for args, i, want_case in spots:
        x = validate(*args)
        prod = ts_action(x, i)
        assert pattern_check(x, i, prod) == want_case, args
        assert hecke_quadratic_check(x, i), args
        assert mass_check(x, i), args
        assert h_basis_check(x, i), args
    _verdict(10, "every wall product fits one template; relations hold")


def test_gate_11_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MIRAHALL_CACHE_DIR", str(tmp_path / "cache"))

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    first = run(["verify", "--suite", "all"])
    second = run(["verify", "--suite", "all"])
    assert first[0] == 0 and second[0] == 0
    assert first[1] == second[1]
    assert hashlib.sha256(first[1].encode()).hexdigest() == VERIFY_ALL_SHA256
    cold = run(["pi", "--n", "3"])
    cached = run(["pi", "--n", "3"])
    assert cold[0] == 0
    assert cold == cached
    _verdict(11, "verification report and cached artifacts are byte-stable")
