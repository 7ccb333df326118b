"""The `verify` suites and the structural checks they run.

`verify_payload` runs the named suites (`cli.SUITES` lists them in
report order) and gathers one record per check.  Each suite compares a
served table with an independent route from `oracle` (counts over small
prime fields, the antisymmetriser) or with a structural identity: the
Hecke quadratic relation and the normalised case shapes of the wall
products (`hecke_quadratic_check`, `h_basis_check`) and the closure
order they must respect (`bruhat_leq`).

Only `verify` (through `cli.verify_payload`), the tests and `scripts/`
import this module.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from typing import Sequence

from .affine import (
    AffinePerm,
    RBAffElt,
    pattern_check,
    predicted_case,
    ts_action,
    universe,
    validate,
)
from .bimodule import _minus_v, pi_table, trace_value
from .config import RunConfig
from .errors import ComponentMismatch, MiraError, OracleMismatch, TruncationTooSmall, UsageError
from .hall import hall_mul, u_elt
from .combination import Combination
from .laurent import LaurentPoly, QPoly
from .oracle import (
    _check_primes,
    _kostka_table,
    _predicted_jumps,
    counted_ts_action,
    fiber_oracle_check,
    hall_mul_direct,
    mass_check,
    psi,
    rho_check,
    verify_closed_form,
)
from .pairs import orbit_census
from .partitions import ah_leq, bipartitions_of, pair_codim, partitions_of
from .traces import green_freeness_check

# --- wall-crossing relations and the closure order -----------------------------


def apply_ts(comb: dict, i: int) -> dict:
    """Extend ts_action linearly over combinations with QPoly weights."""
    out: dict = {}
    for lab, coeff in comb.items():
        Combination._accumulate(out, (
            (lab2, coeff * c2) for lab2, c2 in ts_action(lab, i).items()
        ))
    return out


def hecke_quadratic_check(x: RBAffElt, i: int) -> bool:
    """T_s T_s = (q - 1) T_s + q, applied on the right of x."""
    first = ts_action(x, i)
    twice = apply_ts(first, i)
    qq = QPoly.q_power(1)
    want = {lab: (qq - 1) * c for lab, c in first.items()}
    Combination._accumulate(want, [(x, qq)])
    return twice == want


def h_basis_check(x: RBAffElt, i: int) -> bool:
    """Rescale the product by signed powers of v and compare against the
    five shapes written in the normalized basis, with the case and its
    labels predicted from (x, i) (`affine.predicted_case`).

    The normalized basis element of y is (-v)^{-length(y)} times the plain
    one, and the wall generator is shifted by -v^{-1}; the equality encodes
    both the case shapes and the length bookkeeping."""
    product = ts_action(x, i)
    case, roles = predicted_case(x, i)

    lhs: dict[RBAffElt, LaurentPoly] = {}
    pre = _minus_v(-x.length() - 1)
    for y, c in product.items():
        lhs[y] = pre * c.to_laurent()
    extra = LaurentPoly.v_power(-1, -1) * _minus_v(-x.length())
    lhs[x] = lhs.get(x, LaurentPoly.zero()) + extra
    lhs = {y: c * _minus_v(y.length()) for y, c in lhs.items()}
    lhs = {y: c for y, c in lhs.items() if c}

    one = LaurentPoly.one()
    mvinv = LaurentPoly.v_power(-1, -1)
    if case == 1:
        want = {roles["xs"]: one, x: mvinv}
    elif case == 2:
        want = {roles["xs"]: one, roles["xsp"]: mvinv, x: mvinv}
    elif case == 3:
        want = {roles["xf"]: one, roles["xfs"]: mvinv, x: mvinv}
    elif case == 4:
        want = {roles["xs"]: one, x: LaurentPoly.v_power(1, -1)}
    else:
        diff = LaurentPoly.v_power(-1, 1) + LaurentPoly.v_power(1, -1)
        moved = LaurentPoly.one() + LaurentPoly.v_power(-2, -1)
        want = {x: diff, roles["xp"]: moved, roles["xs"]: moved}
    want = {y: c for y, c in want.items() if c}
    return lhs == want


def _rank_rows(w: AffinePerm, floor: int, lo: int, hi: int):
    """For k = lo..hi in turn, the row #{m in [floor, k] : w(m) <= j}
    over j = lo..hi; each k extends the previous prefix by one index.
    The same list is yielded each time, updated in place."""
    width = hi - lo + 1
    row = [0] * width
    for m in range(floor, hi + 1):
        for t in range(max(w(m) - lo, 0), width):
            row[t] += 1
        if m >= lo:
            yield row


def bruhat_leq(a: RBAffElt, b: RBAffElt) -> bool:
    """Closure order: a below b iff both rank families of a dominate, the
    plain intersection dimensions and the same dimensions augmented by the
    marked-vector membership bit.

    Where the plain ranks are equal the membership of a must cover that of
    b; a positive rank gap absorbs a lost membership.  Dimensions are taken
    relative to a shared floor deep enough that the difference stabilizes."""
    if a.w.N != b.w.N:
        raise ComponentMismatch("different periods")
    if a.degree() != b.degree():
        raise ComponentMismatch(
            f"components {a.degree()} and {b.degree()} are not comparable"
        )
    n = a.w.N
    lo = min(a.beta.lo, b.beta.lo, -a.w.spread(), -b.w.spread()) - 3 * n
    hi = max(a.beta.top(), b.beta.top(), a.w.spread(), b.w.spread(), n) + 3 * n
    floor1 = lo - max(a.w.spread(), b.w.spread()) - n
    ja = _predicted_jumps(a, lo, hi)
    jb = _predicted_jumps(b, lo, hi)
    rows = zip(
        _rank_rows(a.w, floor1, lo, hi),
        _rank_rows(b.w, floor1, lo, hi),
        _rank_rows(a.w, floor1 - n, lo, hi),
        _rank_rows(b.w, floor1 - n, lo, hi),
    )
    for k, (ra, rb, ra2, rb2) in zip(range(lo, hi + 1), rows):
        for t, j in enumerate(range(lo, hi + 1)):
            diff = ra[t] - rb[t]
            if diff != ra2[t] - rb2[t]:
                raise TruncationTooSmall("rank difference did not stabilize")
            if diff < 0:
                return False
            da = 1 if ja[k] is None or ja[k] <= j else 0
            db = 1 if jb[k] is None or jb[k] <= j else 0
            if diff + da - db < 0:
                return False
    return True


# --- verify suites -------------------------------------------------------------


def _check(suite: str, name: str, fn) -> dict:
    try:
        detail = fn()
        return {"suite": suite, "name": name, "passed": True, "detail": str(detail)}
    except UsageError:  # bad arguments, not a failed check: the CLI exits 2
        raise
    except MiraError as exc:
        return {
            "suite": suite,
            "name": name,
            "passed": False,
            "detail": f"{type(exc).__name__}: {exc}",
        }


def _suite_census(cfg: RunConfig) -> list[dict]:
    out = []
    for n in range(1, cfg.max_n + 1):
        for q in cfg.primes:
            def run(n=n, q=q):
                sizes = orbit_census(n, q, seed=cfg.seed)
                want = len(bipartitions_of(n))
                if len(sizes) != want:
                    raise OracleMismatch(f"{len(sizes)} classes, expected {want}")
                return f"{len(sizes)} classes over {sum(sizes.values())} vectors"
            out.append(_check("census", f"n={n},q={q}", run))
    return out


def _suite_constants(cfg: RunConfig) -> list[dict]:
    out = []
    for n in range(1, min(cfg.max_n, 3) + 1):
        def run(n=n):
            tables = 0
            for r in (1, 2):
                if r > n:
                    continue
                for tgt in bipartitions_of(n):
                    for side in ("left", "right"):
                        verify_closed_form(tgt, r, side)
                        tables += 1
            return f"{tables} closed left and right tables against counts"
        out.append(_check("constants", f"n={n}", run))
    return out


def _suite_hall(cfg: RunConfig) -> list[dict]:
    def square(rank=1):
        one_row = u_elt((1,), rank)
        prod = hall_mul(one_row, one_row)
        want = {(2,): LaurentPoly.one()}
        if rank >= 2:
            want[(1, 1)] = LaurentPoly.v_power(2) + 1
        if dict(prod.items()) != want:
            raise OracleMismatch(f"u_(1)^2 at rank {rank}: {prod!r}")
        return "square of the one-box class"

    def direct(rank=4):
        pairs_checked = 0
        for n in range(2, 5):
            for ka in range(1, n):
                for a in partitions_of(ka):
                    for b in partitions_of(n - ka):
                        x, y = u_elt(a, rank), u_elt(b, rank)
                        if hall_mul(x, y) != hall_mul_direct(x, y):
                            raise OracleMismatch(f"products disagree at {a} * {b}")
                        pairs_checked += 1
        return f"{pairs_checked} generator-route vs direct-count products"

    def multiplicative(rank=4):
        rng = random.Random(cfg.seed + 1)
        shapes = [lam for k in range(1, 3) for lam in partitions_of(k)]
        for _ in range(4):
            a, b = rng.choice(shapes), rng.choice(shapes)
            x, y = u_elt(a, rank), u_elt(b, rank)
            lhs = psi(hall_mul(x, y))
            rhs = psi(x) * psi(y)
            if lhs != rhs:
                raise OracleMismatch(f"character map not multiplicative at {a} * {b}")
        return "character map multiplicative on sampled products"

    return [
        _check("hall", "square-rank1", lambda: square(1)),
        _check("hall", "square-rank2", lambda: square(2)),
        _check("hall", "vs-direct", direct),
        _check("hall", "multiplicative", multiplicative),
    ]


def _suite_pi(cfg: RunConfig) -> list[dict]:
    out = []
    for n in range(0, cfg.max_n + 1):
        def run(n=n):
            table = pi_table(n, max(n, 1))
            for col in table.order:
                if table.raw_value(col, col) != LaurentPoly.one():
                    raise OracleMismatch(f"diagonal at {col} is not one")
                for row in table.order:
                    val = table.value(row, col)
                    if val.is_zero():
                        continue
                    if not ah_leq(row, col):
                        raise OracleMismatch(f"support at ({row}, {col}) breaks the order")
                    # off the diagonal every exponent lies in [-gap, -1]
                    # and has the parity of the codimension gap
                    gap = pair_codim(row) - pair_codim(col)
                    if row != col and any(e not in range(-gap, 0, 2) for e, _ in val.items()):
                        raise OracleMismatch(f"off-diagonal ({row}, {col}) off range(-{gap}, 0, 2)")
                    if any(c <= 0 for _, c in val.items()):
                        raise OracleMismatch(f"negative entry at ({row}, {col})")
            return f"{len(table.order)} columns triangular and nonnegative"
        out.append(_check("pi", f"n={n}", run))

    def stability():
        for n in range(0, min(cfg.max_n, 3) + 1):
            rank = max(n, 1)
            lo, hi = pi_table(n, rank), pi_table(n, rank + 1)
            for col in lo.order:
                for row in lo.order:
                    if lo.value(row, col) != hi.value(row, col):
                        raise OracleMismatch(f"entry ({row}, {col}) moved with the rank")
        return "tables stable under a rank bump"

    out.append(_check("pi", "rank-stability", stability))
    return out


def _suite_classical(cfg: RunConfig) -> list[dict]:
    out = []
    for n in range(2, cfg.max_n + 1):
        def run(n=n):
            table = pi_table(n, n)
            oracle = _kostka_table(n, n)
            for col in partitions_of(n):
                for row in partitions_of(n):
                    want = LaurentPoly.from_t_poly(oracle.get((col, row), QPoly.zero()))
                    if table.value(((), row), ((), col)) != want:
                        raise OracleMismatch(f"second-slot block at ({row}, {col})")
                    if table.value((row, ()), (col, ())) != want:
                        raise OracleMismatch(f"first-slot block at ({row}, {col})")
            return "both one-sided blocks match the classical matrix"
        out.append(_check("classical", f"n={n}", run))
    return out


def _suite_trace(cfg: RunConfig) -> list[dict]:
    out = []
    for n in range(1, min(cfg.max_n, 3) + 1):
        for q in cfg.primes:
            def run(n=n, q=q):
                report = fiber_oracle_check(n, q)
                return f"{len(report['cells'])} strata-step cells"
            out.append(_check("trace", f"n={n},q={q}", run))

    def golden():
        col, row = ((1,), (1,)), ((), (1, 1))
        plain, radical = trace_value(col, row, pi_table(2, 2).value(row, col))
        if plain != QPoly.q_power(1) + 1 or not radical.is_zero():
            raise OracleMismatch(
                f"marked cell reads {plain.pretty()} + ({radical.pretty()})*√q"
            )
        if plain.evaluate(2) != 3:
            raise OracleMismatch(f"marked cell evaluates to {plain.evaluate(2)}")
        return "marked cell is q + 1, evaluating to 3"

    out.append(_check("trace", "golden-cell", golden))
    return out


def _suite_rho(cfg: RunConfig) -> list[dict]:
    def run():
        checked = 0
        for n in range(0, min(cfg.max_n, 2) + 1):
            for src in bipartitions_of(n):
                for r in (1, 2):
                    if not rho_check(src, r, 3):
                        raise OracleMismatch(f"mirror identity fails at {src}, r={r}")
                    checked += 1
        return f"{checked} mirror identities at rank 3"
    return [_check("rho", "mirror", run)]


def _suite_green(cfg: RunConfig) -> list[dict]:
    out = []
    for n in (1, 2):
        for q in cfg.primes:
            def run(n=n, q=q):
                report = green_freeness_check(n, q)
                return f"free of rank one through {report['dimension']} labels"
            out.append(_check("green", f"n={n},q={q}", run))
    return out


def _suite_iwahori(cfg: RunConfig) -> list[dict]:
    labs = universe(2, 1, cfg.window)

    def templates():
        hist: Counter = Counter()
        for x in labs:
            for i in (1, 2):
                # the counted product must be its predicted case's shape
                counted = counted_ts_action(x, i, cfg.primes)
                hist[pattern_check(x, i, counted)] += 1
                prod = ts_action(x, i)
                if prod != counted:
                    raise OracleMismatch(f"served product differs from the count at {x}, {i}")
                if any(c.degree() > 1 for c in prod.values()):
                    raise OracleMismatch(f"coefficient degree above one at {x}, {i}")
                if not h_basis_check(x, i):
                    raise OracleMismatch(f"normalized shape fails at {x}, {i}")
        counts = json.dumps({str(k): hist[k] for k in sorted(hist)})
        return f"cases {counts} over {len(labs)} sources"

    def quadratic():
        rng = random.Random(cfg.seed)
        for x in rng.sample(list(labs), min(30, len(labs))):
            for i in (1, 2):
                if not hecke_quadratic_check(x, i):
                    raise OracleMismatch(f"quadratic relation fails at {x}, {i}")
                if not mass_check(x, i, cfg.primes):
                    raise OracleMismatch(f"fiber mass off at {x}, {i}")
        return "quadratic relation and fiber mass on a seeded sample"

    def support():
        for x in labs:
            for i in (1, 2):
                prod = ts_action(x, i)
                top = max(prod, key=lambda y: y.length())
                for y in prod:
                    if not bruhat_leq(y, top):
                        raise OracleMismatch(f"support at {x}, {i} escapes below {top}")
        return "product supports sit under their top label"

    def spots():
        for args, i in ((((2, 1, 3), 0, ()), 2), (((-2, -1, 3), 0, (3,)), 3)):
            x = validate(*args)
            pattern_check(x, i)
            if not mass_check(x, i, cfg.primes):
                raise OracleMismatch(f"fiber mass off at {x}, {i}")
        return "period-3 spot labels classified"

    return [
        _check("iwahori", "templates", templates),
        _check("iwahori", "quadratic", quadratic),
        _check("iwahori", "support", support),
        _check("iwahori", "period3", spots),
    ]


_SUITE_RUNNERS = {
    "census": _suite_census,
    "constants": _suite_constants,
    "hall": _suite_hall,
    "pi": _suite_pi,
    "classical": _suite_classical,
    "trace": _suite_trace,
    "rho": _suite_rho,
    "green": _suite_green,
    "iwahori": _suite_iwahori,
}


def verify_payload(suites: Sequence[str], cfg: RunConfig) -> dict:
    """Run each named suite in turn; the report passes when every check
    does.  Too few primes for the iwahori suite's counts is refused first."""
    if "iwahori" in suites:
        _check_primes(cfg.primes)
    checks: list[dict] = []
    for name in suites:
        if cfg.verbosity:
            print(f"verify: running {name}", file=sys.stderr)
        checks.extend(_SUITE_RUNNERS[name](cfg))
    passed = sum(1 for c in checks if c["passed"])
    return {
        "kind": "verify",
        "suites": list(suites),
        "max_n": cfg.max_n,
        "primes": list(cfg.primes),
        "window": cfg.window,
        "seed": cfg.seed,
        "checks": checks,
        "counts": {"total": len(checks), "passed": passed},
        "passed": passed == len(checks),
    }
