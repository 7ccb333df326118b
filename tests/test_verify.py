"""`verify` from the command line: the front's suite list, and bad
arguments that only a suite can spot.

A suite that needs more primes than `--qs` names raises `UsageError`
from inside a check; that is bad usage, not a failed check, so the
program exits 2 with the usage message and writes no report.
"""

import json
import time

import pytest

from mirahall import bimodule, checks, cli
from mirahall.bimodule import PiTable
from mirahall.config import RunConfig
from mirahall.laurent import LaurentPoly

ONE_PRIME = "mirahall: usage error: need at least two primes to pin a linear coefficient\n"


def test_front_names_the_suites_of_checks():
    # `cli` checks --suite without loading `checks` (and numpy)
    assert tuple(checks._SUITE_RUNNERS) == cli.SUITES


@pytest.mark.parametrize("argv", [["--suite", "iwahori"], []])
def test_one_prime_is_a_usage_error(argv, capsys):
    code = cli.main(["verify", *argv, "--qs", "2"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", ONE_PRIME)


def test_one_prime_is_refused_before_any_suite_runs(monkeypatch, capsys):
    def forbidden(cfg):
        raise AssertionError("a suite ran before the primes were checked")

    for name in checks._SUITE_RUNNERS:
        monkeypatch.setitem(checks._SUITE_RUNNERS, name, forbidden)
    code = cli.main(["verify", "--qs", "2"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", ONE_PRIME)


def test_one_prime_serves_the_census(capsys):
    assert cli.main(["verify", "--suite", "census", "--qs", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["primes"] == [2]


@pytest.mark.parametrize("entry", [{-2: 1, -1: 1}, {-4: 1}])
def test_pi_suite_refuses_an_exponent_off_the_gap(monkeypatch, entry):
    # the cell at ((1, 1)|, (2)|) has gap 2: every off-diagonal exponent
    # lies in [-gap, -1] and has the gap's parity, so v^-1 (odd) and
    # v^-4 (below -2) are refused
    real = bimodule.pi_table(2, 2)
    cells = dict(real.cells)
    cells[(((1, 1), ()), ((2,), ()))] = LaurentPoly(entry)
    bad = PiTable(2, 2, real.order, cells)
    monkeypatch.setattr(
        checks, "pi_table", lambda n, rank: bad if n == 2 else bimodule.pi_table(n, rank)
    )
    report = {c["name"]: c for c in checks._suite_pi(RunConfig(max_n=2))}
    assert report["n=1"]["passed"]
    assert report["n=2"] == {
        "suite": "pi", "name": "n=2", "passed": False,
        "detail": "OracleMismatch: off-diagonal (((1, 1), ()), ((2,), ())) off range(-2, 0, 2)",
    }


@pytest.mark.parametrize("suite, max_n, err", [
    ("classical", 7, "suite classical sweeps to --max-n 7; its bound is 6"),
    ("all", 7, "suite classical sweeps to --max-n 7; its bound is 6"),
    ("census", 10, "suite census sweeps to --max-n 10; its bound is 9"),
    ("census", 10**6, "suite census sweeps to --max-n 1000000; its bound is 9"),
    ("census", 8, "suite census sweeps to --max-n 8 at q=3: 3^8 vectors, above the budget "
                  "of 4096"),
    ("all", 8, "suite classical sweeps to --max-n 8; its bound is 6"),
    ("pi", 11, "suite pi sweeps to --max-n 11: tables at n=11 have at least 752 labels, "
               "above the budget of 481"),
])
def test_a_sweep_past_its_bound_is_refused_before_any_suite_runs(
        suite, max_n, err, monkeypatch, capsys):
    def forbidden(cfg):
        raise AssertionError("a suite ran before the sweep was bounded")

    for name in checks._SUITE_RUNNERS:
        monkeypatch.setitem(checks._SUITE_RUNNERS, name, forbidden)
    start = time.perf_counter()
    code = cli.main(["verify", "--suite", suite, "--max-n", str(max_n)])
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"mirahall: usage error: {err}\n")


def test_each_sweep_bound_is_accepted(monkeypatch):
    for name in checks._SUITE_RUNNERS:
        monkeypatch.setitem(checks._SUITE_RUNNERS, name, lambda cfg: [])
    for suites, max_n in ((cli.SUITES, 6), (("census",), 7), (("pi",), 10)):
        assert checks.verify_payload(suites, RunConfig(max_n=max_n))["passed"]
    # the census budget binds at the largest prime: 2^9 vectors fit it
    assert checks.verify_payload(("census",), RunConfig(max_n=9, primes=(2,)))["passed"]
