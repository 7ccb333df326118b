"""`verify` from the command line: the front's suite list, and bad
arguments that only a suite can spot.

A suite that needs more primes than `--qs` names raises `UsageError`
from inside a check; that is bad usage, not a failed check, so the
program exits 2 with the usage message and writes no report.
"""

import json

import pytest

from mirahall import checks, cli

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
