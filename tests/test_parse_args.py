"""The option-table parser against argparse built from the same table.

`cli.parse_args` reads canonical argv (exact flags, each value after
`=` or in a token of its own) without argparse, and declines the rest;
argparse (`cli.build_parser`) reads what it declines, and prints help
and usage errors.  So on every argv here one of three holds: the table
parser returns argparse's namespace; it declines an argv that argparse
accepts, and `cli.main` hands argparse's namespace to the subcommand's
handler; or argparse exits, the table parser declines, and `cli.main`
exits with argparse's code and text.  Every argv the benchmark's
workloads send, and every exact and `=` form of every option, is read
without argparse.

The corpus has every subcommand with every option in its exact, `=`
and shortest unique-prefix forms, hand-picked edge cases, and a seeded
random draw of argv from a vocabulary of flags, prefixes and values.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mirahall import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

# the options a subcommand needs for argparse to accept it
REQUIRED = {"hall": ["--x", "2", "--y", "1"], "mirabolic": ["--src", "|1"]}


def _head(name: str) -> list[str]:
    return [name, *cli._WORDS.get(name, ())]


def _value(option: tuple) -> str:
    _, _, kind, _, choices, _, _ = option
    if choices:
        return choices[-1]
    return "3" if kind is int else "2,1"


def _prefix(flag: str, flags: set) -> str | None:
    """The shortest prefix that names only `flag` among `flags`."""
    for k in range(3, len(flag)):
        if [f for f in flags if f.startswith(flag[:k])] == [flag]:
            return flag[:k]
    return None


def _option_forms(prefixes: bool = True) -> list[list[str]]:
    """Every option of every subcommand in its exact and `=` forms, and
    with `prefixes` in its shortest unique-prefix forms too."""
    out = []
    for name, (_, options, _) in cli._SUBCOMMANDS.items():
        flags = {"-h", "--help"} | {f for option in options for f in option[0]}
        for option in options:
            for flag in option[0]:
                prefix = _prefix(flag, flags) if prefixes and flag.startswith("--") else None
                if option[2] is None:
                    forms = [[flag]] + ([[prefix]] if prefix else [])
                else:
                    value = _value(option)
                    forms = [[flag, value], [f"{flag}={value}"]]
                    if prefix:
                        forms += [[prefix, value], [f"{prefix}={value}"]]
                for form in forms:
                    out.append(_head(name) + form + REQUIRED.get(name, []))
    return out


EDGES = [
    [],
    ["pi"],
    ["pi", "--n", "4", "--n", "5"],
    ["pi", "--n", "4", "--N", "2", "--n=6", "--format", "csv", "--format=latex"],
    ["pi", "-v"], ["pi", "-vv"], ["pi", "-v", "-v", "--verbose"], ["pi", "-vvv", "--verb"],
    ["pi", "-v=v"], ["pi", "-v="], ["pi", "-vx"], ["pi", "-vh"], ["pi", "-hv"],
    ["pi", "--verbose=1"], ["pi", "--verbose=v"], ["pi", "--verb=v"], ["pi", "--verbose="],
    ["pi", "-v3"],
    ["pi", "--n", "x"], ["pi", "--n", "4.0"], ["pi", "--n=", "4"], ["pi", "--n", ""],
    ["pi", "--n", "-4"], ["pi", "--seed", "-5"], ["pi", "--N", "-1"], ["pi", "--n", "-1.5"],
    ["pi", "--n", " 4 "], ["pi", "--n", "+4"], ["pi", "--n", "1_0"], ["pi", "--n", "٤"],
    ["pi", "--out", "-"], ["pi", "--out", "-x"], ["pi", "--out", "-4"], ["pi", "--out", "-.5"],
    ["pi", "--out", "-a b"], ["pi", "--out", "--n 4"], ["pi", "--out=-x"], ["pi", "--out="],
    ["pi", "--out", "--"], ["pi", "--out", "-h"], ["pi", "--out=--help"], ["pi", "--out", "-4\n"],
    ["pi", "--format", "xml"], ["pi", "--format", "JSON"], ["pi", "--format="],
    ["mirabolic", "--src", "|1", "--side", "up"], ["mirabolic", "--src", "|1", "--si=right"],
    ["mirabolic", "--src", "|1", "--s", "left"], ["mirabolic", "--src", "|1", "--sr", "2|1"],
    ["mirabolic", "--src=-1|1"], ["mirabolic", "--src", "-1|1"], ["mirabolic", "--r", "2"],
    ["hall", "--x", "2"], ["hall", "--y", "1"], ["hall", "--x", "-1", "--y", "1"],
    ["verify", "--s", "pi"], ["verify", "--su", "pi"], ["verify", "--q", "2,3"],
    ["verify", "--m", "2"], ["verify", "--suite", "nope"], ["verify", "--qs", "x"],
    ["pi", "--window", "2"], ["pi", "--window-dressing", "9"], ["pi", "-n", "4"],
    ["pi", "4"], ["pi", "--n", "4", "extra"], ["pi", "--", "--n", "4"], ["pi", "--n", "4", "--"],
    ["pi", "--=x"], ["pi", "-"], ["pi", ""], ["pi", "--n", "--N", "2"], ["pi", "--n"],
    ["frobnicate"], ["", "pi"], ["-4"], ["--", "pi"], ["PI"], ["p"],
    ["--config", "c.conf", "pi", "--n", "4"], ["--config=c.conf", "pi"], ["--conf", "c", "pi"],
    ["--c", "c", "pi"], ["--config", "a", "--config", "b", "pi"], ["--config", "-", "pi"],
    ["--config", "-4", "pi"], ["--config", "--n", "pi"], ["--config", "pi"], ["--config"],
    ["--config", "-c", "pi", "--n", "4"], ["--config", "--n", "iwahori", "mult"],
    ["pi", "--config", "c.conf"], ["pi", "--conf", "c"], ["pi", "--c", "d"], ["--n", "4", "pi"],
    ["--=x", "pi"], ["-x", "pi"], ["--config", "a b", "pi"],
    ["iwahori"], ["iwahori", "mult"], ["iwahori", "mul"], ["iwahori", "--N", "3", "mult"],
    ["iwahori", "mult", "--N", "3", "--window", "2", "--format", "csv"],
    ["iwahori", "mult", "--N", "1"], ["iwahori", "mult", "--N", "-3"], ["iwahori", "mult", "mult"],
    ["iwahori", "--", "mult"], ["iwahori", "mult", "--"], ["iwahori", "mult", "--w", "3"],
    ["iwahori", "--=x", "mult"], ["iwahori", "-v", "mult"], ["iwahori", "mult", "-v"],
    ["trace", "--n", "3", "--q", "4"], ["green", "--n", "2", "--q", "3", "--q", "5"],
]


def _help_forms() -> list[list[str]]:
    """-h, --help and --he at each position of a few accepted argv."""
    out = []
    for argv in (["pi", "--n", "4"], ["--config", "c", "iwahori", "mult", "--N", "3"],
                 ["hall", "--x", "2", "--y", "1"]):
        for flag in ("-h", "--help", "--he"):
            out += [argv[:k] + [flag] + argv[k:] for k in range(len(argv) + 1)]
    return out


VOCABULARY = (
    ["pi", "mhl", "trace", "hall", "mirabolic", "green", "iwahori", "verify", "mult"]
    + ["--n", "--N", "--q", "--x", "--y", "--src", "--r", "--side", "--window", "--suite",
       "--qs", "--max-n", "--format", "--out", "--cache-dir", "--seed", "--verbose", "-v",
       "--config"]
    + ["--f", "--fo", "--o", "--ca", "--c", "--co", "--se", "--s", "--si", "--sr", "--su",
       "--w", "--m", "--ma", "--v", "--n=2", "--N=3", "--format=csv", "--q=5", "--he", "-vv",
       "-vh", "-v=v", "--=x", "--", "-h", "--help", "-x", "-vvv", "-n", "-N", "--ve",
       "--max-n=2", "--r=-1", "--src=|1", "--y=", "-v-", "-vn", "--verbose=2", "---n"]
    + ["4", "2", "-4", "0", "x", "", "-", "-1.5", "a b", "json", "csv", "left", "right",
       "2,1", "|1", "2|1", "all", "2,3", "c.conf", "-.5", "-1e3", "-0", " 3", "-a b"]
)


def _drawn(count: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        argv = [rng.choice(list(cli._SUBCOMMANDS))] if rng.random() < 0.8 else []
        if argv == ["iwahori"] and rng.random() < 0.8:
            argv.append("mult")
        argv += [rng.choice(VOCABULARY) for _ in range(rng.randrange(6))]
        out.append(argv)
    return out


CORPUS = _option_forms() + EDGES + _help_forms() + _drawn(1500, 20261020)


def _argparse(argv: list[str]):
    """(namespace attributes, None) when argparse accepts argv, else
    (None, (exit code, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return None, (0 if not exc.code else 2, out.getvalue(), err.getvalue())
    return vars(ns), None


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.fixture
def handed(monkeypatch):
    """The namespaces `cli.main` hands to the subcommand handlers, which
    are patched to record them; the config file and the flag values are
    not read, so every accepted argv reaches its handler."""
    seen = []
    for name, (text, options, _) in cli._SUBCOMMANDS.items():
        monkeypatch.setitem(cli._SUBCOMMANDS, name,
                            (text, options, lambda args, cfg: seen.append(vars(args)) or 0))
    monkeypatch.setattr(cli, "read_config_file", lambda path: {})
    monkeypatch.setattr(cli, "_flag_values", lambda args: {})
    monkeypatch.setattr(cli, "resolve", lambda file_values, flag_values: None)
    return seen


def test_corpus_covers_every_verdict():
    verdicts = [(_argparse(argv)[0] is not None, cli.parse_args(argv) is not None)
                for argv in CORPUS]
    assert verdicts.count((True, True)) > 250
    assert verdicts.count((True, False)) > 100
    assert verdicts.count((False, False)) > 300


@pytest.mark.parametrize("chunk", range(8))
def test_table_parser_reads_as_argparse(chunk, capsys, handed):
    for argv in CORPUS[chunk::8]:
        expected, refusal = _argparse(argv)
        got = cli.parse_args(argv)
        if got is not None:
            assert vars(got) == expected, argv
            continue
        capsys.readouterr()
        code = cli.main(argv)
        out = capsys.readouterr()
        if expected is not None:
            # argparse reads what the table declines, for the handler
            assert (code, out.out, out.err, handed) == (0, "", "", [expected]), argv
            handed.clear()
        else:
            # the program prints what argparse prints, with its exit code
            assert (code, out.out, out.err) == refusal, argv


def test_canonical_argv_builds_no_argparse(monkeypatch):
    monkeypatch.setattr(cli, "build_parser", None)
    for argv in workloads.all_reference_argv():
        ns = cli.parse_args([*argv, "--cache-dir", "cache"])
        assert ns is not None and ns.cache_dir == "cache", argv
    for argv in _option_forms(prefixes=False):
        assert cli.parse_args(argv) is not None, argv


def test_accepted_argv_builds_no_argparse(monkeypatch):
    monkeypatch.setattr(cli, "build_parser", None)
    ns = cli.parse_args(["--config", "c", "iwahori", "mult", "--N=3", "-v", "-v", "--format",
                         "csv"])
    assert vars(ns) == {"config": "c", "cmd": "iwahori", "icmd": "mult", "N": 3,
                        "window": None, "fmt": "csv", "out": None, "cache_dir": None,
                        "seed": None, "verbose": 2}
