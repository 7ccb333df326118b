"""Help and usage text, pinned byte for byte.

A request adds the arguments of its own subcommand only
(`cli._Subcommand`; pinned by the last test), so these goldens check
that every help page, and the usage printed with each kind of parse
error, reads as it did when every subcommand was built up front.
argparse wraps at the terminal width, so each is read with COLUMNS=80,
as the goldens in `tests/goldens/help/` were recorded:

    COLUMNS=80 python -m mirahall.cli pi --help > tests/goldens/help/pi-help.txt
"""

from __future__ import annotations

import argparse
from pathlib import Path

import pytest

from mirahall import cli

GOLDENS = Path(__file__).resolve().parent / "goldens" / "help"

# golden name: argv, all of them on stdout with exit 0
HELP = {
    "help": ("--help",),
    **{f"{name}-help": (name, "--help")
       for name in ("pi", "mhl", "trace", "hall", "mirabolic", "green", "iwahori", "verify")},
    "iwahori-mult-help": ("iwahori", "mult", "--help"),
}

# golden name: argv, all of them on stderr with exit 2; CONFIG stands
# for the path of a config file
ERRORS = {
    "frobnicate": ("frobnicate",),
    "pi-window-dressing": ("pi", "--window-dressing", "9"),
    "iwahori-bare": ("iwahori",),
    "config-pi-n-x": ("--config", "CONFIG", "pi", "--n", "x"),
}


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _golden(name: str) -> str:
    return (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", HELP)
def test_help_text_is_unchanged(name, capsys):
    assert cli.main(list(HELP[name])) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (_golden(name), "")


@pytest.mark.parametrize("name", ERRORS)
def test_usage_error_text_is_unchanged(name, capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("n = 2\n", encoding="utf-8")
    argv = [str(config) if arg == "CONFIG" else arg for arg in ERRORS[name]]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", _golden(name))


def test_a_request_builds_only_its_own_subcommand():
    parser = cli.build_parser()
    assert parser.parse_args(["pi", "--n", "2"]).n == 2
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # every subcommand's parser holds its -h; only pi's holds more
    built = {name for name, p in sub.choices.items() if len(p._actions) > 1}
    assert built == {"pi"}
