"""argparse, built from the option table of `mirahall.cli`, for every
argv that `cli.parse_args` declines: it reads the forms the table does
not (prefixes, `-vv`, values that start with "-", `--`), and prints the
help pages and usage errors.  A canonical argv imports neither this
module nor argparse.  The table drives both parsers, so argparse is
also the reference that `cli.parse_args` is tested against.
"""

import argparse


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its options (after its words,
    if it reads any) when it first parses: a request builds only its own
    subcommand's."""

    def __init__(self, *, options=(), words=None, **kwargs):
        super().__init__(**kwargs)
        self._pending = options, words

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            (options, words), self._pending = self._pending, None
            if words:
                sub = self.add_subparsers(dest="icmd", required=True)
                for word, text in words.items():
                    _add_options(sub.add_parser(word, help=text), options)
            else:
                _add_options(self, options)
        return super().parse_known_args(args, namespace)


def _add_options(parser: argparse.ArgumentParser, options: tuple) -> None:
    for flags, dest, kind, default, choices, required, text in options:
        if kind is None:
            parser.add_argument(*flags, dest=dest, action="count", default=default, help=text)
        else:
            parser.add_argument(*flags, dest=dest, type=None if kind is str else kind,
                                default=default, choices=choices, required=required,
                                help=text)


def build_parser(top: tuple, subcommands: dict, words: dict) -> argparse.ArgumentParser:
    """The parser of `top` options and then one of `subcommands` (name:
    help line, options, handler); a subcommand in `words` reads one of
    its words (word: help line) into `icmd` before its options."""
    parser = argparse.ArgumentParser(
        prog="mirahall",
        description="Exact tables for the mirabolic Hall bimodule and its traces.",
    )
    _add_options(parser, top)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Subcommand)
    for name, (text, options, _) in subcommands.items():
        sub.add_parser(name, help=text, options=options, words=words.get(name))
    return parser
