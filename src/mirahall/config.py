"""Run configuration: defaults, key=value files, precedence; and the
text form of partition and bipartition labels, read from flags and
written into cache keys and artifacts.

Precedence, lowest to highest: built-in defaults, config file, the
cache-directory environment variable, command-line flags.
"""

import os
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache

from .errors import IOFailure, UsageError

CACHE_ENV = "MIRAHALL_CACHE_DIR"
FORMATS = ("json", "csv", "latex")
DEFAULT_SEED = 2024


class RunConfig(namedtuple(
        "RunConfig", "n rank max_n primes window fmt cache_dir verbosity seed",
        defaults=(2, 0, 3, (2, 3), 2, "json", "", 0, DEFAULT_SEED))):
    """Knobs shared by every subcommand; immutable, changed by
    `_replace`.  Every field is an int but `primes` (a tuple of them),
    `fmt` and `cache_dir`.

    The defaults reproduce the acceptance suite: sizes up to 3, primes
    2 and 3, truncation window 2.  rank=0 means "same as n"."""

    __slots__ = ()

    def resolved_rank(self) -> int:
        """The rank, or when it is 0 the size, but never below 1."""
        return self.rank if self.rank else max(self.n, 1)

    def validate(self) -> "RunConfig":
        for what, value in (("size n", self.n), ("rank", self.rank), ("max_n", self.max_n)):
            if value < 0:
                raise UsageError(f"{what} must be nonnegative, got {value}")
        if not self.primes:
            raise UsageError("prime list is empty")
        for p in self.primes:
            check_prime(p)
        if len(set(self.primes)) != len(self.primes):
            raise UsageError(f"repeated primes in {self.primes}")
        if self.window < 1:
            raise UsageError(f"window must be positive, got {self.window}")
        if self.fmt not in FORMATS:
            raise UsageError(f"format {self.fmt!r} not one of {FORMATS}")
        if self.verbosity < 0:
            raise UsageError("verbosity must be nonnegative")
        return self


def _is_prime(n: int) -> bool:
    f = 2
    while f * f <= n and n % f:
        f += 1
    return n > 1 and f * f > n


def check_prime(p: int) -> int:
    """The finite-field routines invert by Fermat, so q must be prime."""
    if not _is_prime(p):
        raise UsageError(f"field size must be prime, got {p}")
    return p


_ALIASES = {"format": "fmt"}


def parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"bad prime list {text!r}") from None


def _coerce(key: str, value) -> object:
    if key == "primes":
        if isinstance(value, tuple):
            return value
        return parse_primes(value)
    if key in ("fmt", "cache_dir"):
        return str(value)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"config key {key}: bad integer {value!r}") from None


def read_config_file(path: str) -> dict[str, str]:
    """key=value lines; # starts a comment; unknown keys are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IOFailure(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _ALIASES.get(key, key)
        if key not in RunConfig._fields:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def resolve(file_values: Mapping[str, object] | None = None,
            flag_values: Mapping[str, object] | None = None) -> RunConfig:
    """Fold the three sources over the defaults and validate.

    flag_values entries that are None count as "flag not given"."""
    cfg = RunConfig()
    for key, value in (file_values or {}).items():
        cfg = cfg._replace(**{key: _coerce(key, value)})
    env = os.environ.get(CACHE_ENV)
    if env:
        cfg = cfg._replace(cache_dir=env)
    for key, value in (flag_values or {}).items():
        if value is None:
            continue
        if key not in RunConfig._fields:
            raise UsageError(f"unknown config field {key!r}")
        cfg = cfg._replace(**{key: _coerce(key, value)})
    return cfg.validate()


# --- labels -----------------------------------------------------------------
# Here rather than with the payload builders: an artifact hit keys
# `hall` and `mirabolic` entries by their parsed labels.


def plabel(lam) -> str:
    return "(" + ",".join(str(part) for part in lam) + ")"


@lru_cache(maxsize=None)
def bplabel(bp) -> str:
    # memoised: a square table names each of its labels once per cell
    return f"{plabel(bp[0])}|{plabel(bp[1])}"


def parse_partition(text: str):
    body = text.strip().strip("()")
    if not body:
        return ()
    try:
        parts = tuple(int(tok) for tok in body.split(","))
    except ValueError:
        raise UsageError(f"bad partition {text!r}") from None
    if any(a < b for a, b in zip(parts, parts[1:])) or any(p < 0 for p in parts):
        raise UsageError(f"parts must be weakly decreasing and nonnegative: {text!r}")
    # the parts decrease weakly, so the zeros trail; dropping them here
    # leaves `partitions` unrun on an artifact hit
    return tuple(p for p in parts if p)


def parse_bipartition(text: str):
    if text.count("|") != 1:
        raise UsageError(f"bipartition must look like '2,1|1', got {text!r}")
    left, right = text.split("|")
    return parse_partition(left), parse_partition(right)
