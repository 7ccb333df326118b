"""Keyed store for rendered artifacts.

An entry is addressed by (module, parameters, code tag); the tag is a
digest of the package's source files, so artifacts written by other
code never satisfy a lookup, whatever its version number says.  Each
entry is one header line, the `repr` of the tag, the module, the
parameters as sorted (name, value) pairs (`_canonical`) and the body's length,
followed by the artifact's exact text; the file name is a digest of
the same key without the length.  Keys and headers are built without
`json`, which an artifact hit then never imports.  Only
`cli._serve_cached` reads and writes entries, for every data subcommand
but `verify`, keyed by the subcommand and the table's parameters plus
`format`.
"""

import hashlib
import os
import tempfile
from functools import lru_cache
from typing import Mapping

from .errors import IOFailure

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def source_digest(directory: str = PACKAGE_DIR) -> str:
    """sha256 over the names and bytes of the .py files in `directory`."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as fh:
                data = fh.read()
            h.update(f"{name}\0{len(data)}\0".encode("utf-8"))
            h.update(data)
    return h.hexdigest()


@lru_cache(maxsize=None)
def code_tag() -> str:
    """Digest of this package's source, computed once per process."""
    return source_digest()


def default_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "mirahall")


def _canonical(value):
    """`value` with each tuple read as a list, as JSON would read it; a
    value whose repr is not fixed by its value alone (anything but a
    str, int, bool, float, None, or a list or tuple of such) raises
    TypeError."""
    if type(value) in (list, tuple):
        return [_canonical(v) for v in value]
    if type(value) in (str, int, bool, float, type(None)):
        return value
    raise TypeError(f"cache parameter {value!r} has no fixed text")


def _key(module: str, params: Mapping) -> tuple:
    return code_tag(), module, [(name, _canonical(params[name])) for name in sorted(params)]


def _entry_path(directory: str, module: str, params: Mapping) -> str:
    blob = repr(_key(module, params))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]
    return os.path.join(directory or default_dir(), f"{module}-{digest}.entry")


def _header(module: str, params: Mapping, length: int) -> str:
    # one line: repr escapes every newline within the strings
    return repr((*_key(module, params), length)) + "\n"


def load(module: str, params: Mapping, directory: str = ""):
    """Stored text, or None on a miss.

    A header other than this code's for `module`, `params` and the
    body's length, and an unreadable or non-UTF-8 file, are misses; a
    stale, cut or corrupt entry is never an error."""
    path = _entry_path(directory, module, params)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            header = fh.readline()
            text = fh.read()
    except (OSError, ValueError):
        return None
    return text if header == _header(module, params, len(text)) else None


def store(module: str, params: Mapping, text: str, directory: str = "") -> str:
    """Write the entry through a temporary file in the cache directory,
    renamed into place, and return its path; the temporary file is
    removed on every failure."""
    path = _entry_path(directory, module, params)
    header = _header(module, params, len(text))
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise IOFailure(f"cannot write cache entry {path}: {exc}") from exc
    finally:
        if tmp is not None:
            try:
                os.remove(tmp)
            except OSError:
                pass
    return path
