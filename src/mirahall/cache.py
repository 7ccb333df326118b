"""Keyed store for computed tables and their rendered artifacts.

An entry is addressed by (module, parameters, code tag); the tag is a
digest of the package's source files, so tables written by other code
never satisfy a lookup, whatever its version number says.  Payloads
are JSON trees built from strings, ints and lists, which keeps a cache
hit byte-identical to a cold rebuild downstream.  The CLI keeps two
kinds of entry under one module name: the table's payload tree, keyed
by the table's parameters, and each rendered artifact, a string keyed
by the same parameters plus its `format`.
"""

from __future__ import annotations

import hashlib
import json
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


def _entry_path(directory: str, module: str, params: Mapping) -> str:
    blob = json.dumps([code_tag(), module, params], sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]
    return os.path.join(directory or default_dir(), f"{module}-{digest}.json")


def load(module: str, params: Mapping, directory: str = ""):
    """Stored payload, or None on a miss.

    Mismatched tag or parameters and unreadable files all count as
    misses; a stale or corrupt entry is never an error."""
    path = _entry_path(directory, module, params)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) or entry.get("tag") != code_tag():
        return None
    if entry.get("module") != module or entry.get("params") != _plain(params):
        return None
    return entry.get("payload")


def store(module: str, params: Mapping, payload, directory: str = "") -> str:
    """Write the entry through a temporary file in the cache directory,
    renamed into place, and return its path; the temporary file is
    removed on every failure."""
    path = _entry_path(directory, module, params)
    entry = {
        "tag": code_tag(),
        "module": module,
        "params": _plain(params),
        "payload": payload,
    }
    # json.dumps encodes in C; json.dump would stream the entry through
    # the pure-Python encoder.  A payload it cannot encode raises here,
    # before any file exists.
    text = json.dumps(entry, sort_keys=True)
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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


def _plain(value):
    """Round-trip through JSON so tuples compare equal to stored lists."""
    return json.loads(json.dumps(value))
