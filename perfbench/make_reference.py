#!/usr/bin/env python3
"""Record the reference stdout digest of every request the workloads send.

    python3 perfbench/make_reference.py

Each argv runs once, cold, in its own empty cache directory, and the
sha256 of its stdout goes to reference.json.  Regenerate only at a commit
whose artifacts are known good, or when an artifact is meant to change:
every benchmark run counts a request whose digest differs as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    if not (run.SRC / "mirahall" / "cli.py").is_file():
        print(f"make_reference: no mirahall sources under {run.SRC}", file=sys.stderr)
        return 2
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ref-", dir=run.OUT))
    client = run.Client({}, scratch, deadline=float("inf"))
    digests = {}
    try:
        for argv in workloads.all_reference_argv():
            sample = client.request(argv, client.fresh_dir("cold-"), check=False)
            print(f"{sample.latency_s:7.2f} s  {sample.key}  {sample.why or 'ok'}", flush=True)
            if not sample.ok:
                return 1
            digests[sample.key] = sample.digest
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {
        "source": {"git_sha": run._git_sha(), "src_sha256": run._src_digest(),
                   "made": time.strftime("%Y-%m-%d")},
        "digests": digests,
    }
    run.REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
