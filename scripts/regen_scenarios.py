#!/usr/bin/env python
"""Re-pin the ``scenarios/`` corpus from the files themselves.

Every strict-replay file (top level and ``regressions/``) is loaded,
run under the runtime sanitizers with the determinism replay, and
written back with its ``expect`` block re-pinned from that run (pass
verdict, failed-invariant names, payload fingerprint).  On an unchanged
simulator this is a byte-for-byte no-op.  Run it after an intentional
simulator behaviour change, then review the fingerprint diffs like any
other golden-file update:

    PYTHONPATH=src python scripts/regen_scenarios.py [corpus-dir]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chaos import (  # noqa: E402
    corpus_files,
    load_scenario,
    pin_expectations,
    run_spec,
)


def main(root: str) -> int:
    for path in corpus_files(root):
        spec = load_scenario(path)
        outcome = run_spec(spec, verify_determinism=True, sanitize=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pin_expectations(spec, outcome).to_json())
        status = "pass" if outcome.passed else "FAIL"
        print(f"{spec.name:20} {status}  {outcome.fingerprint[:16]}  -> {path}")
    return 0


if __name__ == "__main__":
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(__file__), "..", "scenarios"
    )
    raise SystemExit(main(os.path.normpath(root)))
