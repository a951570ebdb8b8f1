#!/usr/bin/env python3
"""Rewrite tests/output_hashes.json, the pinned hashes of every output of
the CLI run matrix in tests/output_matrix.py.

Run it only when a change moves numerics on purpose, and list in the change
which hashes moved and why:

    PYTHONPATH=src python scripts/pin_output_hashes.py
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from output_matrix import HASH_TABLE, run_hashes, versions  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as workdir:
        runs = run_hashes(workdir)
    with open(HASH_TABLE, "w", encoding="utf-8") as f:
        json.dump({**versions(), "runs": runs}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(runs)} outputs of the run matrix pinned in {HASH_TABLE}")


if __name__ == "__main__":
    main()
