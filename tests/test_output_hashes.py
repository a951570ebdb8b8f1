import json

import pytest

from output_matrix import HASH_TABLE, run_hashes, versions


def test_outputs_match_pinned_hashes(tmp_path):
    # every file and stdout of the run matrix is byte-identical to the
    # pinned table; a change that moves numerics on purpose regenerates it
    # with scripts/pin_output_hashes.py and says which hashes moved
    with open(HASH_TABLE, encoding="utf-8") as f:
        pinned = json.load(f)
    want = {k: pinned[k] for k in versions()}
    if versions() != want:
        pytest.skip(f"hashes pinned for {want}, running {versions()}")
    got = run_hashes(str(tmp_path))
    moved = sorted(k for k in got.keys() | pinned["runs"].keys()
                   if got.get(k) != pinned["runs"].get(k))
    assert not moved, f"{len(moved)} outputs differ from the pinned table: {moved}"
