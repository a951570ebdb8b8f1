#!/usr/bin/env python3
"""Compare two output trees of vortibc runs value by value.

For each file under REF or NEW, one line: the number of values compared,
how many of them differ, and the largest absolute and relative difference
among those.  CSV files are compared cell by cell (a cell differs when its
text does; cells that read as numbers give the differences), VBF
checkpoints over their float64 payloads (a value differs when its bits
do); any other file only as bytes.  A NaN against a number counts as an
infinite difference.  Exits 0 when every file is identical, 1 otherwise.

    python scripts/compare_outputs.py REF NEW
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from vortibc.io import read_vbf  # noqa: E402


def _files(root):
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def _numbers(cells):
    out = np.full(len(cells), np.nan)
    for i, c in enumerate(cells):
        try:
            out[i] = float(c)
        except ValueError:
            pass
    return out


def _csv(path):
    with open(path, encoding="utf-8") as f:
        return [line.split(",") for line in f.read().splitlines()]


def _values(path):
    """(shape, float64 values, per-value keys whose inequality marks a
    difference) of a CSV or VBF file, or None for any other file."""
    if path.endswith(".csv"):
        rows = _csv(path)
        cells = [c for row in rows for c in row]
        return [len(r) for r in rows], _numbers(cells), np.array(cells, dtype=object)
    if path.endswith(".vbf"):
        arr, components = read_vbf(path)
        vals = arr.ravel()
        return (arr.shape, components), vals, vals.view(np.uint64)
    return None


def _stats(a, b, differ):
    """Largest absolute and relative difference among the values differ marks."""
    a, b = a[differ], b[differ]
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.abs(a - b)
        rel = d / np.maximum(np.abs(a), np.abs(b))   # NaN for -0.0 against 0.0
    one_nan = np.isnan(a) != np.isnan(b)
    d[one_nan] = rel[one_nan] = np.inf
    return float(np.nanmax(d, initial=0.0)), float(np.nanmax(rel, initial=0.0))


def compare(ref_path, new_path) -> str | None:
    """One report line for a file present in both trees; None when identical."""
    ref, new = _values(ref_path), _values(new_path)
    if ref is None:
        with open(ref_path, "rb") as f, open(new_path, "rb") as g:
            return None if f.read() == g.read() else "differs (compared as bytes)"
    (ref_shape, a, ka), (new_shape, b, kb) = ref, new
    if ref_shape != new_shape:
        return f"shape {ref_shape} against {new_shape}"
    differ = ka != kb
    n = int(np.count_nonzero(differ))
    if n == 0:
        return None
    max_abs, max_rel = _stats(a, b, differ)
    return f"{n} of {a.size} values differ, max abs {max_abs:.3g}, max rel {max_rel:.3g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ref", help="reference output tree")
    p.add_argument("new", help="output tree to compare with it")
    args = p.parse_args(argv)
    ref, new = _files(args.ref), _files(args.new)
    differing = 0
    for rel in sorted(ref | new):
        if rel not in new or rel not in ref:
            line = f"only in {'REF' if rel in ref else 'NEW'}"
        else:
            line = compare(os.path.join(args.ref, rel), os.path.join(args.new, rel))
        differing += line is not None
        print(f"{rel}: {line or 'identical'}")
    print(f"{differing} of {len(ref | new)} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
