"""The CSV writer against Python's '%.17g', value by value.

Writes about 2M values through ``confmech.cli._csv``: random 64-bit
patterns (subnormals, nan and inf among them), values spread over the
writer's fixed-notation range 1e-4 <= |x| < 1e17 and ties at the 17th
digit. Every value's text must equal ``'%.17g' % x``.

    python tests/check_csv_format.py [--seed N]

Prints the mismatch count (and the first few mismatches) and exits 1 on
any mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BATCHES = 20
BATCH = 100_000  # values written and compared at a time
COLUMNS = 10


def batches(rng):
    """Arrays of values: random bit patterns, mid-range values, ties."""
    for i in range(BATCHES):
        if i % 2 == 0:
            yield rng.integers(0, 2 ** 64, BATCH, dtype=np.uint64,
                               endpoint=False).view(np.float64)
        else:
            yield (rng.uniform(-1.0, 1.0, BATCH)
                   * 10.0 ** rng.integers(-5, 18, BATCH))
    j = np.arange(1, BATCH // 2 + 1)
    yield np.concatenate([1.0 + j * 2.0 ** -17, -j * 2.0 ** -20])


def mismatches(values):
    """(index, written, wanted) for each value whose text differs."""
    from confmech.cli import _csv
    table = values.reshape(-1, COLUMNS)
    text = _csv([f"c{i}" for i in range(COLUMNS)], [table])
    got = text.replace("\n", ",").split(",")[COLUMNS:-1]
    want = ["%.17g" % v for v in values.tolist()]
    if len(got) != len(want):
        return [(0, f"{len(got)} values", f"{len(want)} values")]
    return [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    total = bad = 0
    for values in batches(rng):
        found = mismatches(values)
        for i, got, want in found[:max(0, 5 - bad)]:
            print(f"{values[i]!r}: wrote {got}, '%.17g' gives {want}")
        total += len(values)
        bad += len(found)
    print(f"{bad} mismatches in {total} values")
    return 1 if bad else 0


if __name__ == "__main__":
    # the checkout's own sources, not an installed copy
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
