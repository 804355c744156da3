"""Differential fuzz of `spotvar.csvrows.format_rows` against the f-string
rows it replaced, on more doubles than Tier-1 can afford.

    PYTHONPATH=src python tests/fuzz_format_rows.py --values 100000000 --seed 1

Each batch of a million values mixes four kinds: random bit patterns with
exponents over the range `csvrows` computes itself, random bit patterns of
any exponent, OU-like variation values, and short decimals. Prints the
number of rows that differ (must be 0) and how many values went through
repr instead of the integer kernel; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from conftest import fstring_rows
from spotvar import csvrows

BATCH = 1_000_000
KINDS = ("in-range bits", "any bits", "OU values", "short decimals")


def batch(rng):
    n = BATCH // 4
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(985, 1076, n, dtype=np.uint64) << np.uint64(52)
    in_range = sign | exponent | rng.integers(0, 2**52, n, dtype=np.uint64)
    any_bits = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    ou = rng.standard_normal(n) * 0.0017 - 2.4e-5
    u = rng.uniform(-1e4, 1e4, n) * 10.0 ** rng.integers(-6, 7, n)
    short = np.concatenate([np.round(part, k) for k, part in enumerate(np.array_split(u, 12))])
    return np.concatenate([in_range.view(np.float64), any_bits.view(np.float64), ou, short])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=10 * BATCH)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    checked = differ = 0
    through_repr = dict.fromkeys(KINDS, 0)
    while checked < args.values:
        values = batch(rng)
        times = rng.integers(-(2**63), 2**63 - 1, len(values), dtype=np.int64, endpoint=True)
        inexact = ~csvrows._shortest(values)[3]
        for kind, part in zip(KINDS, np.split(inexact, len(KINDS))):
            through_repr[kind] += int(part.sum())
        got, want = csvrows.format_rows(times, values), fstring_rows(times, values)
        if got != want:
            bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
            differ += len(bad)
            print("differ:", bad[:5], flush=True)
        checked += len(values)
    print(f"values {checked}, rows that differ {differ}; through repr, by kind of value "
          f"({checked // len(KINDS)} each): {through_repr}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
