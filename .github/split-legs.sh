#!/usr/bin/env bash
# Checks that the `spotvar` console script reads legs split into blocks as
# it reads them whole. Each leg is cut once, in the command's own process,
# into blocks of 8 MB, each cut just after a newline, whatever the worker
# count. Legs of 300,000 minutes (about 10 MB each, with gaps, so align
# drops rows as it folds each leg in) are two blocks each, parsed one after
# another at one worker and on a pool of two or three. Three copies of the
# legs must give the same variation: one with CRLF line ends, each cut
# after a CRLF's newline; one where every 997th line ends in a bare
# carriage return, where numpy and the per-line reader end a line too; and
# one with a blank line after every 1,009th row, which numpy skips, so the
# blocks still parse it. A fourth copy, headerless Binance kline rows of
# twelve fields (open = high = low = close, a close time a minute on,
# computed by Python: not every awk prints a 13-digit sum exactly), must
# give the same variation through the kline reader. Every variation must
# equal, byte for byte, one computed here without spotvar: the closes at
# the `np.intersect1d` of the legs' minutes, ln(spot) - (ln(num) - ln(den))
# in that order, each row written as `f"{t},{v!r}"`; so a change in the
# order of the fold's floating-point operations fails.
#
# Usage: bash .github/split-legs.sh [scratch-dir]   (default: $RUNNER_TEMP)
set -euo pipefail
tmp=${1:-$RUNNER_TEMP}
python3 perfbench/gen.py "$tmp/legs" legs 1 300000
mkdir -p "$tmp/crlf" "$tmp/cr" "$tmp/blank" "$tmp/klines"
for leg in spot num den; do
  sed 's/$/\r/' "$tmp/legs/$leg.csv" > "$tmp/crlf/$leg.csv"
  awk '{ printf "%s%s", $0, (NR % 997 ? "\n" : "\r") }' "$tmp/legs/$leg.csv" > "$tmp/cr/$leg.csv"
  awk '{ print } NR % 1009 == 0 { print "" }' "$tmp/legs/$leg.csv" > "$tmp/blank/$leg.csv"
  python3 -c '
import sys
rows = open(sys.argv[1]).read().splitlines()[1:]
with open(sys.argv[2], "w") as out:
    for t, c in (row.split(",") for row in rows):
        out.write(f"{t},{c},{c},{c},{c},1.0,{int(t) + 59_999},0,1,0,0,0\n")
' "$tmp/legs/$leg.csv" "$tmp/klines/$leg.csv"
done
python3 -c '
import sys
import numpy as np
def leg(name):
    rows = [row.split(",") for row in open(f"{sys.argv[1]}/{name}.csv").read().splitlines()[1:]]
    return np.array([int(t) for t, _ in rows]), np.array([float(c) for _, c in rows])
legs = [leg(name) for name in ("spot", "num", "den")]
common = np.intersect1d(np.intersect1d(legs[0][0], legs[1][0]), legs[2][0])
s, n, d = (closes[np.isin(times, common)] for times, closes in legs)
values = np.log(s) - (np.log(n) - np.log(d))
with open(sys.argv[2], "w") as out:
    out.write("open_time_ms,variation\n")
    out.writelines(f"{t},{v!r}\n" for t, v in zip(common.tolist(), values.tolist()))
' "$tmp/legs" "$tmp/expected-variation.csv"
for w in 1 2 3; do
  for legs in legs crlf cr blank klines; do
    spotvar variation --spot "$tmp/$legs/spot.csv" --num "$tmp/$legs/num.csv" \
      --den "$tmp/$legs/den.csv" --workers "$w" --out "$tmp/$legs-variation$w.csv"
    cmp "$tmp/expected-variation.csv" "$tmp/$legs-variation$w.csv"
  done
done
for w in 1 2; do
  spotvar report --spot "$tmp/legs/spot.csv" --num "$tmp/legs/num.csv" \
    --den "$tmp/legs/den.csv" --skip-mc --workers "$w" --out-dir "$tmp/legs-report$w"
done
diff -r "$tmp/legs-report1" "$tmp/legs-report2"
