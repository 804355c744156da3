#!/usr/bin/env bash
# Checks that the `spotvar` console script reads legs split into byte ranges
# as it reads them whole. Legs of 300,000 minutes (about 10 MB each, with
# gaps, so align drops rows as it folds each leg in) are read in one range
# at one worker and in one range per worker with a pool: two ranges, and an
# odd split in three. Two copies of the legs must give the same variation:
# one with CRLF line ends, whose CRLFs fall across the 1 MB blocks a range
# is copied in, and one where every 997th line ends in a bare carriage
# return, where numpy and the per-line reader end a line too. A third copy,
# headerless Binance kline rows of twelve fields (open = high = low = close,
# a close time a minute on, computed by Python: not every awk prints a
# 13-digit sum exactly), must give the same variation through the kline
# reader.
#
# Usage: bash .github/split-legs.sh [scratch-dir]   (default: $RUNNER_TEMP)
set -euo pipefail
tmp=${1:-$RUNNER_TEMP}
python3 perfbench/gen.py "$tmp/legs" legs 1 300000
mkdir -p "$tmp/crlf" "$tmp/cr" "$tmp/klines"
for leg in spot num den; do
  sed 's/$/\r/' "$tmp/legs/$leg.csv" > "$tmp/crlf/$leg.csv"
  awk '{ printf "%s%s", $0, (NR % 997 ? "\n" : "\r") }' "$tmp/legs/$leg.csv" > "$tmp/cr/$leg.csv"
  python3 -c '
import sys
rows = open(sys.argv[1]).read().splitlines()[1:]
with open(sys.argv[2], "w") as out:
    for t, c in (row.split(",") for row in rows):
        out.write(f"{t},{c},{c},{c},{c},1.0,{int(t) + 59_999},0,1,0,0,0\n")
' "$tmp/legs/$leg.csv" "$tmp/klines/$leg.csv"
done
for w in 1 2 3; do
  for legs in legs crlf cr klines; do
    spotvar variation --spot "$tmp/$legs/spot.csv" --num "$tmp/$legs/num.csv" \
      --den "$tmp/$legs/den.csv" --workers "$w" --out "$tmp/$legs-variation$w.csv"
    cmp "$tmp/legs-variation1.csv" "$tmp/$legs-variation$w.csv"
  done
done
for w in 1 2; do
  spotvar report --spot "$tmp/legs/spot.csv" --num "$tmp/legs/num.csv" \
    --den "$tmp/legs/den.csv" --skip-mc --workers "$w" --out-dir "$tmp/legs-report$w"
done
diff -r "$tmp/legs-report1" "$tmp/legs-report2"
