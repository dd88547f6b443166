#!/bin/sh
# Shard-scaling gate: fail if the scatter-gather coordinator stops
# paying for itself — in the committed BENCH_shard.json one shard must
# move at least 3.0x the S1<->S2 bytes per query of four shards.
#
#   sh tools/check_shard_scaling.sh [BENCH_shard.json] [min_ratio_x10]
#
# The win is algorithmic, not parallel hardware (the bench may run on
# one core): sharding cuts the depth loop to ~D/s iterations while
# every phase of a depth stays one round for the whole fleet (each
# shard is a block of the phase's run_many), shrinking SecUpdate's grid
# walks and the checkpoint work (sort, refresh and bound test over a
# T that grows with depth) superlinearly.  Anyone who reintroduces a
# per-shard exchange, breaks the concatenated run_many batching, or
# makes the merge scan the whole t-list per depth flattens the curve
# and fails this gate.
#
# Bytes, not seconds: the bytes are a pure function of the bench's
# seeded data and randomness, so the gate gives the same verdict on any
# host, while the wall-clock speedup of the same runs spread from 1.8x
# to 3.9x on a 2-vCPU host whose speed drifts.  The measured ratio is
# 8535121 / 2805104 = 3.04x, and the floor is that, rounded down to a
# tenth.  Regenerate with
#   dune exec bench/main.exe -- --only shard --json .
set -eu

file=${1:-BENCH_shard.json}
# threshold in tenths to stay in integer arithmetic: 30 => 3.0x
min_x10=${2:-30}

if ! [ -f "$file" ]; then
  echo "check_shard_scaling: $file not found" >&2
  exit 2
fi

point() { jq -r ".results[] | select(.name == \"shards=$1\") | .$2" "$file"; }
b1=$(point 1 bytes)
b4=$(point 4 bytes)
s1=$(point 1 seconds)
s4=$(point 4 seconds)

for v in "$b1" "$b4" "$s1" "$s4"; do
  if [ -z "$v" ] || [ "$v" = "null" ]; then
    echo "check_shard_scaling: $file missing shards=1 / shards=4 results" >&2
    exit 2
  fi
done
if [ "$b4" -le 0 ]; then
  echo "check_shard_scaling: $file records no bytes for shards=4" >&2
  exit 2
fi

# ratio = b1/b4, printed to 2 decimals and compared in hundredths
ratio_x100=$((b1 * 100 / b4))
echo "shard scaling: shards=1 ${b1} B/query, shards=4 ${b4} B/query, ratio $(awk -v x="$ratio_x100" 'BEGIN { printf "%.2f", x / 100 }')x (floor $(awk -v x="$min_x10" 'BEGIN { printf "%.1f", x / 10 }')x); wall-clock speedup $(awk -v a="$s1" -v b="$s4" 'BEGIN { printf "%.2f", a / b }')x (not gated)"

if [ "$ratio_x100" -lt $((min_x10 * 10)) ]; then
  echo "check_shard_scaling: 4-shard byte reduction below the floor" >&2
  exit 1
fi
echo "check_shard_scaling: OK"
