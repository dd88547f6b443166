#!/bin/sh
# Rounds-budget gate: fail if the fig12 sweep's round count regresses
# above the committed ceiling, or if concurrent clients stop sharing
# round trips through the coalescing scheduler.
#
#   sh tools/check_rounds.sh [BENCH_fig12.json] [ceiling] [BENCH_concurrency.json]
#
# The ceiling (default 522, the committed fig12 count) pins the
# phase-level round collapse: anyone reintroducing a per-element round
# trip inside a protocol loop, or a per-depth protocol the halting test
# does not need, blows the budget and fails CI. Regenerate with
#   dune exec bench/main.exe -- --only fig12 --json .
# and lower (never raise) the ceiling when rounds legitimately improve.
#
# The concurrency gate (skipped when the third file is absent) pins the
# cross-query coalescing win: 4 concurrent clients must finish within
# 1.5x the single-client trip budget — dedicated transports would pay
# 4x, and in lockstep the scheduler merges to ~1x. Regenerate with
#   dune exec bench/main.exe -- --only concurrency --json .
set -eu

file=${1:-BENCH_fig12.json}
ceiling=${2:-522}
conc=${3:-BENCH_concurrency.json}

if ! [ -f "$file" ]; then
  echo "check_rounds: $file not found" >&2
  exit 2
fi

rounds=$(jq '.ops.rounds' "$file")
messages=$(jq '.ops.messages' "$file")

if [ "$rounds" = "null" ] || [ -z "$rounds" ]; then
  echo "check_rounds: $file has no .ops.rounds field" >&2
  exit 2
fi

echo "fig12 rounds=$rounds messages=$messages (ceiling $ceiling)"
if [ "$rounds" -gt "$ceiling" ]; then
  echo "check_rounds: FAIL — $rounds rounds exceeds the budget of $ceiling" >&2
  echo "  (a per-element round trip probably crept back into a protocol loop;" >&2
  echo "   batch the phase with Ctx.rpc_batch or justify a new ceiling)" >&2
  exit 1
fi

if [ -f "$conc" ]; then
  single=$(jq '.single_client_rounds' "$conc")
  trips4=$(jq '[.results[] | select(.clients == 4) | .trips] | first' "$conc")
  if [ "$single" = "null" ] || [ "$trips4" = "null" ] || [ -z "$trips4" ]; then
    echo "check_rounds: $conc has no single_client_rounds / clients=4 row" >&2
    exit 2
  fi
  # 1.5x budget without floats: 2*trips <= 3*single
  echo "concurrency: 4 clients trips=$trips4 single-client budget=$single (ceiling 1.5x)"
  if [ $((2 * trips4)) -gt $((3 * single)) ]; then
    echo "check_rounds: FAIL — 4 concurrent clients took $trips4 trips, over 1.5x the" >&2
    echo "  single-client budget of $single (the round scheduler stopped merging;" >&2
    echo "  check the all-parked ship rule and the coalesce window)" >&2
    exit 1
  fi
else
  echo "concurrency: $conc not found, gate skipped"
fi
echo "check_rounds: OK"
