#!/bin/sh
# Exact-count gate: fail unless freshly regenerated bench JSON equals the
# committed files on every deterministic count.
#
#   sh tools/check_counts.sh FRESH_DIR [COMMITTED_DIR]
#
# Compared fields:
#   BENCH_fig12.json, BENCH_shard.json, .ops and every result's bytes
#   BENCH_store.json
#   BENCH_concurrency.json              single_client_rounds and every
#                                       row's rounds_per_query
#   BENCH_micro.json                    .ops (one untimed call per row)
# These are pure functions of the benches' seeded data and randomness,
# so a difference means the protocol, the codec or the accounting moved:
# either a regression, or a change whose committed JSON was never
# regenerated. The ceiling gates (check_rounds.sh, check_shard_scaling.sh)
# pass both. Wall-clock fields are never compared. Regenerate with
#   dune exec bench/main.exe -- --only fig12 --json .   (and shard, store, concurrency, micro)
set -eu

fresh=${1:?usage: check_counts.sh FRESH_DIR [COMMITTED_DIR]}
committed=${2:-.}
status=0

check() {
  file=$1
  filter=$2
  for dir in "$committed" "$fresh"; do
    if ! [ -f "$dir/$file" ]; then
      echo "check_counts: $dir/$file not found" >&2
      exit 2
    fi
  done
  want=$(jq -cS "$filter" "$committed/$file")
  got=$(jq -cS "$filter" "$fresh/$file")
  if [ "$want" = "$got" ]; then
    echo "check_counts: $file $filter identical"
  else
    echo "check_counts: FAIL — $file differs on $filter" >&2
    echo "  committed: $want" >&2
    echo "  fresh:     $got" >&2
    status=1
  fi
}

check BENCH_fig12.json '.ops'
check BENCH_fig12.json '[.results[] | {name, bytes}]'
check BENCH_shard.json '.ops'
check BENCH_shard.json '[.results[] | {name, bytes}]'
check BENCH_store.json '.ops'
check BENCH_store.json '[.results[] | {name, bytes}]'
check BENCH_concurrency.json '.single_client_rounds'
check BENCH_concurrency.json '[.results[] | {clients, rounds_per_query}]'
check BENCH_micro.json '.ops'

if [ "$status" -ne 0 ]; then
  echo "check_counts: exact counts moved; regenerate the committed JSON only if the change is intended" >&2
  exit "$status"
fi
echo "check_counts: OK"
