#!/bin/sh
# Wan rounds gate: run the repo benchmark's wan workload once (2 shards,
# serve-s1 reaching serve-s2 through the link proxy) and fail unless it
# exits 0 (every answer passed the NRA oracle) and its rounds_per_query
# equals the pinned value.
#
#   sh tools/check_wan_rounds.sh
#
# Rounds are a pure function of the seed: at seed 1 the pass serves 38
# queries in 818 rounds, 21.52631579 per query. Every phase of a depth
# sends one frame covering every live shard, so a 2-shard query pays the
# per-depth rounds of one shard. A per-shard session fork, or an extra
# per-shard round, coming back anywhere on the serve-s1 -> proxy ->
# serve-s2 path moves this count (the per-shard sessions read
# 33.68421053), and no unit test drives that path. A change that moves
# wan's rounds on purpose edits the pin below.
set -eu

expected=21.52631579
err=$(mktemp)
trap 'rm -f "$err"' EXIT

status=0
sh benchmark/run.sh --workload wan --seed 1 --seconds 0 --trace 0 2>"$err" || status=$?
cat "$err" >&2
if [ "$status" -ne 0 ]; then
  echo "check_wan_rounds: the wan benchmark exited $status" >&2
  exit "$status"
fi

got=$(awk '$1 == "wan" && $2 == "rounds_per_query" { print $3 }' "$err")
if [ "$got" != "$expected" ]; then
  echo "check_wan_rounds: wan rounds_per_query is '${got}', expected ${expected}" >&2
  exit 1
fi
echo "check_wan_rounds: wan rounds_per_query ${got} (pinned ${expected}): OK"
