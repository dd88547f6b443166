#!/bin/sh
# RTT sweep: price the round collapse as wall-clock by running fig12 on
# the in-process transport with simulated per-round latency, batched vs
# unbatched (one frame per request — the historical framing).
#
#   sh tools/rtt_sweep.sh [OUTDIR] [RTT_US ...]
#
# Writes OUTDIR/BENCH_fig12_rtt<US>{,_nobatch}.json for each latency and
# a summary table OUTDIR/rtt-sweep.txt with per-variant speedups. With
# simulator-scale crypto the speedup crosses 2x around 1 ms RTT; at the
# paper's GMP-backed crypto speeds the crossover sits well below 0.5 ms
# (see EXPERIMENTS.md).
#
# A second leg sweeps the cross-query round scheduler: 4 concurrent
# clients with coalescing on vs off at 1 / 10 / 40 ms RTT (override with
# CONC_RTTS), writing BENCH_concurrency_rtt<US>{,_nocoal}.json and a
# trips/p50 comparison column into the same summary. Coalesced trips
# stay flat as clients join; dedicated transports pay trips x clients.
set -eu

outdir=${1:-artifacts}
shift 2>/dev/null || true
rtts=${*:-"0 500 1000 2000"}

mkdir -p "$outdir"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

summary="$outdir/rtt-sweep.txt"
: >"$summary"

for rtt in $rtts; do
  dune exec bench/main.exe -- --only fig12 --rtt "$rtt" --json "$tmp" >/dev/null
  mv "$tmp/BENCH_fig12.json" "$outdir/BENCH_fig12_rtt$rtt.json"
  dune exec bench/main.exe -- --only fig12 --rtt "$rtt" --no-batching --json "$tmp" >/dev/null
  mv "$tmp/BENCH_fig12.json" "$outdir/BENCH_fig12_rtt${rtt}_nobatch.json"

  {
    echo "=== rtt ${rtt}us ==="
    printf '%-24s %12s %12s %8s\n' run "nobatch(s)" "batch(s)" speedup
    paste \
      "$(
        jq -r '.results[] | "\(.name) \(.seconds)"' \
          "$outdir/BENCH_fig12_rtt${rtt}_nobatch.json" >"$tmp/nb.txt"
        echo "$tmp/nb.txt"
      )" \
      "$(
        jq -r '.results[] | .seconds' \
          "$outdir/BENCH_fig12_rtt$rtt.json" >"$tmp/b.txt"
        echo "$tmp/b.txt"
      )" |
      awk '{ printf "%-24s %12.3f %12.3f %7.2fx\n", $1, $2, $3, $2 / $3 }'
    printf 'rounds: nobatch=%s batch=%s\n\n' \
      "$(jq '.ops.rounds' "$outdir/BENCH_fig12_rtt${rtt}_nobatch.json")" \
      "$(jq '.ops.rounds' "$outdir/BENCH_fig12_rtt$rtt.json")"
  } >>"$summary"
done

conc_rtts=${CONC_RTTS:-"1000 10000 40000"}
{
  echo "=== coalescing: 4 concurrent clients, scheduler on vs off ==="
  printf '%-10s %10s %10s %12s %12s\n' rtt_ms trips_on trips_off "p50_on(ms)" "p50_off(ms)"
} >>"$summary"
for rtt in $conc_rtts; do
  dune exec bench/main.exe -- --only concurrency --clients 4 --rtt "$rtt" \
    --json "$tmp" >/dev/null
  mv "$tmp/BENCH_concurrency.json" "$outdir/BENCH_concurrency_rtt$rtt.json"
  dune exec bench/main.exe -- --only concurrency --clients 4 --rtt "$rtt" \
    --no-coalescing --json "$tmp" >/dev/null
  mv "$tmp/BENCH_concurrency.json" "$outdir/BENCH_concurrency_rtt${rtt}_nocoal.json"

  row4() { jq -r "[.results[] | select(.clients == 4)] | first | \"\(.trips) \(.p50_us)\"" "$1"; }
  on=$(row4 "$outdir/BENCH_concurrency_rtt$rtt.json")
  off=$(row4 "$outdir/BENCH_concurrency_rtt${rtt}_nocoal.json")
  echo "$rtt $on $off" |
    awk '{ printf "%-10.1f %10d %10d %12.1f %12.1f\n", $1 / 1000, $2, $4, $3 / 1000, $5 / 1000 }' \
      >>"$summary"
done
echo >>"$summary"

cat "$summary"
