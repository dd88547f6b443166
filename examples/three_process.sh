#!/usr/bin/env sh
# Three-process end-to-end run of the served deployment:
#
#   build-index  (data owner)  -> encrypted index on disk + client key
#   serve-s2     (crypto cloud) holds the Paillier secret key
#   serve-s1     (storage cloud) opens the index, dials S2 per query
#   query        (client)       sends a token, decrypts the results
#
# All parties derive key material from the same seed, so the served
# results must be byte-for-byte the lines the in-process demo prints —
# this script asserts exactly that, scrapes live telemetry from both
# daemons mid-run (asserting `served` equals the queries issued), then
# drains both daemons with SIGTERM. Also exercises the corruption path:
# a flipped byte in a manifest, a segment header or body, or a shard map
# must be rejected with a typed error (exit 4).
#
# Telemetry outputs (Prometheus exposition, JSON snapshot, the query
# log, one sampled Chrome trace) are copied into ./artifacts when that
# directory exists — CI uploads it wholesale.
#
# Usage: sh examples/three_process.sh
# (used by CI as the three-process e2e + store-corruption smoke test)
set -eu

cd "$(dirname "$0")/.."
dune build bin/topk_cli.exe

seed=three-proc
rows=12
attrs=3

work=$(mktemp -d)
s1_pid=""
s2_pid=""
sh_pid=""
e1_pid=""
e2_pid=""
cleanup() {
  [ -n "$s1_pid" ] && kill "$s1_pid" 2>/dev/null || true
  [ -n "$s2_pid" ] && kill "$s2_pid" 2>/dev/null || true
  [ -n "$sh_pid" ] && kill "$sh_pid" 2>/dev/null || true
  [ -n "$e1_pid" ] && kill "$e1_pid" 2>/dev/null || true
  [ -n "$e2_pid" ] && kill "$e2_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT INT TERM

wait_for_port() {
  # $1: logfile; prints the port from "... 127.0.0.1:PORT"
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$1" | head -1)
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "daemon did not come up:" >&2
    cat "$1" >&2
    exit 1
  fi
  echo "$port"
}

echo "== 1. data owner: build-index =="
dune exec bin/topk_cli.exe -- build-index --rows $rows --attrs $attrs --seed $seed \
  --store "$work/index" --key-out "$work/client.key"
dune exec bin/topk_cli.exe -- index-info --store "$work/index" --seed $seed --verify

echo "== 2. crypto cloud: serve-s2 =="
dune exec bin/topk_cli.exe -- serve-s2 --port 0 >"$work/s2.log" 2>&1 &
s2_pid=$!
s2_port=$(wait_for_port "$work/s2.log")
echo "S2 on port $s2_port (pid $s2_pid)"

echo "== 3. storage cloud: serve-s1 (query log + every query traced) =="
dune exec bin/topk_cli.exe -- serve-s1 --store "$work/index" --seed $seed --port 0 \
  --s2 "127.0.0.1:$s2_port" --log-json "$work/queries.jsonl" \
  --coalesce-window-us 20000 \
  --trace-sample 1 --trace-dir "$work/traces" >"$work/s1.log" 2>&1 &
s1_pid=$!
s1_port=$(wait_for_port "$work/s1.log")
echo "S1 on port $s1_port (pid $s1_pid)"

echo "== 4. client: query =="
dune exec bin/topk_cli.exe -- query --s1 "127.0.0.1:$s1_port" --key "$work/client.key" \
  -k 3 -m $attrs --seed $seed | tee "$work/query.out"

echo "== 4b. live telemetry scrape (both daemons) =="
dune exec bin/topk_cli.exe -- stats "127.0.0.1:$s1_port" --prom >"$work/stats-s1.prom"
dune exec bin/topk_cli.exe -- stats "127.0.0.1:$s1_port" --json >"$work/stats-s1.json"
dune exec bin/topk_cli.exe -- stats "127.0.0.1:$s2_port" --prom >"$work/stats-s2.prom"
dune exec bin/topk_cli.exe -- stats "127.0.0.1:$s1_port"
sh tools/check_stats.sh "$work/stats-s1.prom"
# serve-s1's connection built the combs of the shared key and of S1's
# own key, the two serve-s2 holds
sh tools/check_stats.sh "$work/stats-s2.prom" connections comb_warmup_seconds combs_built=2

served=$(awk '$1 == "served" { print $2 }' "$work/stats-s1.prom")
[ "$served" = "1" ] || { echo "expected served=1 in the scrape, got '$served'" >&2; exit 1; }
execs=$(awk '$1 == "exec_us_count" { print $2 }' "$work/stats-s1.prom")
[ "$execs" = "1" ] || { echo "expected exec_us_count=1, got '$execs'" >&2; exit 1; }
grep -q '"outcome":"ok"' "$work/queries.jsonl"
[ -f "$work/traces/trace-0.json" ] || { echo "sampled trace missing" >&2; exit 1; }
echo "== scrape: served matches the 1 query issued; log + trace written =="

if [ -d artifacts ]; then
  cp "$work/stats-s1.prom" "$work/stats-s1.json" "$work/stats-s2.prom" \
     "$work/queries.jsonl" artifacts/
  cp "$work/traces/trace-0.json" artifacts/sampled-trace.json
fi

echo "== 4c. a second serve-s2 connection under the same keys builds no comb =="
dune exec bin/topk_cli.exe -- demo --rows $rows --attrs $attrs -k 3 -m $attrs --seed $seed \
  --s2 "127.0.0.1:$s2_port" >"$work/demo-s2.out"
grep -qx 'oracle-valid: true' "$work/demo-s2.out" ||
  { echo "demo against serve-s2 is not oracle-valid" >&2; cat "$work/demo-s2.out" >&2; exit 1; }
dune exec bin/topk_cli.exe -- stats "127.0.0.1:$s2_port" --prom >"$work/stats-s2-again.prom"
sh tools/check_stats.sh "$work/stats-s2-again.prom" connections comb_warmup_seconds combs_built=2

echo "== 5. four concurrent clients through the round scheduler =="
# dune exec takes the build lock, so concurrent clients run the binary
# directly; their S2 rounds coalesce into shared mux trips on S1.
cli=$(pwd)/_build/default/bin/topk_cli.exe
pids=""
for i in 1 2 3 4; do
  "$cli" query --s1 "127.0.0.1:$s1_port" --key "$work/client.key" \
    -k 3 -m $attrs --seed $seed >"$work/query-conc$i.out" 2>&1 &
  pids="$pids $!"
done
for p in $pids; do wait "$p"; done

dune exec bin/topk_cli.exe -- stats "127.0.0.1:$s1_port" --prom >"$work/stats-s1-conc.prom"
served=$(awk '$1 == "served" { print $2 }' "$work/stats-s1-conc.prom")
[ "$served" = "5" ] || { echo "expected served=5 after the concurrent leg, got '$served'" >&2; exit 1; }
coalesced=$(awk '$1 == "coalesced_rounds" { print $2 }' "$work/stats-s1-conc.prom")
[ -n "$coalesced" ] && [ "$coalesced" -gt 0 ] ||
  { echo "expected a positive coalesced_rounds gauge, got '$coalesced'" >&2; exit 1; }
grep -q '^parked_queries ' "$work/stats-s1-conc.prom" ||
  { echo "parked_queries gauge missing from the scrape" >&2; exit 1; }
echo "== scrape: served=5, $coalesced coalesced trips shipped =="

echo "== 5b. domain exhaustion: 130 idle connections to each daemon =="
# Both daemons spawn a domain per connection, and the OCaml 5 runtime
# caps a process at 128 live domains. The connections past the cap are
# turned away (serve-s1 answers Busy, serve-s2 closes them); both
# daemons keep serving once the flood is gone.
python3 - "$s1_port" "$s2_port" <<'EOF'
import socket, sys, time

def turned_away(s):
    # the daemon closed it: end of stream after any Busy frame
    s.setblocking(False)
    try:
        while s.recv(4096):
            pass
        return True
    except BlockingIOError:
        return False

for name, port in zip(("serve-s1", "serve-s2"), sys.argv[1:]):
    held = [socket.create_connection(("127.0.0.1", int(port)), timeout=10)
            for _ in range(130)]
    time.sleep(1)
    away = sum(turned_away(s) for s in held)
    for s in held:
        s.close()
    print(f"{name}: {away} of 130 idle connections turned away")
    if away == 0:
        sys.exit(f"{name} answered none of the connections past the domain cap")
EOF
# the flood's session domains exit once they read end of stream; until
# then a query may still be told Busy (exit 3)
for _ in $(seq 1 20); do
  rc=0
  "$cli" query --s1 "127.0.0.1:$s1_port" --key "$work/client.key" \
    -k 3 -m $attrs --seed $seed >"$work/query-flood.out" 2>&1 || rc=$?
  [ "$rc" -ne 3 ] && break
  sleep 0.5
done
[ "$rc" -eq 0 ] || { echo "query after the flood failed ($rc)" >&2; cat "$work/query-flood.out" >&2; exit 1; }
cat "$work/query-flood.out"
dune exec bin/topk_cli.exe -- stats "127.0.0.1:$s1_port" --prom >"$work/stats-s1-flood.prom"
dune exec bin/topk_cli.exe -- stats "127.0.0.1:$s2_port" --prom >"$work/stats-s2-flood.prom"
sh tools/check_stats.sh "$work/stats-s1-flood.prom"
sh tools/check_stats.sh "$work/stats-s2-flood.prom" connections comb_warmup_seconds combs_built=2
served=$(awk '$1 == "served" { print $2 }' "$work/stats-s1-flood.prom")
[ "$served" = "6" ] || { echo "expected served=6 after the flood, got '$served'" >&2; exit 1; }
busy=$(awk '$1 == "busy" { print $2 }' "$work/stats-s1-flood.prom")
[ -n "$busy" ] && [ "$busy" -gt 0 ] ||
  { echo "expected the turned-away connections in busy, got '$busy'" >&2; exit 1; }
grep -q "connection refused: no free domain" "$work/s2.log" ||
  { echo "serve-s2 did not report a refused connection" >&2; exit 1; }
# a peer that resets before a daemon writes to it must cost only its own
# connection (EPIPE), so both daemons ignore SIGPIPE: bit 13 of SigIgn
for pid in "$s1_pid" "$s2_pid"; do
  [ -r "/proc/$pid/status" ] || continue
  ign=$(awk '$1 == "SigIgn:" { print $2 }' "/proc/$pid/status")
  [ $(( 0x$ign >> 12 & 1 )) -eq 1 ] || { echo "daemon $pid does not ignore SIGPIPE" >&2; exit 1; }
done
echo "== both daemons survived the flood: served=6, busy=$busy =="

echo "== 5c. descriptor exhaustion: a fresh daemon pair under a low ulimit -n =="
# Past the descriptor limit accept fails with EMFILE. Both daemons must
# count it in accept_errors, back off and keep accepting, so once the
# flood has closed they serve a query and both scrapes.
(ulimit -n 16; exec "$cli" serve-s2 --port 0) >"$work/e2.log" 2>&1 &
e2_pid=$!
e2_port=$(wait_for_port "$work/e2.log")
(ulimit -n 24; exec "$cli" serve-s1 --store "$work/index" --seed $seed --port 0 \
  --s2 "127.0.0.1:$e2_port") >"$work/e1.log" 2>&1 &
e1_pid=$!
e1_port=$(wait_for_port "$work/e1.log")
python3 - "$e1_port" 30 "$e2_port" 20 <<'EOF'
import socket, sys, time

args = sys.argv[1:]
for port, n in zip(args[0::2], args[1::2]):
    held = []
    for _ in range(int(n)):
        try:
            # past the listen backlog a connect may never complete
            held.append(socket.create_connection(("127.0.0.1", int(port)), timeout=1))
        except OSError:
            pass
    time.sleep(1)
    for s in held:
        s.close()
    print(f"port {port}: held {len(held)} of {n} connections")
EOF
for _ in $(seq 1 20); do
  rc=0
  "$cli" query --s1 "127.0.0.1:$e1_port" --key "$work/client.key" \
    -k 3 -m $attrs --seed $seed >"$work/query-emfile.out" 2>&1 || rc=$?
  [ "$rc" -ne 3 ] && break
  sleep 0.5
done
[ "$rc" -eq 0 ] ||
  { echo "query after the descriptor flood failed ($rc)" >&2; cat "$work/query-emfile.out" >&2; exit 1; }
"$cli" stats "127.0.0.1:$e1_port" --prom >"$work/stats-e1.prom"
"$cli" stats "127.0.0.1:$e2_port" --prom >"$work/stats-e2.prom"
for f in stats-e1 stats-e2; do
  errs=$(awk '$1 == "accept_errors" { print $2 }' "$work/$f.prom")
  [ -n "$errs" ] && [ "$errs" -gt 0 ] ||
    { echo "$f: expected accept_errors > 0, got '$errs'" >&2; exit 1; }
done
kill -TERM "$e1_pid" "$e2_pid"
wait "$e1_pid" "$e2_pid" || true
e1_pid=""
e2_pid=""
echo "== both daemons kept accepting past EMFILE and served a query =="

echo "== 6. reference: in-process demo, same seed =="
dune exec bin/topk_cli.exe -- demo --rows $rows --attrs $attrs -k 3 -m $attrs \
  --seed $seed | tee "$work/demo.out"

grep "score in" "$work/query.out" >"$work/query.scores"
grep "score in" "$work/demo.out" >"$work/demo.scores"
diff "$work/query.scores" "$work/demo.scores"
for run in conc1 conc2 conc3 conc4 flood emfile; do
  grep "score in" "$work/query-$run.out" >"$work/query-$run.scores"
  diff "$work/query-$run.scores" "$work/demo.scores"
done
echo "== served results (sequential, concurrent, after both floods) are byte-identical to the in-process demo =="

echo "== 7. graceful drain (SIGTERM) =="
kill -TERM "$s1_pid"
wait "$s1_pid"
s1_pid=""
kill -TERM "$s2_pid"
wait "$s2_pid"
s2_pid=""
grep "S1: drained" "$work/s1.log"
grep "drained" "$work/s2.log"
cat "$work/s1.log" "$work/s2.log"

echo "== 8. corruption smoke: a flipped byte must be a typed rejection =="
flip_byte() {
  # $1: file; $2: offset (negative counts from the end)
  python3 - "$1" "$2" <<'EOF'
import sys
path, off = sys.argv[1], int(sys.argv[2])
b = bytearray(open(path, "rb").read())
b[off] ^= 0xFF
open(path, "wb").write(bytes(b))
EOF
}

# $1: store dir; $2: what was damaged; the rest goes to index-info
expect_rejected() {
  dir=$1
  what=$2
  shift 2
  set +e
  dune exec bin/topk_cli.exe -- index-info --store "$dir" --seed $seed "$@" 2>"$work/corrupt.err"
  rc=$?
  set -e
  [ "$rc" -eq 4 ] || { echo "$what: expected exit 4, got $rc" >&2; cat "$work/corrupt.err" >&2; exit 1; }
  grep "store error" "$work/corrupt.err"
  echo "== $what rejected with exit 4 =="
}

build_fresh() {
  dune exec bin/topk_cli.exe -- build-index --rows $rows --attrs $attrs --seed $seed \
    --store "$1" >/dev/null
}

# a flip in the manifest is caught at open
flip_byte "$work/index/MANIFEST" 20
expect_rejected "$work/index" "corrupted manifest"

# a flip in a segment body is caught by the block checksum sweep
build_fresh "$work/index2"
flip_byte "$work/index2/seg_1_0.stk" -1
expect_rejected "$work/index2" "corrupted segment block" --verify

# a flip in a segment header is caught at open
build_fresh "$work/index3"
flip_byte "$work/index3/seg_1_0.stk" 6
expect_rejected "$work/index3" "corrupted segment header"

echo "== 9. sharded leg: the same data over 2 shards behind one front-end =="
dune exec bin/topk_cli.exe -- build-index --rows $rows --attrs $attrs --seed $seed \
  --shards 2 --store "$work/index-sh" --key-out "$work/client-sh.key"
dune exec bin/topk_cli.exe -- index-info --store "$work/index-sh" --seed $seed --verify

# local S2 keeps the leg lean; the coordinator still fans every depth
# over both shards through the round scheduler
dune exec bin/topk_cli.exe -- serve-s1 --store "$work/index-sh" --seed $seed --port 0 \
  >"$work/s1-sh.log" 2>&1 &
sh_pid=$!
sh_port=$(wait_for_port "$work/s1-sh.log")
echo "sharded S1 on port $sh_port (pid $sh_pid)"
grep -q "over 2 shards" "$work/s1-sh.log" ||
  { echo "serve-s1 did not announce the sharded index" >&2; cat "$work/s1-sh.log" >&2; exit 1; }

dune exec bin/topk_cli.exe -- query --s1 "127.0.0.1:$sh_port" --key "$work/client-sh.key" \
  -k 3 -m $attrs --seed $seed | tee "$work/query-sh.out"

# same winners and exact worst-bound scores as the in-process demo on
# the same seed — the partition must not change what the client
# decrypts (the speculative best bounds legitimately differ: they are
# computed from the unseen bound at the halting depth, and the global
# barrier halts the sharded run at a different depth)
winners() { awk '/score in/ { lo = $4; gsub(/[\[,]/, "", lo); print $1, lo }' "$1"; }
winners "$work/query-sh.out" >"$work/query-sh.scores"
winners "$work/demo.out" >"$work/demo-lo.scores"
diff "$work/query-sh.scores" "$work/demo-lo.scores"
echo "== sharded winners match the in-process demo =="

dune exec bin/topk_cli.exe -- stats "127.0.0.1:$sh_port" --prom >"$work/stats-sh.prom"
shards_g=$(awk '$1 == "shards" { print $2 }' "$work/stats-sh.prom")
[ "$shards_g" = "2" ] || { echo "expected shards=2 gauge, got '$shards_g'" >&2; exit 1; }
shq=$(awk '$1 == "shard_queries" { print $2 }' "$work/stats-sh.prom")
[ "$shq" = "2" ] || { echo "expected shard_queries=2 (1 query x 2 shards), got '$shq'" >&2; exit 1; }
smr=$(awk '$1 == "shard_merge_rounds" { print $2 }' "$work/stats-sh.prom")
[ -n "$smr" ] && [ "$smr" -ge 1 ] ||
  { echo "expected a positive shard_merge_rounds counter, got '$smr'" >&2; exit 1; }
if [ -d artifacts ]; then cp "$work/stats-sh.prom" artifacts/; fi
echo "== scrape: shards=2, $shq shard queries, $smr merge rounds =="

kill -TERM "$sh_pid"
wait "$sh_pid"
sh_pid=""
grep "S1: drained" "$work/s1-sh.log"

# a flip in the shard map is caught at open
flip_byte "$work/index-sh/SHARDMAP" 10
expect_rejected "$work/index-sh" "corrupted shard map"

echo "three-process e2e passed"
