#!/usr/bin/env sh
# Two-process end-to-end run of the secure top-k query: S2 (the crypto
# cloud holding the Paillier secret key) runs as a standalone daemon in
# one process; the query driver (S1 + client) connects to it over TCP
# with --s2 HOST:PORT and ships every round as a mux frame through the
# round scheduler, as serve-s1 does. Both sides provision keys from the
# same seed via the Wire.Hello handshake, so this is the deployment the
# paper's two-cloud model describes — every decryption crosses a real
# socket.
#
# Usage: sh examples/two_process.sh [extra demo flags...]
# Exits non-zero unless the demo prints "oracle-valid: true" and the
# daemon reports a positive paillier_decrypt count (CI's two-process
# smoke test).
set -eu

cd "$(dirname "$0")/.."
dune build bin/topk_cli.exe

out=$(mktemp)
demo_out=$(mktemp)
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -f "$out" "$demo_out"' EXIT INT TERM

# ephemeral port: the daemon prints the one it bound
dune exec bin/topk_cli.exe -- serve-s2 --port 0 --once >"$out" 2>&1 &
daemon_pid=$!

port=""
for _ in $(seq 1 50); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$out")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "daemon did not come up:" >&2
  cat "$out" >&2
  exit 1
fi
echo "== S2 daemon on port $port (pid $daemon_pid) =="

dune exec bin/topk_cli.exe -- demo --rows 10 -k 2 --seed two-proc \
  --s2 "127.0.0.1:$port" --metrics "$@" | tee "$demo_out"

wait "$daemon_pid"
echo "== daemon exited cleanly =="
cat "$out"

if ! grep -qx 'oracle-valid: true' "$demo_out"; then
  echo "FAIL: the demo's answer is not oracle-valid" >&2
  exit 1
fi
decrypts=$(sed -n '/^S2 daemon-side operation counters:/,$p' "$demo_out" |
  awk '$1 == "paillier_decrypt" { print $2 }')
if [ -z "$decrypts" ] || [ "$decrypts" -le 0 ]; then
  echo "FAIL: the daemon reported no paillier_decrypt" >&2
  exit 1
fi
echo "== oracle-valid; the daemon decrypted $decrypts ciphertexts =="
