#!/bin/sh
# Builds the deployment (bin/topk_cli.exe) and the load generator from
# source, then runs one measurement:
#
#   sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build files, compiler temporaries and
# the run's scratch directory all stay under the root (_build/ and
# .bench_work/); the last line of stdout is the JSON result.
set -eu

work=.bench_work
mkdir -p "$work/tmp"
TMPDIR="$PWD/$work/tmp"
DUNE_CACHE=disabled
export TMPDIR DUNE_CACHE

dune build --root . --display quiet ./bin/topk_cli.exe ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe bench --cli ./_build/default/bin/topk_cli.exe "$@"
