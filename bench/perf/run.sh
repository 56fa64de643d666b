#!/usr/bin/env bash
# Build the benchmark from source, then run it.  From the repository root:
#
#   bash bench/perf/run.sh --workload dss-complex --seed 1 --seconds 15 --trace 0
#   bash bench/perf/run.sh --seed 1 --seconds 15 --trace 0   # every workload
#   bash bench/perf/run.sh compare OLD/*.json -- NEW/*.json
#
# Each workload runs in its own process.  The last stdout line of a run is
# its JSON result; build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/../.."

# the dune cache lives outside the checkout: keep the build inside it
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/main.exe 1>&2
exe=_build/default/bench/perf/main.exe
PERF_NPROC=$(nproc 2>/dev/null || echo 0)
export PERF_NPROC

case "${1:-}" in
  compare | smoke) exec "$exe" "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then exec "$exe" "$@"; fi
done
status=0
for w in dss-complex dss-scan drift-rw svc-mixed; do
  "$exe" --workload "$w" "$@" || status=1
done
exit "$status"
