#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it.
#
#   bash perfbench/run.sh --workload <cold_attach|step_refresh|fleet_faulty|all> \
#        [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
