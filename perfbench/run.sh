#!/usr/bin/env bash
# Build the suu binary and the benchmark driver from source, then run one
# benchmark run. Invoked from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
dune build --root . ./bin/suu_cli.exe ./perfbench/main.exe 1>&2
# The checkout need not be a git repository; never look above it.
PERFBENCH_GIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" \
  git describe --always --dirty 2>/dev/null || echo none)
export PERFBENCH_GIT
exec ./_build/default/perfbench/main.exe "$@"
