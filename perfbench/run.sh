#!/usr/bin/env bash
# Builds the benchmark suite and the lsra_tool it drives from this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. Build output goes to stderr; the
# last line of stdout is the result JSON.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/suite.exe ./bin/lsra_tool.exe >&2
exec ./_build/default/perfbench/suite.exe "$@"
