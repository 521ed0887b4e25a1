#!/usr/bin/env bash
# Builds the benchmark program from source and runs one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  The build goes to _build/ inside it
# (dune's shared cache is switched off, so nothing is written outside).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null || true)"
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2

# The checkout need not be a git repository; never look above it.
rev=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short HEAD 2>/dev/null || echo unknown)
PERFBENCH_GIT_REV="$rev" exec ./_build/default/perfbench/main.exe "$@"
