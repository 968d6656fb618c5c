#!/usr/bin/env bash
# Builds the Retreet benchmark from the sources of the current checkout
# and runs it.  Run from the repository root:
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
#
# The last line of standard output is the result object (see README.md).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f benchmark/rbench.ml ]; then
  echo "run.sh: not at the root of a Retreet checkout (need dune-project, lib/ and benchmark/)" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout; keep every write inside.
dune build --root . --cache=disabled ./benchmark/rbench.exe >&2

rev=""
if [ -e .git ]; then
  rev=$(git rev-parse HEAD 2>/dev/null || true)
fi

exec ./_build/default/benchmark/rbench.exe "$@" ${rev:+--rev "$rev"}
