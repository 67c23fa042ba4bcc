#!/usr/bin/env bash
# Build the gkbms server and the benchmark from source, then run the
# benchmark.  From the repository root:
#
#   bash gkbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash gkbench/run.sh selftest
#
# Build output goes to standard error, so the benchmark's last line of
# standard output is its JSON result.
set -eu

if [ ! -f dune-project ] || [ ! -f bin/gkbms_cli.ml ] || [ ! -d lib ]; then
  echo "gkbench: no gkbms sources here; run from the repository root" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1; then
  if command -v opam >/dev/null 2>&1; then
    eval "$(opam env 2>/dev/null)" || true
  fi
fi

dune build --root . ./bin/gkbms_cli.exe ./gkbench/gkbench.exe 1>&2
exec ./_build/default/gkbench/gkbench.exe "$@"
