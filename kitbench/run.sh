#!/bin/sh
# Build the benchmark from source and run it. Run from the repository
# root; every argument is passed to kitbench.exe (see README.md):
#
#   sh kitbench/run.sh --workload rand-hot --seed 7 --seconds 18 --trace 0
#
# The build stays inside the checkout (_build, no shared dune cache) and
# its output goes to stderr, so stdout carries only the bench's JSON.
set -e
dune build --root . --cache=disabled ./kitbench/kitbench.exe 1>&2
exec ./_build/default/kitbench/kitbench.exe "$@"
