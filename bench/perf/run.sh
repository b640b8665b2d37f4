#!/bin/sh
# Build the benchmark from source and run it.  Arguments are passed to
# `simbench_perf run`, e.g.
#   sh bench/perf/run.sh --workload dbt-sweep --seed 1 --seconds 20 --trace 0
# Run from the repository root.  The build uses the checkout's own _build
# directory and no shared dune cache.
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/perf/run.sh: run from the root of a full simbench checkout" >&2
  exit 2
fi
exec dune exec --root . --cache=disabled --display quiet \
  ./bench/perf/simbench_perf.exe -- run "$@"
