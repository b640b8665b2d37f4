#!/usr/bin/env bash
# Soak gate for the benchmark service (docs/serve.md): one daemon, eight
# concurrent clients submitting the same three-cell spec.  Asserts that
# every client receives the complete row set with every cell ok, that the
# shared content-addressed store deduplicated the overlap (24 cells
# requested, at most 3 simulations run), that no pool worker's peak
# resident set exceeds 16 MiB, and that SIGTERM drains the daemon to a
# clean exit 0 with the listener socket unlinked.
#
# Runs anywhere: bash ci/serve-soak.sh _build/default/bin/simbench_cli.exe
set -euo pipefail

cli=${1:?usage: serve-soak.sh path/to/simbench_cli.exe}
clients=${2:-8}

work=$(mktemp -d)
sock=$work/serve.sock
daemon=
client_pids=()

# every failure path must leave nothing behind: kill the daemon and any
# straggling clients hard, and unlink the socket even if the daemon died
# before its own cleanup ran
cleanup() {
  [ -n "$daemon" ] && kill -9 "$daemon" 2>/dev/null
  for p in "${client_pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -f "$sock"
  rm -rf "$work"
}
trap cleanup EXIT

cat > "$work/spec.json" <<'EOF'
{
  "schema": "simbench-serve-json-2",
  "cells": [
    {"bench": "Small Blocks", "engine": "interp", "arch": "sba", "iters": 400, "repeats": 2},
    {"bench": "Hot Memory Access", "engine": "dbt", "arch": "sba", "iters": 400},
    {"bench": "System Call", "engine": "interp", "arch": "vlx", "iters": 400}
  ]
}
EOF

"$cli" serve --socket "$sock" -j 2 --cache "$work/cache" -v \
  > "$work/daemon.log" 2>&1 &
daemon=$!

for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
if [ ! -S "$sock" ]; then
  echo "daemon never bound $sock" >&2; cat "$work/daemon.log" >&2; exit 1
fi

for i in $(seq 1 "$clients"); do
  "$cli" client --connect "unix:$sock" "$work/spec.json" \
    --id "soak-$i" --json "$work/rows-$i.json" \
    > "$work/client-$i.log" 2>&1 &
  client_pids+=("$!")
done

fail=0
for p in "${client_pids[@]}"; do wait "$p" || fail=1; done
client_pids=()
if [ "$fail" -ne 0 ]; then
  echo "a soak client exited nonzero:" >&2
  tail -n +1 "$work"/client-*.log >&2
  exit 1
fi

# every client got the complete row set, every cell ok
for i in $(seq 1 "$clients"); do
  ok=$(grep -o '"status":"ok"' "$work/rows-$i.json" | wc -l)
  if [ "$ok" -ne 3 ]; then
    echo "client $i got $ok ok rows (wanted 3):" >&2
    cat "$work/client-$i.log" >&2
    exit 1
  fi
done

# the shared store served the duplicates
"$cli" client --connect "unix:$sock" --status > "$work/status.json"
dedup=$(grep -o '"deduplicated":[0-9]*' "$work/status.json" | head -1 | cut -d: -f2)
sim=$(grep -o '"simulated":[0-9]*' "$work/status.json" | head -1 | cut -d: -f2)
echo "simulated=$sim deduplicated=$dedup"
if [ "${dedup:-0}" -le 0 ]; then
  echo "shared cache served no duplicates" >&2; cat "$work/status.json" >&2; exit 1
fi
if [ "${sim:-99}" -gt 3 ]; then
  echo "more simulations than distinct cells" >&2; cat "$work/status.json" >&2; exit 1
fi

# the persistent store must scan clean while the daemon is live
"$cli" fsck "$work/cache"

# each pool worker (a child of the daemon) keeps its guest RAM and heap
# between cells; guest RAM is resident only where a guest wrote it, so a
# worker's peak resident set stays far below the 32 MiB RAM size
if [ -r "/proc/$daemon/status" ]; then
  workers=0
  for status in /proc/[0-9]*/status; do
    ppid=$(awk '/^PPid:/ {print $2}' "$status" 2>/dev/null) || continue
    [ "$ppid" = "$daemon" ] || continue
    hwm=$(awk '/^VmHWM:/ {print $2}' "$status" 2>/dev/null) || continue
    [ -n "$hwm" ] || continue
    pid=${status#/proc/}; pid=${pid%/status}
    workers=$((workers + 1))
    echo "pool worker $pid: VmHWM ${hwm} kB"
    if [ "$hwm" -gt $((16 * 1024)) ]; then
      echo "pool worker $pid peaked at ${hwm} kB resident (bound 16 MiB)" >&2
      exit 1
    fi
  done
  if [ "$workers" -eq 0 ]; then
    echo "no pool worker of daemon $daemon found" >&2; exit 1
  fi
else
  echo "skip: worker memory bound (no /proc/$daemon/status)"
fi

# graceful SIGTERM shutdown: drain, exit 0, unlink the socket
kill -TERM "$daemon"
if ! wait "$daemon"; then
  status=$?
  echo "daemon exited $status after SIGTERM:" >&2; cat "$work/daemon.log" >&2
  exit 1
fi
daemon=
if [ -S "$sock" ]; then
  echo "listener socket left behind after shutdown" >&2; exit 1
fi

echo "serve soak ok: $clients clients, simulated=$sim deduplicated=$dedup"
