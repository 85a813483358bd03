#!/usr/bin/env bash
# Remote-backend smoke: serve the E01-style quick grid over TCP to two
# workers, kill one mid-run, and require (1) the sweep completes with
# records byte-identical to the serial leg, (2) the store holds one
# row per key (72 record entries), and (3) a follow-up --resume run is
# a pure merge (executed=0).
#
# Usage: remote_smoke.sh [WORKDIR]   (defaults to a fresh temp dir)
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
PORT="${REMOTE_SMOKE_PORT:-7341}"
# REPRO_CLI may be a multi-word command ("python -m repro.cli").
read -r -a CLI <<< "${REPRO_CLI:-repro-planarity}"

# E01 quick grid: the completeness sweep's planar families at smoke
# sizes -- enough jobs (72, with an n=400 tail) that killing a worker
# lands mid-run.
GRID=(--kind test --families grid,tri-grid,delaunay --ns 64,128,400
      --epsilons 0.5,0.25 --seeds 0,1,2,3)

echo "== serial reference leg"
"${CLI[@]}" sweep "${GRID[@]}" --markdown "$WORK/serial.md" > /dev/null

echo "== remote leg (2 workers, one killed mid-run)"
"${CLI[@]}" sweep "${GRID[@]}" --backend remote --listen "127.0.0.1:$PORT" \
  --cache-dir "$WORK/store" --markdown "$WORK/remote.md" \
  > "$WORK/sweep.out" 2>&1 &
SWEEP=$!
"${CLI[@]}" worker --connect "127.0.0.1:$PORT" --retry-seconds 60 &
W1=$!
"${CLI[@]}" worker --connect "127.0.0.1:$PORT" --retry-seconds 60 &
W2=$!

sleep 3
if kill -9 "$W1" 2>/dev/null; then
  echo "killed worker $W1 mid-run"
else
  echo "worker $W1 already finished (grid drained early); requeue path"
  echo "is separately covered by tests/test_runtime_remote.py"
fi

wait "$SWEEP"
kill "$W2" 2>/dev/null || true
wait "$W2" 2>/dev/null || true

echo "== records must be byte-identical to the serial leg"
cmp "$WORK/serial.md" "$WORK/remote.md"
echo "byte-identical: OK"

echo "== one store row per key (the service is the only writer)"
ROWS=$(python -c 'import sys; from repro.runtime.store import count_record_entries; print(count_record_entries(sys.argv[1]))' "$WORK/store")
echo "record entries: $ROWS (grid: 72)"
test "$ROWS" -eq 72
echo "one row per key: OK"

echo "== resume must be a pure merge"
"${CLI[@]}" sweep "${GRID[@]}" --resume --cache-dir "$WORK/store" \
  | tee "$WORK/resume.out" | tail -2
grep -q "executed=0" "$WORK/resume.out"
echo "resume executed=0: OK"

echo "== store stats after the fleet run"
"${CLI[@]}" cache stats --cache-dir "$WORK/store"
