#!/usr/bin/env bash
# Service smoke: one persistent `repro-planarity serve` process, two
# `worker --reconnect` processes, two *concurrent* `submit` clients.
# One worker is kill -9'd mid-run.  Requirements: both clients finish
# with record tables byte-identical to their serial legs, the store
# holds one row per key (72 record entries), both sweeps resubmitted at
# once through one Client are pure store hits (executed == 0, same
# tables, still 72 entries), and a
# SIGTERM shuts the service down cleanly (rc 0) releasing the
# reconnect worker (rc 0 -- it got its exit frame instead of
# redialing).
#
# Usage: service_smoke.sh [WORKDIR]   (defaults to a fresh temp dir)
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
PORT="${SERVICE_SMOKE_PORT:-7351}"
EP="127.0.0.1:$PORT"
# REPRO_CLI may be a multi-word command ("python -m repro.cli").
read -r -a CLI <<< "${REPRO_CLI:-repro-planarity}"

# Same E01-style quick grid as the remote smoke, split by seed into
# two disjoint client sweeps -- enough jobs (36 each, with an n=400
# tail) that killing a worker lands mid-run.
AXES=(--kind test --families grid,tri-grid,delaunay --ns 64,128,400
      --epsilons 0.5,0.25)
GRID_A=("${AXES[@]}" --seeds 0,1)
GRID_B=("${AXES[@]}" --seeds 2,3)

echo "== serial reference legs"
"${CLI[@]}" submit "${GRID_A[@]}" --backend serial \
  --markdown "$WORK/serial_a.md" > /dev/null
"${CLI[@]}" submit "${GRID_B[@]}" --backend serial \
  --markdown "$WORK/serial_b.md" > /dev/null

echo "== start service + two reconnect workers"
"${CLI[@]}" serve --listen "$EP" --cache-dir "$WORK/store" \
  > "$WORK/serve.out" 2>&1 &
SERVE=$!
for _ in $(seq 1 100); do
  grep -q "service listening on" "$WORK/serve.out" 2>/dev/null && break
  sleep 0.1
done
grep -q "service listening on" "$WORK/serve.out"

"${CLI[@]}" worker --connect "$EP" --reconnect &
W1=$!
"${CLI[@]}" worker --connect "$EP" --reconnect &
W2=$!

echo "== two concurrent clients (one worker killed mid-run)"
"${CLI[@]}" submit "${GRID_A[@]}" --connect "$EP" --name alice \
  --markdown "$WORK/service_a.md" > "$WORK/client_a.out" 2>&1 &
CA=$!
"${CLI[@]}" submit "${GRID_B[@]}" --connect "$EP" --name bob \
  --markdown "$WORK/service_b.md" > "$WORK/client_b.out" 2>&1 &
CB=$!

sleep 3
if kill -9 "$W1" 2>/dev/null; then
  echo "killed worker $W1 mid-run"
else
  echo "worker $W1 already finished (grid drained early); requeue path"
  echo "is separately covered by tests/test_runtime_service.py"
fi

wait "$CA"
wait "$CB"

echo "== records must be byte-identical to the serial legs"
cmp "$WORK/serial_a.md" "$WORK/service_a.md"
cmp "$WORK/serial_b.md" "$WORK/service_b.md"
echo "byte-identical: OK"

echo "== one store row per key (the service is the only writer)"
ROWS=$(python -c 'import sys; from repro.runtime.store import count_record_entries; print(count_record_entries(sys.argv[1]))' "$WORK/store")
echo "record entries: $ROWS (grid: 72)"
test "$ROWS" -eq 72
echo "one row per key: OK"

echo "== resubmit both sweeps at once through one Client: pure store hits"
# Both `submit` commands run in one process on two threads and share one
# Client, so their submissions travel on one session; a tap on the
# client's frame reader keeps the two verdicts.
python - "$EP" "$WORK" "${GRID_A[*]}" "${GRID_B[*]}" > /dev/null <<'PY'
import sys
import threading

import repro.cli as cli
import repro.runtime.client as client_mod
from repro.runtime import Client

endpoint, work, grid_a, grid_b = sys.argv[1:]
shared = Client(endpoint=endpoint, name="resubmit")
cli.Client = lambda **_options: shared
verdicts, errors = [], []
read_bframe = client_mod.read_bframe


async def tapped(reader):
    frame = await read_bframe(reader)
    if frame is not None and frame.get("op") == "verdict":
        verdicts.append(frame)
    return frame


client_mod.read_bframe = tapped


def submit(grid, tag):
    try:
        cli.main(["submit", *grid.split(), "--connect", endpoint,
                  "--markdown", f"{work}/resubmit_{tag}.md"])
    except BaseException as exc:
        errors.append(exc)


threads = [threading.Thread(target=submit, args=(grid, tag))
           for grid, tag in ((grid_a, "a"), (grid_b, "b"))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
shared.close()
assert not errors, errors
assert len(verdicts) == 2, verdicts
for verdict in verdicts:
    assert verdict["ok"] and verdict["executed"] == 0, verdict
PY
cmp "$WORK/serial_a.md" "$WORK/resubmit_a.md"
cmp "$WORK/serial_b.md" "$WORK/resubmit_b.md"
echo "both verdicts: executed=0; tables byte-identical"
ROWS=$(python -c 'import sys; from repro.runtime.store import count_record_entries; print(count_record_entries(sys.argv[1]))' "$WORK/store")
echo "record entries: $ROWS (grid: 72)"
test "$ROWS" -eq 72
echo "store-hit resubmit: OK"

echo "== SIGTERM stops the service and releases the reconnect worker"
kill -TERM "$SERVE"
wait "$SERVE"
echo "service exited cleanly"
wait "$W2"
echo "reconnect worker exited cleanly (got its exit frame)"

echo "== store stats after the fleet run"
"${CLI[@]}" cache stats --cache-dir "$WORK/store"
