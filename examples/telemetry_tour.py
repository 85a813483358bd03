"""Telemetry tour: trace a sweep, rank hotspots, export for Chrome.

Runs a small tester sweep twice -- once serially, once over a process
pool -- with tracing enabled, then reads the merged trace directory
back: the span tree (who nested under whom, across processes), the
hotspot ranking `trace top` prints, the per-process metrics
registries, and a Chrome ``trace_event`` export you can drop into
chrome://tracing or https://ui.perfetto.dev.

Run:  python examples/telemetry_tour.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.runtime import SweepSpec, make_backend, run_sweep
from repro.telemetry import (
    chrome_trace,
    configure,
    read_events,
    read_metrics,
    render_tree,
    top_spans,
)


def main() -> None:
    work = Path(tempfile.mkdtemp(prefix="repro-telemetry-"))
    trace_dir = work / "trace"

    # Everything is off by default; one call turns it on for this
    # process *and* its children (pool workers inherit the environment
    # knobs this writes; fleet workers adopt the trace sink from the
    # service's welcome frame).
    configure(trace_dir=str(trace_dir))

    grid = SweepSpec.make(
        "test_planarity",
        families=["grid", "delaunay"],
        ns=[64, 100],
        seeds=[0, 1],
        epsilon=[0.5, 0.25],
    )
    print(f"sweeping {grid.size} jobs serially, then on a process pool...")
    run_sweep(grid, backend="serial")
    run_sweep(grid, backend=make_backend("process", max_workers=2))

    events = read_events(trace_dir)
    files = sorted(path.name for path in trace_dir.glob("trace-*.jsonl"))
    print(f"\n{len(events)} events across {len(files)} per-process files:")
    for name in files:
        print(f"  {name}")

    print("\nspan tree (pool workers' job spans link under sweep #2):")
    for line in render_tree(events, max_lines=12):
        print(f"  {line}")

    print("\nhotspots (what `repro-planarity trace top` prints):")
    for row in top_spans(events):
        print(
            f"  {row['name']:<6} kind={row['kind']:<15} "
            f"count={row['count']:>3}  total={row['total_s']:.4f}s  "
            f"max={row['max_s']:.4f}s"
        )

    print("\nper-process metrics registries:")
    for token, registry in read_metrics(trace_dir).items():
        counters = registry.get("counters", {})
        print(f"  {token}: {json.dumps(counters, sort_keys=True)}")

    chrome_path = work / "trace_chrome.json"
    chrome_path.write_text(json.dumps(chrome_trace(events)))
    print(f"\nChrome trace_event export: {chrome_path}")
    print("  load it in chrome://tracing or https://ui.perfetto.dev")
    print(f"\nsame data via the CLI: repro-planarity trace view {trace_dir}")

    configure(enabled=False)  # leave the process as we found it


if __name__ == "__main__":
    main()
