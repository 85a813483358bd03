"""Worker entry point for traced service runs.

Wraps the worker's layers under the names ``repro.runtime.worker`` binds
(``handle_request``, ``run_job_timed``, ``JobSpec.build_graph`` and the
store probe) plus the tester's layers, then runs
``repro.runtime.worker.main`` with the remaining arguments.  When the
worker exits, its spans are written to the ``--spans`` file::

    python3 perfbench/traced_worker.py --spans spans.jsonl --connect HOST:PORT

The program's sources must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import sys

import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    args, worker_argv = parser.parse_known_args(argv)

    from repro.runtime import worker

    recorder = tracing.SpanRecorder()
    recorder.install(tracing.WORKER_LAYERS)
    try:
        return worker.main(worker_argv)
    finally:
        recorder.uninstall()
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
