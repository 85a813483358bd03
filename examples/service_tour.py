"""Service tour: one fleet, many clients, one ``submit`` call shape.

Starts a :class:`~repro.runtime.SweepService` in-process, joins two
fleet workers to it (the same ``repro-planarity worker --connect ...
--reconnect`` processes you would run on other hosts), and then walks
the :class:`~repro.runtime.Client` facade through its three targets:

1. in-process serial (the reference record stream),
2. the live service, with progress frames and a store-hit resubmit,
3. two *concurrent* clients sharing the fleet (round-robin
   dispatch, visible in the service's dispatch log).

Records are byte-identical across all of them -- specs carry all
their randomness -- which is the point of the facade: develop against
``backend="serial"``, point the same call at an endpoint later.

Run:  python examples/service_tour.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

from repro.runtime import Client, RunConfig, SweepService, SweepSpec
from repro.runtime.worker import serve_remote


def main() -> None:
    store = Path(tempfile.mkdtemp(prefix="repro-service-")) / "store"
    sweep = SweepSpec.make(
        "test_planarity",
        families=["grid"],
        ns=[36, 64, 100],
        epsilon=[0.5, 0.25],
        seeds=[0],
    )

    # 1. The in-process serial reference: no fleet, no store.
    serial = Client(backend="serial", config=RunConfig()).run(sweep)
    print(f"serial reference: {len(serial)} records")

    with SweepService(store_dir=store, heartbeat=2.0) as service:
        print(f"service listening on {service.endpoint}")

        # Two fleet workers.  Here they are threads; in production each
        # is `repro-planarity worker --connect <endpoint> --reconnect`
        # on any host that can reach the service.  Workers are
        # storeless: the service answers store hits and persists every
        # executed record itself.
        for _ in range(2):
            threading.Thread(
                target=serve_remote,
                args=(service.host, service.bound_port),
                kwargs={"reconnect": True},
                daemon=True,
            ).start()

        # 2. The same submit against the live service, with progress.
        remote = list(
            Client(endpoint=service.endpoint, name="tour").submit(
                sweep,
                on_progress=lambda p: print(
                    f"  progress: {p['done']}/{p['total']} "
                    f"(workers={p['workers']})"
                ),
            )
        )
        print(f"service run matches serial: {remote == serial}")

        # Resubmitting is a pure store-hit run: same records, nothing
        # dispatched to the fleet.
        again = Client(endpoint=service.endpoint, name="tour-again").run(sweep)
        print(f"resubmit (all store hits) matches: {again == serial}")

        # 3. Two concurrent clients with disjoint sweeps share the
        # fleet.  When both have jobs queued at once, the round-robin
        # dispatcher alternates between their queues instead of
        # draining one before the other (tests/test_runtime_service.py
        # pins the a,b,a,b order); with jobs this small the first
        # client may simply finish before the second connects.
        sweep_a = SweepSpec.make(
            "test_planarity", families=["delaunay"], ns=[64, 100, 144],
            epsilon=[0.5], seeds=[1],
        )
        sweep_b = SweepSpec.make(
            "test_planarity", families=["delaunay"], ns=[64, 100, 144],
            epsilon=[0.5], seeds=[2],
        )
        before = len(service.dispatch_log)
        it_a = Client(endpoint=service.endpoint, name="alice").submit(sweep_a)
        it_b = Client(endpoint=service.endpoint, name="bob").submit(sweep_b)
        records_a, records_b = list(it_a), list(it_b)
        print(f"alice got {len(records_a)}, bob got {len(records_b)}")
        order = [name for name, _idx in list(service.dispatch_log)[before:]]
        print(f"dispatch order: {order}")

    print("service stopped; reconnect workers received their exit frames")


if __name__ == "__main__":
    main()
