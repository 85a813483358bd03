"""Scenario: the Section 4 toolkit on a minor-free sensor field.

A sensor deployment forms a planar (hence minor-free) communication
graph.  Under that promise the paper's partition unlocks a toolbox:

* a low-diameter partition with few crossing edges (Theorems 3 & 4),
* an ultra-sparse spanner for energy-efficient backbone routing
  (Corollary 17),
* deterministic distributed property tests -- is the field cycle-free?
  bipartite (2-colorable for TDMA-style scheduling)?  (Corollary 16).

Run:  python examples/minor_free_toolkit.py
"""

from __future__ import annotations

from repro import (
    build_spanner,
    make_planar,
    measure_stretch,
    partition_randomized,
    partition_stage1,
    test_bipartiteness,
    test_cycle_freeness,
)
from repro.analysis import Table
from repro.graphs import triangulated_grid


def main() -> None:
    n = 700
    epsilon = 0.15
    field = make_planar("delaunay", n, seed=3)
    n_actual = field.number_of_nodes()

    # --- Theorem 3 vs Theorem 4 partitions -----------------------------------
    det = partition_stage1(field, epsilon=epsilon, target_cut=epsilon * n_actual)
    rand = partition_randomized(field, epsilon=epsilon, delta=0.05, seed=3)
    table = Table(
        f"Partitioning a {n_actual}-sensor field (epsilon={epsilon})",
        ["algorithm", "parts", "cut edges", "target", "max diameter", "rounds"],
    )
    for label, result in (("Theorem 3 (det.)", det), ("Theorem 4 (rand.)", rand)):
        # ``result.partition`` is the dense partition: per-node part roots
        # and tree parents, summarized here without building part objects.
        partition = result.partition
        table.add_row(
            label,
            partition.size,
            partition.cut_size(),
            result.target_cut,
            partition.max_diameter(field),
            result.rounds,
        )
    table.print()

    # --- Corollary 17 spanner -------------------------------------------------
    spanner = build_spanner(field, epsilon=epsilon)
    stretch = measure_stretch(field, spanner.spanner, sample_nodes=10, seed=0)
    print(
        f"Backbone spanner: {spanner.size} edges "
        f"({spanner.size / n_actual:.3f} per node; input has "
        f"{field.number_of_edges() / n_actual:.3f}), measured stretch "
        f"{stretch:.1f} (guaranteed <= {spanner.guaranteed_stretch})."
    )

    # --- Corollary 16 property tests -------------------------------------------
    tri = triangulated_grid(22, 22)  # a field with triangulated cells
    table = Table(
        "Property tests under the minor-free promise",
        ["graph", "property", "verdict", "rounds"],
    )
    for graph, name in ((field, "delaunay field"), (tri, "triangulated field")):
        cyc = test_cycle_freeness(graph, epsilon=0.4)
        bip = test_bipartiteness(graph, epsilon=0.2)
        table.add_row(name, "cycle-freeness",
                      "accept" if cyc.accepted else "REJECT", cyc.rounds)
        table.add_row(name, "bipartiteness",
                      "accept" if bip.accepted else "REJECT", bip.rounds)
    table.print()
    print(
        "Both fields are triangle-rich, hence far from cycle-free and far\n"
        "from bipartite, and both testers reject them; each verdict is a\n"
        "witness found inside a single low-diameter part -- no global\n"
        "coordination required.  (Run the testers on a tree or an even grid\n"
        "to see one-sided acceptance.)"
    )


if __name__ == "__main__":
    main()
