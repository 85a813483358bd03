"""Scenario: the raw CONGEST simulator and its primitive protocols.

Shows the substrate directly: running genuinely distributed protocols
(BFS, Barenboim-Elkin forest decomposition, Cole-Vishkin 3-coloring) as
per-node programs with O(log n)-bit messages, reading the bandwidth
accounting the simulator enforces, and watching it round by round
through a ``round_hook``.

Run:  python examples/congest_playground.py
"""

from __future__ import annotations

import networkx as nx

from repro import CongestNetwork
from repro.analysis import Table
from repro.congest.programs import (
    BFSTreeProgram,
    cole_vishkin_coloring,
    run_forest_decomposition_simulated,
)
from repro.graphs import make_planar


def main() -> None:
    graph = make_planar("tri-grid", 400, seed=0)
    n = graph.number_of_nodes()

    # --- BFS as a node program ---------------------------------------------------
    # Networks over the same graph object share one CompiledTopology
    # (adjacency arrays, neighbor sets, bandwidth budget) -- the second
    # construction below compiles nothing.
    network = CongestNetwork(graph, seed=0)
    result = network.run(
        BFSTreeProgram,
        max_rounds=n,
        config={"root": 0},
        strict_bandwidth=True,
    )
    depths = [out[1] for out in result.outputs.values() if out]
    table = Table(
        f"Distributed BFS on a triangulated grid (n={n})",
        ["rounds", "messages", "total bits", "max msg bits", "budget bits", "depth"],
    )
    table.add_row(
        result.rounds,
        result.total_messages,
        result.total_bits,
        result.max_message_bits,
        result.bandwidth_bits,
        max(depths),
    )
    table.print()

    # --- per-round stats through round_hook -------------------------------------
    # The hook runs once per executed round (never per message) and sees
    # the running message/bit totals; consecutive deltas are the
    # per-round counts.  A run without a hook pays one branch per round.
    totals = [(0, 0)]

    def hook(round_index, active, accounting):
        totals.append((accounting.total_messages, accounting.total_bits))

    hooked = network.run(
        BFSTreeProgram,
        max_rounds=n,
        config={"root": 0},
        strict_bandwidth=True,
        round_hook=hook,
    )
    assert hooked.outputs == result.outputs
    per_round = [
        (m - pm, b - pb) for (pm, pb), (m, b) in zip(totals, totals[1:])
    ]
    busiest = max(range(len(per_round)), key=lambda r: per_round[r][0])
    print(
        f"round_hook saw {len(per_round)} rounds; the busiest, round "
        f"{busiest}, carried {per_round[busiest][0]} messages "
        f"({per_round[busiest][1]} bits) across the BFS frontier."
    )

    # --- Barenboim-Elkin forest decomposition -----------------------------------
    fd = run_forest_decomposition_simulated(graph, alpha=3, seed=0)
    out_degrees = [len(o) for o in fd.out_neighbors.values()]
    print(
        f"Forest decomposition: success={fd.success} in {fd.rounds} rounds; "
        f"max out-degree {max(out_degrees)} <= 3*alpha = 9 "
        "(so the edges split into <= 9 forests)."
    )

    # planar graphs never produce evidence; a clique does:
    clique = nx.complete_graph(16)
    fd_bad = run_forest_decomposition_simulated(clique, alpha=1, seed=0)
    print(
        f"K16 with alpha=1: success={fd_bad.success}, "
        f"{len(fd_bad.rejecting_nodes)} nodes hold rejection evidence."
    )

    # --- Cole-Vishkin 3-coloring ---------------------------------------------------
    path = nx.path_graph(300)
    parents = {i: i - 1 if i > 0 else None for i in path.nodes()}
    colors, rounds = cole_vishkin_coloring(path, parents, seed=0)
    assert all(colors[u] != colors[v] for u, v in path.edges())
    print(
        f"Cole-Vishkin 3-colored a 300-node path in {rounds} rounds "
        f"(colors used: {sorted(set(colors.values()))}) -- O(log* n) speed."
    )


if __name__ == "__main__":
    main()
