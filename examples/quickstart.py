"""Quickstart: test planarity of a graph in the CONGEST model.

Generates one planar graph and one certified far-from-planar graph, runs
the Theorem 1 distributed tester on both, and prints the verdicts along
with the round accounting.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import make_far, make_planar, test_planarity


def show(result, label: str) -> None:
    verdict = "ACCEPT" if result.accepted else "REJECT"
    print(f"\n{label}")
    print(f"  verdict         : {verdict}")
    if not result.accepted:
        print(f"  rejected in     : {result.rejected_stage}")
        print(f"  evidence holders: {len(result.rejecting_parts)} part root(s)")
    print(f"  CONGEST rounds  : {result.rounds:,} "
          f"(Stage I {result.stage1_rounds:,} + Stage II {result.stage2_rounds:,})")
    # The partition is two label vectors over the graph's nodes:
    # ``part_of`` (each node's part root) and ``parent`` (its tree parent).
    partition = result.stage1.partition
    print(f"  parts after Stage I: {partition.size} "
          f"(largest {max(partition.sizes.values())} nodes, "
          f"tree height <= {partition.max_height()})")


def main() -> None:
    epsilon = 0.1

    # A random Delaunay triangulation: planar, so every node must accept.
    planar_graph = make_planar("delaunay", 800, seed=7)
    result = test_planarity(planar_graph, epsilon=epsilon, seed=7)
    show(result, f"Delaunay triangulation (n={planar_graph.number_of_nodes()}, planar)")
    assert result.accepted, "one-sided error violated!"

    # A planar graph with planted K5s: certified epsilon-far from planar.
    far_graph, farness = make_far("planted-k5", 800, seed=7)
    result = test_planarity(far_graph, epsilon=min(epsilon, farness * 0.9), seed=7)
    show(
        result,
        f"Planar + planted K5s (n={far_graph.number_of_nodes()}, "
        f"certified farness >= {farness:.3f})",
    )

    print(
        "\nThe far graph is rejected by at least one node with probability"
        "\n1 - 1/poly(n); the planar graph is always accepted (one-sided error)."
    )


if __name__ == "__main__":
    main()
