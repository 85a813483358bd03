"""Tests for the generic hereditary-property tester (paper remark after
Corollary 16) and its built-in checkers."""

from __future__ import annotations

import networkx as nx
import pytest

from _stage1_reference import label_cases, relabeled
from repro.graphs import (
    grid_graph,
    make_planar,
    random_outerplanar,
    random_tree,
    triangulated_grid,
)
from repro.testers import (
    BUILTIN_CHECKERS,
    bipartiteness_checker,
    cycle_freeness_checker,
    outerplanarity_checker,
    planarity_checker,
    test_bipartiteness as run_bipartiteness,
    test_cycle_freeness as run_cycle_freeness,
    test_hereditary_property as run_hereditary,
)


class TestCheckers:
    def test_cycle_freeness_checker(self):
        tree = random_tree(30, seed=0)
        ok, rounds = cycle_freeness_checker(tree, 0)
        assert ok and rounds > 0
        ok, _ = cycle_freeness_checker(nx.cycle_graph(6), 0)
        assert not ok

    def test_bipartiteness_checker(self):
        ok, _ = bipartiteness_checker(nx.cycle_graph(6), 0)
        assert ok
        ok, _ = bipartiteness_checker(nx.cycle_graph(5), 0)
        assert not ok

    def test_planarity_checker(self, k5):
        ok, _ = planarity_checker(nx.wheel_graph(8), 0)
        assert ok
        ok, _ = planarity_checker(k5, 0)
        assert not ok

    def test_outerplanarity_checker(self):
        ok, _ = outerplanarity_checker(random_outerplanar(30, seed=1), 0)
        assert ok
        # K4 is planar but not outerplanar
        ok, _ = outerplanarity_checker(nx.complete_graph(4), 0)
        assert not ok


class TestHereditaryTester:
    def test_outerplanar_accepted(self):
        graph = random_outerplanar(200, seed=1)
        result = run_hereditary(graph, "outerplanar", epsilon=0.3)
        assert result.accepted
        assert result.property_name == "outerplanar"

    def test_tri_grid_not_outerplanar(self):
        graph = triangulated_grid(12, 12)
        result = run_hereditary(graph, "outerplanar", epsilon=0.3)
        assert not result.accepted
        assert result.rejecting_parts

    def test_tri_grid_is_planar(self):
        graph = triangulated_grid(10, 10)
        result = run_hereditary(graph, "planar", epsilon=0.3)
        assert result.accepted

    def test_custom_checker(self):
        def max_degree_4(sub, root):
            return max(dict(sub.degree()).values() or [0]) <= 4, 3

        grid = grid_graph(10, 10)
        result = run_hereditary(grid, max_degree_4, epsilon=0.3)
        assert result.accepted
        assert result.property_name == "max_degree_4"

    def test_builtin_names_consistent(self):
        assert set(BUILTIN_CHECKERS) == {
            "cycle-free", "bipartite", "planar", "outerplanar"
        }

    def test_matches_corollary16_testers(self):
        graph = triangulated_grid(10, 10)
        cyc = run_hereditary(graph, "cycle-free", epsilon=0.4)
        bip = run_hereditary(graph, "bipartite", epsilon=0.2)
        assert not cyc.accepted and not bip.accepted

    def test_randomized_method(self):
        graph = random_outerplanar(150, seed=2)
        result = run_hereditary(
            graph, "outerplanar", epsilon=0.3, method="randomized", seed=1
        )
        assert result.accepted

    def test_unknown_builtin(self, small_grid):
        with pytest.raises(ValueError):
            run_hereditary(small_grid, "chromatic")

    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError):
            run_hereditary(small_grid, "planar", method="psychic")

    def test_invalid_epsilon(self, small_grid):
        with pytest.raises(ValueError):
            run_hereditary(small_grid, "planar", epsilon=0)

    def test_rounds_accounting(self):
        graph = make_planar("delaunay", 150, seed=3)
        result = run_hereditary(graph, "planar", epsilon=0.3)
        assert result.rounds == result.partition_rounds + result.verification_rounds
        assert result.verification_rounds > 0


class TestMatchesCorollary16Testers:
    """The cycle-free and bipartite built-ins, run per part on a
    relabeled subgraph, agree with the Corollary 16 testers' vectorized
    BFS check on every label type."""

    @pytest.mark.parametrize(
        "family,relabeling",
        label_cases(["grid", "tri-grid", "apollonian", "delaunay"]),
    )
    @pytest.mark.parametrize("epsilon", [0.1, 0.3])
    @pytest.mark.parametrize("method", ["deterministic", "randomized"])
    @pytest.mark.parametrize(
        "checker,tester",
        [("cycle-free", run_cycle_freeness), ("bipartite", run_bipartiteness)],
        ids=["cycle-free", "bipartite"],
    )
    def test_verdicts_agree(
        self, family, relabeling, epsilon, method, checker, tester
    ):
        graph = relabeled(make_planar(family, 120, seed=0), relabeling)
        ours = run_hereditary(graph, checker, epsilon=epsilon, method=method, seed=0)
        theirs = tester(graph, epsilon=epsilon, method=method, seed=0)
        assert (
            ours.accepted, ours.rejecting_parts, ours.verification_rounds
        ) == (theirs.accepted, theirs.rejecting_parts, theirs.verification_rounds)
