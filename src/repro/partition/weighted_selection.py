"""Theorem 4: the randomized partition for minor-free graphs.

Under a minor-free promise the arboricity of every auxiliary graph is
bounded by a constant, so the forest-decomposition verification step can
be dropped.  Instead of the heaviest out-edge of an orientation, every
auxiliary node draws an incident edge with probability proportional to
its weight, repeats ``s = Theta(log 1/delta)`` times, and keeps the
heaviest draw (the *weighted-edge selection*, paper Section 4).  Lemma 13
shows the selected pseudoforest retains a ``1/(16*alpha)`` weight
fraction with probability ``1 - delta``; Stage I's own merging code
(:func:`~repro.partition.dense.color_roots` and
:func:`~repro.partition.dense.mark_and_choose_dense`, whose marking
tolerates pseudoforest cycles by Claim 15) then contracts it, giving
Claim 14's per-phase decay of ``1 - 1/(64*alpha)``.

Round cost: each draw is emulated by a uniform-edge-selection
convergecast over part trees (Section 4.1), so a phase costs
``O(poly(1/eps) * (log(1/delta) + log* n))`` rounds -- no ``log n`` term.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

import networkx as nx
import numpy as np

from ..congest.ledger import RoundLedger, TreeCostModel
from ..errors import PartitionError
from .coloring import randomized_coloring_emulated
from .parts import Partition
from .stage1 import PhaseStats, Stage1Result, _charge_merging_overhead


def default_trials(delta: float, phase_budget: int) -> int:
    """Number of selection trials per phase: ``Theta(log(phases / delta))``.

    The per-phase failure budget is ``delta / phase_budget`` (union bound
    over phases); the constant in front of the logarithm is 1 here --
    Lemma 13's provable constant is ``16*alpha - 1`` but the selection is
    far better in practice, and benchmark E6 measures the realized
    success probability directly.
    """
    per_phase = max(delta / max(phase_budget, 1), 1e-9)
    return max(1, int(math.ceil(math.log2(1.0 / per_phase))))


def randomized_phase_cap(m: int, target_cut: float, alpha: int) -> int:
    """A-priori phase bound using Claim 14's decay ``1 - 1/(64*alpha)``."""
    if m == 0 or target_cut >= m:
        return 0
    decay = 1.0 - 1.0 / (64 * alpha)
    return int(math.ceil(math.log(max(target_cut, 0.5) / m) / math.log(decay)))


@dataclass
class RandomizedPartitionResult(Stage1Result):
    """Stage1Result plus the randomized-variant parameters."""

    trials: int = 0
    delta: float = 0.0

    @property
    def met_target(self) -> bool:
        """Whether the cut target was reached within the phase cap."""
        return self.final_cut <= self.target_cut


def partition_randomized(
    graph: nx.Graph,
    epsilon: float,
    delta: float = 0.1,
    alpha: int = 3,
    target_cut: Optional[float] = None,
    trials: Optional[int] = None,
    max_phases: Optional[int] = None,
    early_stop: bool = True,
    seed: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    coloring: str = "cole-vishkin",
    coloring_rounds: Optional[int] = None,
) -> RandomizedPartitionResult:
    """Theorem 4 partition: ``O(poly(1/eps)(log 1/delta + log* n))`` rounds.

    Args:
        graph: the input graph; quality guarantees assume it is
            minor-free with arboricity <= alpha (the promise).  On other
            inputs the algorithm still terminates but may miss the target.
        epsilon: edge-cut parameter; default target ``epsilon * n`` per
            Theorem 4 ("the total number of edges between parts is at
            most epsilon n").
        delta: confidence parameter.
        alpha: arboricity bound of the promised family (3 for planar).
        trials: selection repetitions per phase; default
            ``Theta(log(phases / delta))``.
        coloring: ``"cole-vishkin"`` (default; O(log* n) super-rounds) or
            ``"randomized"`` -- Remark 1's trade-off: a fixed
            *coloring_rounds* budget with abstention, removing the
            dependence on n entirely at the cost of the (exponentially
            small) abstention fraction slowing the decay.
        coloring_rounds: budget for the randomized coloring; defaults to
            ``ceil(log2(phases/delta)) + 2``.
        max_phases / early_stop / seed / ledger / cost_model: as Stage I.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if coloring not in ("cole-vishkin", "randomized"):
        raise ValueError(f"unknown coloring {coloring!r}")
    if coloring_rounds is not None and coloring_rounds < 1:
        raise ValueError(f"coloring_rounds must be >= 1, got {coloring_rounds}")
    # The phase loop is Stage I's, with the weighted selection in place
    # of the forest decomposition: the selection draws from *rng* in
    # ``id_key`` order of the part roots, and the randomized coloring
    # likewise consumes conflicts in ascending-root order.
    from ..congest.topology import compile_topology
    from .dense import (
        DensePartitionState,
        RootSeeds,
        color_roots,
        mark_and_choose_dense,
        weighted_selection_dense,
    )

    n = graph.number_of_nodes()
    topology = compile_topology(graph) if n else None
    m = topology.m if topology is not None else 0
    if target_cut is None:
        target_cut = epsilon * n
    cap = randomized_phase_cap(m, target_cut, alpha)
    if max_phases is None:
        max_phases = cap
    if trials is None:
        trials = default_trials(delta, cap or 1)
    rng = random.Random(seed)
    ledger = ledger if ledger is not None else RoundLedger()
    model = cost_model or TreeCostModel()

    if topology is None:
        return RandomizedPartitionResult(
            partition=Partition(graph, []),
            success=True,
            rejecting_parts=(),
            phases=[],
            ledger=ledger,
            target_cut=target_cut,
            theoretical_phase_cap=cap,
            trials=trials,
            delta=delta,
        )

    if coloring_rounds is None:
        coloring_rounds = int(math.ceil(math.log2(max(2.0, (cap or 1) / delta)))) + 2

    state = DensePartitionState(topology)
    seeds = RootSeeds(topology.nodes)
    phases: List[PhaseStats] = []
    cut = m

    for phase_index in range(1, max_phases + 1):
        if cut == 0 or (early_stop and cut <= target_cut):
            break
        aux = state.build_aux()
        height = state.max_height()
        pids = aux.pids

        parent_c, weight_c = weighted_selection_dense(aux, trials, rng)
        # Section 4.1: each of the s draws is one uniform-edge-selection
        # convergecast (+1 boundary round to learn neighboring roots).
        ledger.charge(
            trials * (model.convergecast(height) + 1) + 1,
            "randomized.selection",
            f"{trials} weighted draws over trees of height {height}",
        )
        # Sub-step 2a: CV or Remark 1's randomized coloring of F_i.
        if coloring == "cole-vishkin":
            colors, cv_rounds = color_roots(
                parent_c,
                seeds(pids),
                ledger=ledger,
                cost_model=model,
                height=height,
                category="randomized.coloring",
            )
        else:
            drawn, _abstaining = randomized_coloring_emulated(
                {c: (p if p >= 0 else None) for c, p in enumerate(parent_c.tolist())},
                rounds=coloring_rounds,
                rng=rng,
                ledger=ledger,
                cost_model=model,
                height=height,
            )
            colors = np.array(
                [-1 if c is None else c for c in drawn.values()], dtype=np.int64
            )
            cv_rounds = coloring_rounds
        marking = mark_and_choose_dense(parent_c, weight_c, colors)
        _charge_merging_overhead(ledger, model, height, marking)

        parts_before = state.size
        state.merge([(pids[c], pids[p]) for c, p in marking.contract_edges], aux)
        new_cut = state.cut_size()
        phases.append(
            PhaseStats(
                phase=phase_index,
                parts_before=parts_before,
                parts_after=state.size,
                cut_before=cut,
                cut_after=new_cut,
                max_height_before=height,
                max_height_after=state.max_height(),
                fd_super_rounds=0,
                cv_super_rounds=cv_rounds,
                max_marked_tree_height=max(
                    marking.tree_heights.values(), default=0
                ),
                marked_weight=marking.marked_weight,
                contracted_weight=marking.contracted_weight,
            )
        )
        # An empty contraction is possible only under randomized coloring
        # when every decision abstained (exponentially unlikely): the
        # phase made no progress and the next one retries with fresh
        # randomness.  Otherwise every marked tree contracts its heavier
        # parity class, which has positive weight.
        if marking.contract_edges and new_cut >= cut:
            raise PartitionError(
                f"phase {phase_index} made no progress (cut {cut} -> {new_cut})"
            )
        cut = new_cut

    return RandomizedPartitionResult(
        success=True,
        rejecting_parts=(),
        phases=phases,
        ledger=ledger,
        target_cut=target_cut,
        theoretical_phase_cap=cap,
        dense_state=state,
        graph=graph,
        trials=trials,
        delta=delta,
    )

