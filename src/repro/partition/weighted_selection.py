"""Theorem 4: the randomized partition for minor-free graphs.

Under a minor-free promise the arboricity of every auxiliary graph is
bounded by a constant, so the forest-decomposition verification step can
be dropped.  Instead of the heaviest out-edge of an orientation, every
auxiliary node draws an incident edge with probability proportional to
its weight, repeats ``s = Theta(log 1/delta)`` times, and keeps the
heaviest draw (the *weighted-edge selection*, paper Section 4).  Lemma 13
shows the selected pseudoforest retains a ``1/(16*alpha)`` weight
fraction with probability ``1 - delta``; Stage I's own merging code
(:func:`~repro.partition.dense.cole_vishkin_dense` and
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
from functools import partial
from typing import Optional

import networkx as nx

from ..congest.ledger import RoundLedger, TreeCostModel
from ..graphs.utils import adjacency_slots
from . import dense
from .stage1 import Stage1Result, partition_stage1, run_phases, theoretical_phase_cap


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
    early_stop: bool = True,
    seed: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    coloring: str = "cole-vishkin",
    coloring_rounds: Optional[int] = None,
) -> RandomizedPartitionResult:
    """Theorem 4 partition: ``O(poly(1/eps)(log 1/delta + log* n))`` rounds.

    Stage I's :func:`~repro.partition.stage1.run_phases` with the
    weighted selection in place of the forest decomposition: the
    selection draws from the seeded RNG in ``id_key`` order of the part
    roots, then the randomized coloring (if chosen) consumes conflicts in
    ascending-root order, phase by phase.

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
        early_stop / seed / ledger / cost_model: as Stage I.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if coloring not in ("cole-vishkin", "randomized"):
        raise ValueError(f"unknown coloring {coloring!r}")
    if coloring_rounds is not None and coloring_rounds < 1:
        raise ValueError(f"coloring_rounds must be >= 1, got {coloring_rounds}")
    m = adjacency_slots(graph) // 2  # the compile rejects self-loops
    if target_cut is None:
        target_cut = epsilon * graph.number_of_nodes()
    cap = theoretical_phase_cap(m, target_cut, alpha, slowdown=64)  # Claim 14
    if trials is None:
        trials = default_trials(delta, cap or 1)
    if coloring_rounds is None:
        coloring_rounds = int(math.ceil(math.log2(max(2.0, (cap or 1) / delta)))) + 2
    rng = random.Random(seed)
    ledger = ledger if ledger is not None else RoundLedger()
    model = cost_model or TreeCostModel()

    def select(aux, height):
        # Section 4.1: each of the s draws is one uniform-edge-selection
        # convergecast (+1 boundary round to learn neighboring roots).
        ledger.charge(
            trials * (model.convergecast(height) + 1) + 1,
            "randomized.selection",
            f"{trials} weighted draws over trees of height {height}",
        )
        return (*dense.weighted_selection_dense(aux, trials, rng), 0, None)

    def color(parent, seeds, height):
        # Sub-step 2a: CV or Remark 1's randomized coloring of F_i.
        if coloring == "cole-vishkin":
            return dense.cole_vishkin_dense(
                parent, seeds(), ledger, model, height, "randomized.coloring"
            )
        colors, _abstaining = dense.randomized_coloring_dense(
            parent, coloring_rounds, rng, ledger, model, height
        )
        return colors, coloring_rounds

    result = partial(RandomizedPartitionResult, trials=trials, delta=delta)
    return run_phases(
        graph,
        result,
        select,
        color,
        target_cut,
        cap,
        early_stop,
        ledger,
        model,
        retry_stalls=True,
    )


METHODS = ("deterministic", "randomized")
"""What :func:`partition_by_method` takes: Theorem 3's partition or Theorem 4's."""


def partition_by_method(
    graph: nx.Graph,
    epsilon: float,
    method: str = "deterministic",
    target_cut: Optional[float] = None,
    delta: float = 0.1,
    alpha: int = 3,
    seed: Optional[int] = None,
) -> Stage1Result:
    """The Theorem 3 (``"deterministic"``) or Theorem 4 (``"randomized"``)
    partition of *graph* with cut target *target_cut*; *delta* and *seed*
    serve the randomized one only."""
    if method == "deterministic":
        return partition_stage1(graph, epsilon, alpha=alpha, target_cut=target_cut)
    if method == "randomized":
        return partition_randomized(
            graph, epsilon, delta=delta, alpha=alpha, target_cut=target_cut, seed=seed
        )
    raise ValueError(f"unknown method {method!r}")
