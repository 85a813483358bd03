"""Stage I: the deterministic partition algorithm (paper Section 2.1).

Repeatedly contracts the partition through phases of forest decomposition
(on the auxiliary graph) + CHW merging until the number of inter-part
edges drops below the target (``epsilon * m / 2`` for the planarity
tester; ``epsilon * n`` for the Theorem 3 partition).  Claims reproduced:

* Claim 1 / Claim 3: each phase multiplies the cut weight by at most
  ``1 - 1/(12*alpha)`` (we assert the provable ``1 - 1/(36*alpha)``),
  so ``O(log 1/epsilon)`` phases suffice; on planar (arboricity <= 3)
  graphs the forest decomposition never rejects.
* Claim 4: part diameters grow at most geometrically (<= 4^i); we track
  spanning-tree heights exactly.
* Lemma 6: parts keep rooted spanning trees; maintained by construction
  and checked against the dict oracle's Lemma 6 validation in tests.

Termination: the default mode stops as soon as the cut target is met
(ARCHITECTURE.md, "Paper substitutions", item 2 -- a fixed-schedule
CONGEST execution would run the a-priori phase cap; we report both).

One phase loop, :func:`run_phases`, serves Stage I and Theorem 4's
randomized partition (:mod:`repro.partition.weighted_selection`) alike;
the two differ only in the pseudoforest they select and how they color it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

import networkx as nx

from ..congest import topology as congest_topology
from ..congest.ledger import RoundLedger, TreeCostModel
from ..errors import PartitionError
from ..graphs.utils import adjacency_slots
from ..telemetry import get_tracer
from . import dense


@dataclass
class PhaseStats:
    """Measurements of one Stage I phase (benchmark E7/E8 inputs)."""

    phase: int
    parts_before: int
    parts_after: int
    cut_before: int
    cut_after: int
    max_height_before: int
    max_height_after: int
    fd_super_rounds: int
    cv_super_rounds: int
    max_marked_tree_height: int
    marked_weight: int
    contracted_weight: int

    @property
    def decay(self) -> float:
        """Cut-weight decay factor achieved by this phase."""
        if self.cut_before == 0:
            return 1.0
        return self.cut_after / self.cut_before


@dataclass
class Stage1Result:
    """Outcome of Stage I.

    Attributes:
        success: False when some part obtained evidence of arboricity
            > alpha (the graph is certainly not planar).
        rejecting_parts: root ids holding the rejection evidence.
        phases: per-phase statistics.
        ledger: round-cost accounting for the whole stage.
        target_cut: the cut-size target that was used.
        theoretical_phase_cap: the a-priori phase bound t.
        partition: the final partition (or the partition at rejection), a
            :class:`~repro.partition.dense.DensePartitionState` (``None``
            for the empty graph).
    """

    success: bool
    rejecting_parts: Tuple[Any, ...]
    phases: List[PhaseStats]
    ledger: RoundLedger
    target_cut: float
    theoretical_phase_cap: int
    partition: Optional[dense.DensePartitionState] = None

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds charged for Stage I."""
        return self.ledger.total

    @property
    def final_cut(self) -> int:
        """Number of inter-part edges in the final partition."""
        if self.phases:
            return self.phases[-1].cut_after
        return self.partition.cut_size() if self.partition is not None else 0


def theoretical_phase_cap(
    m: int, target_cut: float, alpha: int, slowdown: int = 36
) -> int:
    """A-priori number of phases t with m * decay^t <= target.

    Uses the conservative provable per-phase decay ``1 - 1/(36*alpha)``
    (heaviest-out-edge selection keeps >= 1/(3*alpha) of the weight, the
    marking keeps >= 1/3 of that, the parity choice >= 1/2); Theorem 4
    passes its own *slowdown*.
    """
    if m == 0 or target_cut >= m:
        return 0
    decay = 1.0 - 1.0 / (slowdown * alpha)
    return int(math.ceil(math.log(max(target_cut, 0.5) / m) / math.log(decay)))


def _charge_merging_overhead(
    ledger: RoundLedger,
    model: TreeCostModel,
    height: int,
    marking: dense.MarkingResult,
) -> None:
    """Rounds for sub-steps 1, 2b, 3 and 4 (all but the CV coloring).

    Per Section 2.1.6: the heaviest-out-edge designation is a broadcast +
    convergecast over part trees; the marking decision needs per-color
    incoming weight sums (one convergecast carrying <= 3 values); the
    parity decision walks each marked tree (height <= 10) with one
    auxiliary hop per level, twice (levels down, weights up); the
    contraction notification is one broadcast + path flip.
    """
    relay = model.aux_message_relay(height)
    ledger.charge(2 * relay, "stage1.merge.designate", "sub-step 1: pick u_i^j")
    ledger.charge(
        model.convergecast(height, messages=3) + model.broadcast(height),
        "stage1.merge.marking",
        "sub-step 2b: per-color incoming weight sums",
    )
    tree_h = max(marking.tree_heights.values(), default=0)
    ledger.charge(
        (2 * tree_h + 2) * relay,
        "stage1.merge.parity",
        f"sub-step 3: levels+weights over marked trees (height {tree_h})",
    )
    ledger.charge(2 * relay, "stage1.merge.contract", "sub-step 4: re-root")


def run_phases(
    graph: nx.Graph,
    make_result: Callable[..., Stage1Result],
    select: Callable,
    color: Callable,
    target_cut: float,
    cap: int,
    early_stop: bool,
    ledger: RoundLedger,
    model: TreeCostModel,
    retry_stalls: bool = False,
) -> Stage1Result:
    """The phase loop of both theorems, on the dense state (module doc).

    A phase builds the auxiliary graph, selects a compact pseudoforest on
    it with ``select(aux, height) -> (parent, weight, rounds, stuck)``,
    colors it with ``color(parent, seeds, height) -> (colors, rounds)``
    (``seeds()`` gives the roots' Cole-Vishkin start colors), marks and
    chooses (CHW) and merges.  A *stuck* mask ends the loop: those parts
    hold the evidence of arboricity > alpha.  With *retry_stalls* a
    phase that contracts nothing (Remark 1's abstentions) is retried
    instead of raising.
    """
    phases: List[PhaseStats] = []
    result = partial(
        make_result,
        phases=phases,
        ledger=ledger,
        target_cut=target_cut,
        theoretical_phase_cap=cap,
    )
    if not graph.number_of_nodes():
        return result(success=True, rejecting_parts=())
    # Looked up at call time, so wrappers installed on these module
    # attributes see every call.
    topology = congest_topology.compile_topology(graph)
    ids = topology.nodes
    state = dense.DensePartitionState(topology)
    root_seeds = dense.RootSeeds(topology)
    rejecting: Tuple[Any, ...] = ()
    cut = topology.m
    tracer = get_tracer()

    for phase_index in range(1, cap + 1):
        if cut == 0 or (early_stop and cut <= target_cut):
            break
        with tracer.span("stage1.aux_build", phase=phase_index, parts=state.size):
            aux = state.build_aux()
        height = state.max_height()
        pids = aux.pids
        with tracer.span("stage1.select", phase=phase_index, edges=aux.edge_count()):
            parent_c, weight_c, select_rounds, stuck = select(aux, height)
        if stuck is not None:
            # Compact order is root order, i.e. id_key order.
            rejecting = tuple(ids[p] for p in pids[stuck].tolist())
            break
        with tracer.span("stage1.color", phase=phase_index):
            colors, color_rounds = color(parent_c, lambda: root_seeds(pids), height)
        with tracer.span("stage1.marking", phase=phase_index):
            marking = dense.mark_and_choose_dense(parent_c, weight_c, colors)
            _charge_merging_overhead(ledger, model, height, marking)
            parts_before = state.size
            children = marking.contract_children
            state.merge(pids[children], pids[marking.contract_centers], aux)
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
                fd_super_rounds=select_rounds,
                cv_super_rounds=color_rounds,
                max_marked_tree_height=max(marking.tree_heights.values(), default=0),
                marked_weight=marking.marked_weight,
                contracted_weight=marking.contracted_weight,
            )
        )
        # Every marked tree contracts its heavier parity class, which has
        # positive weight: only a phase whose decisions all abstained
        # contracts nothing.
        if new_cut >= cut and (len(children) or not retry_stalls):
            raise PartitionError(
                f"phase {phase_index} made no progress (cut {cut} -> {new_cut})"
            )
        cut = new_cut
    return result(success=not rejecting, rejecting_parts=rejecting, partition=state)


def partition_stage1(
    graph: nx.Graph,
    epsilon: float,
    alpha: int = 3,
    target_cut: Optional[float] = None,
    early_stop: bool = True,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
) -> Stage1Result:
    """Run Stage I on *graph*: forest decomposition and heaviest out-edges,
    Cole-Vishkin coloring.

    Args:
        graph: simple undirected graph.
        epsilon: distance parameter; the default cut target is
            ``epsilon * m / 2`` per Claim 3.
        alpha: arboricity bound to verify (3 = planar).
        target_cut: override the cut target (Theorem 3 uses
            ``epsilon * n``).
        early_stop: stop as soon as the target is met (see module doc).
        ledger: optional shared ledger (a fresh one is made otherwise).
        cost_model: emulation cost formulas.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    m = adjacency_slots(graph) // 2  # the compile rejects self-loops
    if target_cut is None:
        target_cut = epsilon * m / 2
    ledger = ledger if ledger is not None else RoundLedger()
    model = cost_model or TreeCostModel()

    def select(aux, height):
        found, active, inactive_round, rounds = dense.forest_decomposition_dense(
            aux, alpha, len(graph), height, ledger=ledger, cost_model=model
        )
        if not found:
            return None, None, rounds, active
        return (*dense.orient_and_select_dense(aux, inactive_round), rounds, None)

    def color(parent, seeds, height):
        return dense.cole_vishkin_dense(parent, seeds(), ledger, model, height)

    cap = theoretical_phase_cap(m, target_cut, alpha)
    return run_phases(
        graph, Stage1Result, select, color, target_cut, cap, early_stop, ledger, model
    )
