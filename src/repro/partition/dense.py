"""The Stage I engine: the steps of the partition phase loop on flat arrays.

Stage I's phase loop (:func:`~repro.partition.stage1.run_phases`, which
Theorem 4's randomized partition shares) runs on the
:class:`~repro.congest.topology.CompiledTopology`'s dense-index arrays:

* the input graph is compiled once; undirected edges live in two numpy
  index arrays (``eu``, ``ev``) shared by every phase;
* the partition state is a numpy ``part_of`` vector, a numpy
  spanning-forest ``parent`` vector over dense indices and the sorted
  ``roots`` vector -- cut sizes and auxiliary weights come from
  vectorized sweeps (runs of one stable argsort of packed part pairs),
  and merges re-root by pointer reversal plus pointer jumping; no step
  calls ``unique``, ``intersect1d`` or ``lexsort``: selections are
  scatters and set tests boolean masks;
* the decision layer runs on compact part indices with the paper's
  exact rules, and one copy of it serves both theorems: Stage I's
  forest decomposition and heaviest-out-edge selection, or Theorem 4's
  weighted selection, each yield a compact ``(parent, weight)``
  pseudoforest that :func:`cole_vishkin_dense` colors and
  :func:`mark_and_choose_dense` marks.

Labels: dense indices are assigned in ``id_key`` order, so every
tie-break by index is the tie-break by ``id_key``; Cole-Vishkin seeds
from the original labels (:class:`RootSeeds`), and RNG streams are
consumed in ``id_key`` order.  Any hashable labels therefore give the
partitions, phase stats, ledgers and round counts of the dict-keyed
formulation.  ``tests/_stage1_reference.py`` keeps that formulation
(``AuxiliaryGraph``, ``mark_and_choose``, ``_color_pseudoforest`` and
the two phase loops) as the oracle that ``tests/test_partition_dense.py``
diffs against on every bundled family under int, str, mixed, negative,
large-int and tuple labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..congest.ledger import RoundLedger, TreeCostModel
from ..congest.programs.cole_vishkin import cv_schedule, cv_step_value
from ..congest.topology import CompiledTopology
from ..errors import PartitionError

_MAX_ID = 2**62  # int64 headroom for the vectorized CV bit tricks


class DenseAuxiliaryGraph:
    """Weighted contraction of a dense partition state, built vectorized.

    The primary representation is flat arrays over *compact* part
    indices ``0..k-1`` (``pids[c]`` maps back to the part's root dense
    index): one row per auxiliary edge with endpoints, weight, and the
    designated connector, plus a compact degree table.  The whole build
    is one masked sweep over the compiled CSR slots: a cut edge is the
    slot whose owner's part precedes its neighbor's, and one stable
    argsort of the packed part-pair keys groups those slots into runs,
    found by an adjacent difference.  A run's length is the aux edge's
    weight and its first slot -- slots come in oriented-edge order --
    the designated connector (the seed's exact min-id tie-break).

    Attributes:
        pids: compact index -> root dense index (an int64 array of the
            part roots, ascending).
        ea / eb: per aux edge, compact endpoint indices (``ea < eb`` in
            root order).
        weights: per aux edge, multiplicity (number of cut edges).
        conn_u / conn_v: per aux edge, the designated connector's dense
            node endpoints (``conn_u`` inside ``pids[ea]``'s part).
        degrees: compact degree table (distinct aux neighbors).
        cut: total cut weight (number of inter-part edges).
    """

    __slots__ = (
        "pids",
        "ea",
        "eb",
        "weights",
        "conn_u",
        "conn_v",
        "degrees",
        "cut",
        "_pair_keys",
        "_n",
    )

    def __init__(self, part_of, owner, neighbor, n: int, roots: "np.ndarray"):
        # Each cut edge once, oriented (node in lo-part, node in hi-part):
        # the CSR slots whose owner's part precedes the neighbor's, which
        # come in (owner, neighbor) order -- the connector order.
        po = part_of[owner]
        pn = part_of[neighbor]
        cut = np.flatnonzero(po < pn)
        self.cut = len(cut)
        pair_key = (po * n + pn)[cut]
        # Stable, so each pair's run opens with its smallest connector
        # (the seed's min-id tie-break); the run length is its weight.
        order = np.argsort(pair_key, kind="stable")
        pair_sorted = pair_key[order]
        run_start = np.empty(len(order), dtype=bool)
        run_start[:1] = True
        np.not_equal(pair_sorted[1:], pair_sorted[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        first = cut[order[starts]]

        k = len(roots)
        compact_of = np.full(n, -1, dtype=np.int64)
        compact_of[roots] = np.arange(k, dtype=np.int64)
        self.pids = roots
        self._n = n
        self._pair_keys = pair_sorted[starts]
        self.ea = compact_of[po[first]]
        self.eb = compact_of[pn[first]]
        self.weights = np.diff(starts, append=len(order))
        self.conn_u = owner[first]
        self.conn_v = neighbor[first]
        degrees = np.bincount(self.ea, minlength=k)
        self.degrees = degrees + np.bincount(self.eb, minlength=k)

    # -- array accessors ------------------------------------------------------

    @property
    def compact_count(self) -> int:
        """Number of auxiliary nodes (compact index range)."""
        return len(self.pids)

    def connectors(self, pa, pb) -> Tuple["np.ndarray", "np.ndarray"]:
        """Designated connectors of root pairs, oriented ``pa -> pb``.

        Vectorized over equal-length root vectors: one ``searchsorted``
        resolves every pair, then the endpoints swap wherever ``pa`` is
        the higher root (connectors are stored lo-part first).
        """
        pa = np.asarray(pa, dtype=np.int64)
        pb = np.asarray(pb, dtype=np.int64)
        flip = pa > pb
        keys = np.minimum(pa, pb) * self._n + np.maximum(pa, pb)
        pos = np.searchsorted(self._pair_keys, keys)
        cu = self.conn_u[pos]
        cv = self.conn_v[pos]
        return np.where(flip, cv, cu), np.where(flip, cu, cv)

    def edge_count(self) -> int:
        """Number of distinct auxiliary edges."""
        return len(self._pair_keys)


def forest_decomposition_dense(
    aux: DenseAuxiliaryGraph,
    alpha: int,
    n_graph: int,
    height: int,
    budget: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
) -> Tuple[bool, "np.ndarray", "np.ndarray", int]:
    """Vectorized Barenboim-Elkin deactivation on the aux edge arrays.

    The emulated process of paper Section 2.1.5 on the contracted graph:
    each super-round deactivates every active compact node of aux degree
    <= 3*alpha and decrements the degrees of its still-active neighbors
    with one masked scatter-add per endpoint side.  The ledger is
    charged ``super_round(height, alpha)`` rounds per budgeted
    super-round: the paper's fixed ``O(log n)`` schedule.

    Returns ``(success, active_mask, inactive_round, super_rounds)``
    with ``inactive_round`` holding the 1-based deactivation super-round
    (0 = never deactivated) per compact index and ``super_rounds`` the
    budget.
    """
    from ..congest.programs.forest_decomposition import (
        barenboim_elkin_round_budget,
    )

    if budget is None:
        budget = barenboim_elkin_round_budget(n_graph)
    threshold = 3 * alpha
    k = aux.compact_count
    ea, eb = aux.ea, aux.eb
    degrees = aux.degrees.copy()
    active = np.ones(k, dtype=bool)
    inactive_round = np.zeros(k, dtype=np.int64)
    for super_round in range(1, budget + 1):
        if not active.any():
            break
        deactivating = active & (degrees <= threshold)
        if not deactivating.any():
            # No node can ever deactivate again: the active subgraph has
            # min degree > 3*alpha, certifying arboricity > alpha.
            break
        inactive_round[deactivating] = super_round
        active &= ~deactivating
        da = deactivating[ea]
        db = deactivating[eb]
        np.add.at(degrees, eb[da & active[eb]], -1)
        np.add.at(degrees, ea[db & active[ea]], -1)

    if ledger is not None:
        model = cost_model or TreeCostModel()
        per_super_round = model.super_round(height, alpha)
        ledger.charge(
            budget * per_super_round,
            "stage1.forest_decomposition",
            f"{budget} super-rounds x {per_super_round} rounds "
            f"(height {height}, alpha {alpha})",
        )
    return (not bool(active.any()), active, inactive_round, budget)


def orient_dense(
    aux: DenseAuxiliaryGraph, inactive_round: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Orient every aux edge by deactivation time: ``(src, dst, weight)``.

    An edge points out of the endpoint that deactivated first (ties:
    the smaller compact index, i.e. ``id_key`` order); edges into
    never-deactivated endpoints point toward them, and edges between
    two never-deactivated endpoints are dropped (the process rejected).
    Out-degrees are at most ``3 * alpha`` and the orientation is acyclic.
    """
    ea, eb, w = aux.ea, aux.eb, aux.weights
    ra = inactive_round[ea]
    rb = inactive_round[eb]
    none_a = ra == 0
    none_b = rb == 0
    keep = ~(none_a & none_b)
    a_wins = keep & (
        none_b | (~none_a & ((ra < rb) | ((ra == rb) & (ea < eb))))
    )
    b_wins = keep & ~a_wins
    src = np.concatenate((ea[a_wins], eb[b_wins]))
    dst = np.concatenate((eb[a_wins], ea[b_wins]))
    ww = np.concatenate((w[a_wins], w[b_wins]))
    return src, dst, ww


def orient_and_select_dense(
    aux: DenseAuxiliaryGraph, inactive_round: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Merging sub-step 1: each part's heaviest out-edge (ties: smallest target).

    Orients with :func:`orient_dense`, then a scatter-max of the weights
    and a scatter-min of the targets among the heaviest edges pick each
    compact node's out-edge.  Returns ``(parent, weight)`` over compact
    indices (-1 / 0 where a node has no out-edge; aux weights are
    positive).  The orientation is acyclic, so the selection is a forest.
    """
    k = aux.compact_count
    src, dst, ww = orient_dense(aux, inactive_round)
    weight = np.zeros(k, dtype=np.int64)
    np.maximum.at(weight, src, ww)
    heaviest = ww == weight[src]
    parent = np.full(k, k, dtype=np.int64)
    np.minimum.at(parent, src[heaviest], dst[heaviest])
    parent[parent == k] = -1
    return parent, weight


def weighted_selection_dense(
    aux: DenseAuxiliaryGraph,
    trials: int,
    rng,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Vectorized Theorem 4 weighted-edge selection on the aux arrays.

    Every part draws ``trials`` incident aux edges with probability
    proportional to weight and keeps the heaviest draw (paper
    Section 4).  One CSR sweep plus a batched ``searchsorted`` replaces
    a per-draw ``rng.choices`` (which rebuilds its cumulative-weight
    list on *every* trial, ``O(trials * degree)`` Python work per part).

    **The RNG stream is consumed as by ``rng.choices``**: one
    ``rng.random()`` per (part, trial) in ascending part order --
    compact order equals ``id_key`` order of the roots, so pre-drawing
    the same count in row-major order yields the exact floats.  Each
    draw then replicates ``random.choices``'s selection arithmetic bit
    for bit:
    ``index = bisect_right(cum_weights, r * total, 0, degree - 1)``
    with the multiplication performed in float64 exactly as CPython
    does.  The global ``searchsorted`` adds the segment base in float64
    (one possible ulp of error), so a two-step exact correction against
    the integer segment-local cumulative weights pins every index to
    the bisect result before use.  Best-of-draws keeps the heaviest
    edge with ties to the smallest neighbor id -- the same fold the
    sequential loop computes.

    When both endpoints select the same edge it becomes the out-edge of
    the smaller root, keeping out-degree <= 1.  Returns ``(parent,
    weight)`` over compact indices (-1 / 0 where a part has no
    out-edge), as :func:`orient_and_select_dense` does, so the selected
    pseudoforest feeds the same :func:`cole_vishkin_dense` and
    :func:`mark_and_choose_dense` as Stage I's forest.
    """
    k = aux.compact_count
    ea, eb, w = aux.ea, aux.eb, aux.weights
    # Symmetric CSR over compact indices, neighbors ascending (= id_key
    # order of the roots).  Aux edges come sorted by (ea, eb) with
    # ea < eb, so with the eb -> ea half first a stable sort by source
    # lists each row's lower neighbors, ascending, then its higher ones.
    src = np.concatenate((eb, ea))
    dst = np.concatenate((ea, eb))
    ww = np.concatenate((w, w))
    order = np.argsort(src, kind="stable")
    src_s = src[order]
    dst_s = dst[order]
    w_s = ww[order]
    counts = np.bincount(src_s, minlength=k)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    cum = np.cumsum(w_s, dtype=np.int64)
    cum0 = np.concatenate((np.zeros(1, dtype=np.int64), cum))
    base = cum0[indptr[:-1]]  # total weight before each segment
    totals = (cum0[indptr[1:]] - base).astype(np.float64)

    active = np.nonzero(counts > 0)[0]
    parent = np.full(k, -1, dtype=np.int64)
    weight = np.zeros(k, dtype=np.int64)
    if len(active) and trials > 0:
        # One rng.random() per (active part, trial), part-major: the
        # exact draws the sequential loop would consume.
        flat = np.array(
            [rng.random() for _ in range(len(active) * trials)],
            dtype=np.float64,
        ).reshape(len(active), trials)
        x = flat * totals[active][:, None]  # CPython: random() * total
        seg_start = indptr[active]
        seg_len = counts[active]
        queries = (base[active].astype(np.float64)[:, None] + x).ravel()
        approx = np.searchsorted(cum, queries, side="right").reshape(
            len(active), trials
        )
        local = approx - seg_start[:, None]
        hi = (seg_len - 1)[:, None]
        local = np.clip(local, 0, hi)
        # Exact off-by-one correction: the float base addition can be a
        # ulp off, never more (cumulative weights are distinct ints).
        flat_local = local + seg_start[:, None]
        lower = cum0[flat_local]  # cum before the candidate slot
        down = (local > 0) & (lower - base[active][:, None] > x)
        local -= down
        flat_local = local + seg_start[:, None]
        upper = cum0[flat_local + 1]
        up = (local < hi) & (upper - base[active][:, None] <= x)
        local += up
        flat_local = (local + seg_start[:, None]).ravel()
        cand = dst_s[flat_local].reshape(len(active), trials)
        cand_w = w_s[flat_local].reshape(len(active), trials)
        best_w = cand_w.max(axis=1)
        # Ties to the smallest neighbor id (compact order = id order).
        parent[active] = np.where(cand_w == best_w[:, None], cand, k).min(axis=1)
        weight[active] = best_w

    # Resolve double selections: a mutually drawn edge stays the
    # out-edge of the smaller root; the larger root loses its out-edge.
    own = np.arange(k, dtype=np.int64)
    drawn = parent >= 0
    mutual = drawn & (parent < own) & (parent[np.where(drawn, parent, 0)] == own)
    parent[mutual] = -1
    weight[mutual] = 0
    return parent, weight


class RootSeeds:
    """Cole-Vishkin start colors of part roots, by the CONGEST default rule.

    A root is seeded with its label when every current root label is an
    ``int >= 0`` (bools included) and with its rank in ``repr`` order
    otherwise, so any hashable labels give distinct non-negative seeds.
    Called with the current roots' dense indices (an int64 array), this
    returns the seeds as Python ints; the per-node label test runs once,
    here.
    """

    def __init__(self, ids: Sequence):
        self.ids = ids
        self.labelled = np.fromiter(
            (isinstance(v, int) and v >= 0 for v in ids), dtype=bool, count=len(ids)
        )
        self._repr_rank = None

    def __call__(self, pids: "np.ndarray") -> List[int]:
        ids = self.ids
        if self.labelled[pids].all():
            return [ids[p] for p in pids.tolist()]
        if self._repr_rank is None:
            order = sorted(range(len(ids)), key=lambda i: repr(ids[i]))
            self._repr_rank = np.empty(len(ids), dtype=np.int64)
            self._repr_rank[order] = np.arange(len(ids))
        order = np.argsort(self._repr_rank[pids])
        ranks = np.empty(len(pids), dtype=np.int64)
        ranks[order] = np.arange(len(pids))
        return ranks.tolist()


def cole_vishkin_dense(
    parent: "np.ndarray",
    init_colors: Sequence[int],
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    height: int = 0,
    category: str = "stage1.coloring",
) -> Tuple["np.ndarray", int]:
    """Sub-step 2a: vectorized Cole-Vishkin 3-coloring of a compact
    pseudoforest, charged to *ledger* under *category*.

    *parent* holds compact parent indices (-1 at roots) and
    *init_colors* distinct non-negative ints of any size, one per node
    (Stage I passes the roots' :class:`RootSeeds`).
    Every phase of :func:`cv_schedule` applies the update rules of the
    simulated protocol (:mod:`repro.congest.programs.cole_vishkin`).
    int64 bit tricks need colors below ``2**62``; larger seeds run the
    schedule's first ``cv`` phase on Python ints with
    :func:`cv_step_value`, which leaves every color below twice the
    largest seed's bit length, and the rest on int64.  The ledger is
    charged ``len(schedule)`` super-rounds of
    ``aux_message_relay(height)`` rounds each.
    """
    k = len(parent)
    roots = parent < 0
    safe_parent = np.where(roots, np.arange(k, dtype=np.int64), parent)
    nonroot = ~roots
    one = np.int64(1)

    top = int(max(init_colors, default=1))
    schedule = cv_schedule(top)
    if top >= _MAX_ID:
        seeds = [int(c) for c in init_colors]
        colors = np.array(
            [
                cv_step_value(c, c ^ 1 if p < 0 else seeds[p])
                for c, p in zip(seeds, parent.tolist())
            ],
            dtype=np.int64,
        )
        phases = schedule[1:]  # every schedule opens with a "cv" phase
    else:
        colors = np.array(init_colors, dtype=np.int64)
        phases = schedule
    for phase in phases:
        pc = colors[safe_parent]
        if phase == "cv":
            own = colors
            effective = np.where(roots, own ^ 1, pc)
            diff = own ^ effective
            low = diff & -diff
            # low is a single set bit, exactly representable in float64,
            # so log2 recovers the bit index without rounding.
            index = np.log2(low.astype(np.float64)).astype(np.int64)
            colors = 2 * index + ((own >> index) & 1)
        elif phase == "shift":
            colors = np.where(roots, np.where(colors != 0, 0, 1), pc)
        else:  # elim{target}
            target = int(phase[4:])
            forbidden = np.zeros(k, dtype=np.int64)
            np.bitwise_or.at(
                forbidden, parent[nonroot], one << colors[nonroot]
            )
            forbidden |= np.where(nonroot, one << pc, 0)
            choice = np.where(
                forbidden & 1 == 0, 0, np.where(forbidden & 2 == 0, 1, 2)
            )
            colors = np.where(colors == target, choice, colors)

    if bool((nonroot & (colors == colors[safe_parent])).any()):
        raise PartitionError("CV produced an improper coloring")
    if bool(((colors < 0) | (colors > 2)).any()):
        raise PartitionError("CV left colors outside {0,1,2}")
    if ledger is not None:
        model = cost_model or TreeCostModel()
        per_round = model.aux_message_relay(height)
        ledger.charge(
            len(schedule) * per_round,
            category,
            f"{len(schedule)} CV super-rounds x {per_round} rounds "
            f"(height {height})",
        )
    return colors, len(schedule)


def randomized_coloring_dense(
    parent: "np.ndarray",
    rounds: int,
    rng,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    height: int = 0,
    category: str = "randomized.coloring",
) -> Tuple["np.ndarray", int]:
    """Remark 1: constant-round randomized 3-coloring with abstention.

    Every node of the compact pseudoforest *parent* (-1 at roots) draws
    ``rng.randrange(3)`` in ascending index order; for up to *rounds*
    super-rounds, the nodes whose color equals their parent's redraw,
    again in ascending order.  Each conflicted node resolves with
    probability 2/3 per round, so after ``r`` rounds the expected
    conflict fraction is ``3^-r``.  A node still conflicted after the
    budget **abstains** (color -1) unless its parent already has: the
    abstentions are decided in one ascending pass, so a child whose
    parent abstained keeps its color.  The marking step ignores
    abstainers, which can only reduce the contracted weight --
    correctness (Claim 15) holds unconditionally, and only the per-phase
    decay degrades with the (exponentially small) abstention rate.  This
    removes the ``log* n`` of Cole-Vishkin for constant success
    probability, realizing the paper's Remark 1 trade-off.

    Returns (colors with -1 for abstainers, number of abstaining nodes).
    """
    if rounds < 1:
        raise PartitionError("randomized coloring needs at least one round")
    k = len(parent)
    nonroot = parent >= 0
    safe_parent = np.where(nonroot, parent, np.arange(k, dtype=np.int64))
    colors = np.array([rng.randrange(3) for _ in range(k)], dtype=np.int64)
    for _ in range(rounds):
        conflicted = np.flatnonzero(nonroot & (colors == colors[safe_parent]))
        if not len(conflicted):
            break
        colors[conflicted] = [rng.randrange(3) for _ in range(len(conflicted))]
    abstaining = 0
    for v in np.flatnonzero(nonroot & (colors == colors[safe_parent])).tolist():
        if colors[parent[v]] >= 0:  # -1: its parent abstained earlier in the pass
            colors[v] = -1
            abstaining += 1
    if ledger is not None:
        model = cost_model or TreeCostModel()
        per_round = model.aux_message_relay(height)
        ledger.charge(
            rounds * per_round,
            category,
            f"{rounds} randomized-coloring super-rounds x {per_round} rounds "
            f"(height {height}); {abstaining} abstentions",
        )
    return colors, abstaining


@dataclass
class MarkingResult:
    """Outcome of the marking + contraction choice, over compact indices.

    Attributes:
        marked_idx: the nodes whose out-edge is marked, as an int64 array
            (ascending); the edges' heads are ``parent[marked_idx]``.
        contract_children / contract_centers: the star edges chosen for
            contraction, as two int64 arrays (child ascending).
        tree_heights: height of each marked subtree, keyed by its root.
        marked_weight: total weight of marked edges, w(T_i).
        contracted_weight: total weight of contracted edges.
    """

    marked_idx: "np.ndarray"
    contract_children: "np.ndarray"
    contract_centers: "np.ndarray"
    tree_heights: Dict[int, int]
    marked_weight: int
    contracted_weight: int


def mark_and_choose_dense(
    parent: "np.ndarray",
    weight: "np.ndarray",
    colors: "np.ndarray",
) -> MarkingResult:
    """CHW marking + parity choice on a compact pseudoforest (sub-steps 2b-4).

    The one implementation of the marking rules (paper Section 2.1.2,
    after Czygrinow, Hanckowiak & Wawrzyniak), serving Stage I's
    heaviest-out-edge forests and Theorem 4's selected pseudoforests
    alike: *parent* is the selected out-edge per compact node (-1 if
    none), *weight* the weight of that edge, *colors* a proper
    {0,1,2}-coloring (the paper's classes {1,2,3}).  The rules select
    shallow subtrees (Claim 1: height at most 10, at least a third of
    the forest's weight); each tree's root then contracts the heavier
    of its even/odd edge classes, producing vertex-disjoint stars.
    Claim 15 -- the marked subgraph is a forest even when *parent* has
    directed cycles -- is asserted here.

    Color -1 marks a node that abstained from Remark 1's randomized
    coloring: it makes no decisions, it never counts toward a parent's
    incoming weight, its out-edge is never marked, and no color-0 node
    marks its edge into it.  The marked graph is then that of the
    properly colored subgraph, so Claim 15 applies unchanged.
    Cole-Vishkin never abstains.

    Every step is a scatter or a mask over the compact range.  Edges
    come back in ascending child order: the marked ones as their
    children, the contracted ones as the two index arrays that
    :meth:`DensePartitionState.merge` takes.
    """
    k = len(parent)
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    edge_weight = np.where(has_parent, weight, 0)
    parent_color = colors[safe_parent]
    # Children that take part in their parent's decision.
    counted = has_parent & (colors >= 0)

    # Incoming weight sums (participating / color-3 children only).
    w_in = np.zeros(k, dtype=np.int64)
    np.add.at(w_in, parent[counted], edge_weight[counted])
    child_is3 = has_parent & (colors == 2)
    w_in3 = np.zeros(k, dtype=np.int64)
    np.add.at(w_in3, parent[child_is3], edge_weight[child_is3])

    # Per-node "mark my out-edge" decisions (sub-step 2b).
    up1 = (colors == 0) & has_parent & (parent_color >= 0) & (edge_weight >= w_in)
    up2 = has_parent & (colors == 1) & (parent_color == 2) & (edge_weight >= w_in3)
    down1 = counted & (parent_color == 0) & ~up1[safe_parent]
    down2 = child_is3 & (parent_color == 1) & ~up2[safe_parent]
    marked = up1 | up2 | down1 | down2

    marked_idx = np.nonzero(marked)[0]
    heads = parent[marked_idx]
    marked_weights = edge_weight[marked_idx]

    # Parity choice (sub-steps 3-4), per marked tree: every node's tree
    # root (its first unmarked ancestor) and level below that root.
    root, level = pointer_jump(np.where(marked, parent, -1))
    tree_root = root[marked_idx]
    if marked[tree_root].any():
        # Some marked chain never reaches an unmarked node.
        raise PartitionError("marked subgraph contains a cycle (Claim 15)")
    tree_level = level[marked_idx]
    tallest = np.zeros(k, dtype=np.int64)
    np.maximum.at(tallest, tree_root, tree_level)
    # Marked nodes sit at level >= 1, so exactly the tree roots have a
    # positive height.
    roots = np.flatnonzero(tallest)
    tree_heights = dict(zip(roots.tolist(), tallest[roots].tolist()))

    parity = tree_level % 2
    parity_weight = np.zeros((k, 2), dtype=np.int64)
    np.add.at(parity_weight, (tree_root, parity), marked_weights)
    # Each tree keeps its heavier class; ties go to the even levels.
    odd_heavier = parity_weight[:, 1] > parity_weight[:, 0]
    chosen = parity == odd_heavier[tree_root]
    children = marked_idx[chosen]
    centers = heads[chosen]

    is_child = np.zeros(k, dtype=bool)
    is_child[children] = True
    chained = np.flatnonzero(is_child & (np.bincount(centers, minlength=k) > 0))
    if len(chained):
        raise PartitionError(
            "contraction edges do not form stars; chained nodes: "
            f"{set(chained.tolist())!r}"
        )
    return MarkingResult(
        marked_idx=marked_idx,
        contract_children=children,
        contract_centers=centers,
        tree_heights=tree_heights,
        marked_weight=int(marked_weights.sum()),
        contracted_weight=int(marked_weights[chosen].sum()),
    )


class DensePartitionState:
    """Flat-array partition bookkeeping over dense node indices.

    The spanning forest is the ``parent`` vector alone: a rooted tree's
    parent table is unique, so merges re-root by reversing parent
    pointers along one path per absorbed part and recover depths by
    pointer jumping -- no per-node adjacency lists are kept.

    Attributes:
        topology: the compiled topology (dense ids, CSR, edge arrays).
        part_of: numpy vector mapping dense index -> root dense index.
        parent: int64 vector, spanning-tree parent per dense index (-1
            at roots).
        roots: int64 vector of the part roots, ascending.
        heights: root index -> spanning-tree height (ascending roots).
        sizes: root index -> part size (ascending roots).
    """

    def __init__(self, topology: CompiledTopology):
        n = topology.n
        self.topology = topology
        self.eu, self.ev = topology.edge_arrays()
        self.part_of = np.arange(n, dtype=np.int64)
        self.parent = np.full(n, -1, dtype=np.int64)
        self.roots = np.arange(n, dtype=np.int64)
        self.heights: Dict[int, int] = dict.fromkeys(range(n), 0)
        self.sizes: Dict[int, int] = dict.fromkeys(range(n), 1)

    @property
    def size(self) -> int:
        """Number of parts."""
        return len(self.heights)

    def max_height(self) -> int:
        return max(self.heights.values(), default=0)

    def cut_size(self) -> int:
        part_of = self.part_of
        return int((part_of[self.eu] != part_of[self.ev]).sum())

    def build_aux(self) -> DenseAuxiliaryGraph:
        csr = self.topology.batch_arrays()
        return DenseAuxiliaryGraph(
            self.part_of, csr.row_owner, csr.indices, self.topology.n, self.roots
        )

    def merge(
        self,
        children: "np.ndarray",
        centers: "np.ndarray",
        aux: DenseAuxiliaryGraph,
    ) -> None:
        """Contract star edges ``children[i] -> centers[i]`` (root dense
        indices, two int64 arrays) in place.

        Merging sub-step 4 (paper Section 2.1.6): each child's tree is
        glued to its center through the designated connector ``(u, v)``
        and the merged part is re-rooted at the center.
        Parent pointers and heights of a rooted tree are unique
        regardless of traversal order, so reversing the pointers on the
        path from ``u`` to the child's old root and setting
        ``parent[u] = v`` gives exactly the tables a BFS re-root would.
        Depths then come from pointer jumping over the whole forest,
        which also certifies it: every node must reach its part's root.
        A repeated child, or a child that is also a center, raises.
        """
        n = self.topology.n
        absorbed = np.zeros(n, dtype=bool)
        absorbed[children] = True
        if np.count_nonzero(absorbed) < len(children):
            seen: set = set()
            twice = next(c for c in children.tolist() if c in seen or seen.add(c))
            raise PartitionError(f"part {twice!r} contracted twice")
        chained = centers[absorbed[centers]].tolist()
        if chained:
            raise PartitionError(f"contraction is not star-shaped at {set(chained)!r}")
        if not len(children):
            return

        root_map = np.arange(n, dtype=np.int64)
        root_map[children] = centers
        self.part_of = part_of = root_map[self.part_of]

        # Mark each path from ``u`` up to its old root by doubling: one
        # sweep adds every mark's 2**j-th ancestor.  The paths lie in
        # distinct absorbed parts, so each marked non-root node is the one
        # marked child of its parent, and the reversal is one scatter.
        parent = self.parent
        conn_u, conn_v = aux.connectors(children, centers)
        on_path = np.zeros(n, dtype=bool)
        on_path[conn_u] = True
        ancestor = np.where(parent < 0, np.arange(n, dtype=np.int64), parent)
        for _ in range(n.bit_length() + 1):
            on_path[ancestor[on_path]] = True
            above = ancestor[ancestor]
            if np.array_equal(above, ancestor):
                break
            ancestor = above
        else:
            raise PartitionError("spanning forest contains a cycle")
        below = np.flatnonzero(on_path & (parent >= 0))
        self.parent = parent = parent.copy()
        parent[parent[below]] = below
        parent[conn_u] = conn_v

        depth = forest_depths(self.parent, part_of)
        self._measure(depth, self.roots[~absorbed[self.roots]])

    def _measure(self, depth: "np.ndarray", roots: "np.ndarray") -> None:
        """Set ``roots``, ``heights`` and ``sizes`` from the parts rooted
        at *roots* (ascending)."""
        n = self.topology.n
        self.roots = roots
        tallest = np.zeros(n, dtype=np.int64)
        np.maximum.at(tallest, self.part_of, depth)
        counts = np.bincount(self.part_of, minlength=n)
        self.heights = dict(zip(roots.tolist(), tallest[roots].tolist()))
        self.sizes = dict(zip(roots.tolist(), counts[roots].tolist()))

    def max_diameter(self, graph: nx.Graph) -> int:
        """Largest part diameter in *graph*, the graph this partition was
        built on, by :func:`~repro.graphs.utils.diameter`'s rule: parts up
        to ``EXACT_DIAMETER_NODES`` nodes are exact, by one batched BFS
        over the part's intra-part CSR; larger parts take the double sweep
        on their ``graph.subgraph`` view, the node set built in ascending
        dense-index order."""
        from ..applications.dense import adjacency_csr, multi_source_distances
        from ..graphs.utils import EXACT_DIAMETER_NODES, diameter

        part_of = self.part_of
        order = np.argsort(part_of, kind="stable")
        position = np.argsort(order)  # node -> its slot in part order
        intra = part_of[self.eu] == part_of[self.ev]
        pu, pv = position[self.eu[intra]], position[self.ev[intra]]
        by_u = np.argsort(pu, kind="stable")
        pu, pv = pu[by_u], pv[by_u]
        ids = self.topology.nodes

        best = start = 0  # the part spans part-order slots [start, start + size)
        for size in self.sizes.values():
            if size > EXACT_DIAMETER_NODES:
                nodes = frozenset(ids[i] for i in order[start : start + size].tolist())
                best = max(best, diameter(graph.subgraph(nodes)))
            elif size > 1:
                a, b = np.searchsorted(pu, [start, start + size]).tolist()
                csr = adjacency_csr(size, pu[a:b] - start, pv[a:b] - start)
                dist = multi_source_distances(*csr, np.arange(size), size)
                best = max(best, int(dist.max()))
            start += size
        return best

    @classmethod
    def from_forest(cls, topology: CompiledTopology, parent) -> "DensePartitionState":
        """The partition into the trees of the forest *parent* (a dense
        index per node, -1 at roots), by pointer jumping."""
        state = cls(topology)
        parent = np.asarray(parent, dtype=np.int64)
        root, depth = pointer_jump(parent)
        if (parent[root] >= 0).any():
            raise PartitionError("spanning forest contains a cycle")
        state.part_of, state.parent = root, parent
        state._measure(depth, np.nonzero(parent < 0)[0])
        return state


def pointer_jump(parent: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """``(root, depth)`` of every node of the forest *parent* (-1 at roots).

    ``ceil(log2(n)) + 1`` doublings reach every root of an acyclic
    forest; a node on or below a cycle comes back with a ``root`` that
    still has a parent.
    """
    n = len(parent)
    is_root = parent < 0
    ancestor = np.where(is_root, np.arange(n, dtype=np.int64), parent)
    depth = (~is_root).astype(np.int64)
    for _ in range(n.bit_length() + 1):
        above = ancestor[ancestor]
        if np.array_equal(above, ancestor):
            break
        depth += depth[ancestor]
        ancestor = above
    return ancestor, depth


def forest_depths(parent: "np.ndarray", part_of: "np.ndarray") -> "np.ndarray":
    """Depth of every node in the spanning forest *parent*, by pointer jumping.

    Raises :class:`PartitionError` when the jumps do not converge (a
    cycle) or some node's root is not its part's root (the part's
    spanning tree does not reach it).
    """
    ancestor, depth = pointer_jump(parent)
    if (parent[ancestor] >= 0).any():
        raise PartitionError("spanning forest contains a cycle")
    stray = ancestor != part_of
    if stray.any():
        part = int(part_of[np.argmax(stray)])
        missing = int((stray & (part_of == part)).sum())
        raise PartitionError(
            f"spanning tree of part rooted at {part!r} does not reach "
            f"{missing} nodes"
        )
    return depth
