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

At small n a phase is priced by its count of array operations, so rules
over small values are gathers from tables built at import: Cole-Vishkin
steps on colors below 128 (after one step, two for seeds >= 2**62) read
a 128 x 128 table; an ``elim`` step follows a ``shift``, after which a
node's children all hold its pre-shift color, so it reads (own,
parent's, pre-shift or none) from a 7 x 7 x 7 table.  A phase runs three
pointer-jumping sweeps (marked forest, paths to reverse, merged forest),
each testing convergence by one count per doubling.

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
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..congest.ledger import RoundLedger, TreeCostModel
from ..congest.programs.cole_vishkin import cv_schedule, cv_step_value
from ..congest.topology import CompiledTopology
from ..errors import PartitionError

_MAX_ID = 2**62  # int64 headroom for the vectorized CV bit tricks
_PALETTE = 128  # one CV step maps colors below 2**62 to at most 2 * 61 + 1


def _cv_bits(own: "np.ndarray", effective: "np.ndarray") -> "np.ndarray":
    """One Cole-Vishkin step on integer colors below ``2**62``: twice the
    index of the lowest bit where *own* and *effective* differ, plus
    *own*'s value there (:func:`cv_step_value`, vectorized)."""
    diff = own ^ effective
    low = diff & -diff
    # low is a single set bit, exactly representable in float64,
    # so log2 recovers the bit index without rounding.
    index = np.log2(low.astype(np.float64)).astype(own.dtype)
    return 2 * index + ((own >> index) & 1)


def _lookup_tables():
    """Flat tables: ``cv[own * 128 + parent]`` (``parent == own``: a root);
    ``elim[t][(own * 7 + parent) * 7 + child]``, for color *t* the least
    of {0, 1, 2} no neighbor has (6: none); sub-step 2b's rules by
    ``((own + 1) * 5 + parent + 1) * 4 + 2 * heavy + heavy3`` (4: none)."""
    # Built on int16, which keeps the temporaries (and peak RSS) small.
    own, parent = np.divmod(np.arange(_PALETTE**2, dtype=np.int16), _PALETTE)
    cv = _cv_bits(own, np.where(own == parent, own ^ 1, parent)).astype(np.int64)
    own, parent, child = (axis.ravel() for axis in np.indices((7, 7, 7)))
    free = [(parent != c) & (child != c) for c in (0, 1)]
    choice = np.where(free[0], 0, np.where(free[1], 1, 2))
    elim = {t: np.where(own == t, choice, own) for t in (3, 4, 5)}
    own, parent, heavy, heavy3 = (axis.ravel() for axis in np.indices((4, 5, 2, 2)))
    own, parent = own - 1, np.where(parent == 4, -2, parent - 1)
    up = (own == 0) & (parent >= 0) & (heavy == 1)
    up |= (own == 1) & (parent == 2) & (heavy3 == 1)
    down = ((own >= 0) & (parent == 0)) | ((own == 2) & (parent == 1))
    return cv, elim, up, down


_CV_TABLE, _ELIM_TABLES, _MARK_UP, _MARK_DOWN = _lookup_tables()
# Row offsets are gathered too (cheaper than Python-int arithmetic on a
# few dozen nodes).  _SHIFT[c + 8] is a root's shift: 0 -> 1, else -> 0.
_CV_ROW = np.arange(_PALETTE, dtype=np.int64) * _PALETTE
_BY_49, _BY_7 = np.arange(7, dtype=np.int64) * 49, np.arange(7, dtype=np.int64) * 7
_BY_20, _BY_4 = np.arange(4, dtype=np.int64) * 20, np.arange(5, dtype=np.int64) * 4
_SHIFT = np.concatenate((np.arange(8), np.arange(8) == 0)).astype(np.int64)
_COUNTED, _IS3 = np.array([0, 1, 1, 1]), np.array([0, 0, 0, 1])  # by color + 1


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
        cut = (po < pn).nonzero()[0]
        self.cut = len(cut)
        pair_key = (po * n + pn)[cut]
        # Stable, so each pair's run opens with its smallest connector
        # (the seed's min-id tie-break); the run length is its weight.
        order = pair_key.argsort(kind="stable")
        pair_sorted = pair_key[order]
        # Run boundaries: every run start, then the end.
        bounds = np.empty(len(order) + 1, dtype=bool)
        bounds[0] = bounds[-1] = True
        np.not_equal(pair_sorted[1:], pair_sorted[:-1], out=bounds[1:-1])
        bounds = bounds.nonzero()[0]
        starts = bounds[:-1]
        first = cut[order[starts]]

        k = len(roots)
        compact_of = np.empty(n, dtype=np.int64)  # read at part roots only
        compact_of[roots] = np.arange(k, dtype=np.int64)
        self.pids = roots
        self._n = n
        self._pair_keys = pair_sorted[starts]
        self.ea = compact_of[po[first]]
        self.eb = compact_of[pn[first]]
        self.weights = bounds[1:] - starts
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
        pos = self._pair_keys.searchsorted(keys)
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
    # Both orientations of every aux edge; inactive nodes' degrees go
    # stale, as nothing reads them again.
    src = np.concatenate((aux.ea, aux.eb))
    dst = np.concatenate((aux.eb, aux.ea))
    degrees = aux.degrees
    active = np.ones(k, dtype=bool)
    inactive_round = np.zeros(k, dtype=np.int64)
    for super_round in range(1, budget + 1):
        deactivating = active & (degrees <= threshold)
        if not np.count_nonzero(deactivating):
            # Done, or the active subgraph has min degree > 3*alpha,
            # certifying arboricity > alpha.
            break
        inactive_round[deactivating] = super_round
        active ^= deactivating
        degrees = degrees - np.bincount(src[deactivating[dst]], minlength=k)

    if ledger is not None:
        model = cost_model or TreeCostModel()
        per_super_round = model.super_round(height, alpha)
        ledger.charge(
            budget * per_super_round,
            "stage1.forest_decomposition",
            f"{budget} super-rounds x {per_super_round} rounds "
            f"(height {height}, alpha {alpha})",
        )
    return (not np.count_nonzero(active), active, inactive_round, budget)


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
    # Rounds minus one, unsigned: round 0 (never deactivated) wraps to
    # the largest rank.  ea < eb settles ties.
    rank = (inactive_round - 1).view(np.uint64)
    ra = rank[ea]
    rb = rank[eb]
    a_wins = ra <= rb
    src = np.where(a_wins, ea, eb)
    dst = np.where(a_wins, eb, ea)
    if np.count_nonzero(inactive_round) < len(inactive_round):
        keep = (inactive_round[ea] > 0) | (inactive_round[eb] > 0)
        return src[keep], dst[keep], w[keep]
    return src, dst, w


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
    here, and not at all when the topology's labels are ``0..n-1``
    (``dense_labels``), whose seeds are *pids* itself.
    """

    def __init__(self, topology: CompiledTopology):
        ids = self.ids = topology.nodes
        self.labelled = None if topology.dense_labels else np.fromiter(
            (isinstance(v, int) and v >= 0 for v in ids), dtype=bool, count=len(ids)
        )
        self._repr_rank = None

    def __call__(self, pids: "np.ndarray") -> Sequence[int]:
        ids = self.ids
        if self.labelled is None:
            return pids
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
    *init_colors* distinct non-negative ints of any size, one per node, in
    a sequence or int64 array (Stage I passes the roots' :class:`RootSeeds`).
    Every phase of :func:`cv_schedule` applies the update rules of the
    simulated protocol (:mod:`repro.congest.programs.cole_vishkin`).
    The schedule's first ``cv`` phase is a table lookup when the seeds
    are below 128, the int64 bit trick below ``2**62``, and
    :func:`cv_step_value` on Python ints above, where the second phase
    is the bit trick too.  Every other phase is a table lookup.  The
    ledger is charged ``len(schedule)`` super-rounds of
    ``aux_message_relay(height)`` rounds each.
    """
    k = len(parent)
    roots = parent < 0
    # A root reads its own color as its parent's (the tables' root rule).
    up = np.where(roots, np.arange(k, dtype=np.int64), parent)
    has_children = np.bincount(parent + 1, minlength=k + 1)[1:] > 0
    ints = not isinstance(init_colors, np.ndarray)
    top = int(max(init_colors, default=1) if ints else init_colors.max(initial=1))
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
    else:
        colors = np.asarray(init_colors, dtype=np.int64)
        if top >= _PALETTE:
            colors = _cv_bits(colors, np.where(roots, colors ^ 1, colors[up]))
        else:
            colors = _CV_TABLE[_CV_ROW[colors] + colors[up]]
    wide = top >= _MAX_ID  # the Python-int step can leave colors >= 128
    root_shift = np.where(roots, 8, 0)
    for phase in schedule[1:]:
        if phase == "cv" and wide:
            colors = _cv_bits(colors, np.where(roots, colors ^ 1, colors[up]))
            wide = False
        elif phase == "cv":
            colors = _CV_TABLE[_CV_ROW[colors] + colors[up]]
        elif phase == "shift":
            # Every child now holds this node's pre-shift color.
            children_color = np.where(has_children, colors, 6)
            colors = _SHIFT[colors[up] + root_shift]
        else:  # elim{target}
            # A root reads its own color: the target (>= 3), no candidate.
            table = _ELIM_TABLES[int(phase[4:])]
            colors = table[_BY_49[colors] + _BY_7[colors[up]] + children_color]

    if np.count_nonzero((colors == colors[up]) & ~roots):
        raise PartitionError("CV produced an improper coloring")
    if np.count_nonzero((colors < 0) | (colors > 2)):
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

    Every step is a scatter, a gather or a mask over the compact range.  Edges
    come back in ascending child order: the marked ones as their
    children, the contracted ones as the two index arrays that
    :meth:`DensePartitionState.merge` takes.
    """
    k = len(parent)
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    edge_weight = np.where(has_parent, weight, 0)

    own = colors + 1  # -1 (abstains) .. 2 as 0..3; 4 is "no parent"
    parent_code = np.where(has_parent, own[safe_parent], 4)

    # Incoming weights (participating / color-3 children); exact floats.
    w_in = np.bincount(safe_parent, edge_weight * _COUNTED[own], k)
    w_in3 = np.bincount(safe_parent, edge_weight * _IS3[own], k)

    # Sub-step 2b by (own color, parent color, two weight tests): a rule
    # ``down`` node marks unless its parent marks by rule ``up`` (which a
    # parent of color 0 or 1 can by one case of it only).
    case = _BY_20[own] + _BY_4[parent_code]
    case += 2 * (edge_weight >= w_in)
    case += edge_weight >= w_in3
    up = _MARK_UP[case]
    marked = up | (_MARK_DOWN[case] & ~up[safe_parent])

    marked_idx = marked.nonzero()[0]
    heads = parent[marked_idx]
    marked_weights = edge_weight[marked_idx]

    # Parity choice (sub-steps 3-4), per marked tree: every node's tree
    # root (its first unmarked ancestor) and level below that root.
    root, level = pointer_jump(np.where(marked, parent, -1))
    tree_root = root[marked_idx]
    if np.count_nonzero(marked[tree_root]):
        # Some marked chain never reaches an unmarked node.
        raise PartitionError("marked subgraph contains a cycle (Claim 15)")
    tree_level = level[marked_idx]
    tallest = np.zeros(k, dtype=np.int64)
    np.maximum.at(tallest, tree_root, tree_level)
    # Marked nodes sit at level >= 1, so exactly the tree roots have a
    # positive height.
    roots = tallest.nonzero()[0]
    tree_heights = dict(zip(roots.tolist(), tallest[roots].tolist()))

    parity = tree_level & 1
    # Per tree root r, bin 2r sums the even levels' weights, 2r+1 the odd.
    parity_weight = np.bincount(2 * tree_root + parity, marked_weights, 2 * k)
    # Each tree keeps its heavier class; ties go to the even levels.
    odd_heavier = parity_weight[1::2] > parity_weight[::2]
    chosen = parity == odd_heavier[tree_root]
    children = marked_idx[chosen]
    centers = heads[chosen]

    is_child = np.zeros(k, dtype=bool)
    is_child[children] = True
    if np.count_nonzero(is_child[centers]):
        chained = np.flatnonzero(is_child & (np.bincount(centers, minlength=k) > 0))
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
        depth: int64 vector, spanning-tree depth per dense index.
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
        self.depth = np.zeros(n, dtype=np.int64)
        self._height = 0

    @property
    def size(self) -> int:
        """Number of parts."""
        return len(self.roots)

    def max_height(self) -> int:
        return self._height

    # Built when read: the phase loop needs only size and max_height().
    @cached_property
    def heights(self) -> Dict[int, int]:
        tallest = np.zeros(self.topology.n, dtype=np.int64)
        np.maximum.at(tallest, self.part_of, self.depth)
        return dict(zip(self.roots.tolist(), tallest[self.roots].tolist()))

    @cached_property
    def sizes(self) -> Dict[int, int]:
        counts = np.bincount(self.part_of, minlength=self.topology.n)
        return dict(zip(self.roots.tolist(), counts[self.roots].tolist()))

    def cut_size(self) -> int:
        part_of = self.part_of
        return int(np.count_nonzero(part_of[self.eu] != part_of[self.ev]))

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
            if not np.count_nonzero(above != ancestor):
                break
            ancestor = above
        else:
            raise PartitionError("spanning forest contains a cycle")
        below = (on_path & (parent >= 0)).nonzero()[0]
        self.parent = parent = parent.copy()
        parent[parent[below]] = below
        parent[conn_u] = conn_v

        depth = forest_depths(parent, part_of)
        self._measure(depth, self.roots[~absorbed[self.roots]])

    def _measure(self, depth: "np.ndarray", roots: "np.ndarray") -> None:
        """Set ``roots`` (ascending) and ``depth``; drop the part tables."""
        self.roots, self.depth = roots, depth
        self._height = int(depth.max())
        self.__dict__.pop("heights", None)
        self.__dict__.pop("sizes", None)

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
    linked = parent >= 0
    ancestor = np.where(linked, parent, np.arange(n, dtype=np.int64))
    depth = linked.astype(np.int64)
    for _ in range(n.bit_length() + 1):
        above = ancestor[ancestor]
        if not np.count_nonzero(above != ancestor):
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
    if np.count_nonzero(parent[ancestor] >= 0):
        raise PartitionError("spanning forest contains a cycle")
    stray = ancestor != part_of
    if np.count_nonzero(stray):
        part = int(part_of[np.argmax(stray)])
        missing = int((stray & (part_of == part)).sum())
        raise PartitionError(
            f"spanning tree of part rooted at {part!r} does not reach "
            f"{missing} nodes"
        )
    return depth
