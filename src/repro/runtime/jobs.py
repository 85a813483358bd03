"""Declarative job specs for every unit of work in the repo.

A :class:`JobSpec` names a *kind* of computation (planarity test,
partition, spanner construction, application tester), the graph it runs
on (family or far-family + size + seed), and a frozen configuration
mapping.  Specs are hashable and canonically serializable, so they can
be deduplicated, dispatched to process pools, and used as cache keys.

Running a spec produces a *record*: a flat ``dict`` of primitives
(numbers, strings, bools) in a deterministic key order.  Records are the
only thing that crosses process boundaries or lands in the cache, which
keeps both pickling and JSON persistence trivial and guarantees that the
serial and process-pool backends produce byte-identical aggregates.

New job kinds register with :func:`register_kind`; the registry maps the
kind name to a module-level runner (module-level so it pickles), making
the runtime extensible from application code without touching this file.
A runner's keyword-only parameters declare its kind's parameters,
names and defaults alike; :meth:`JobSpec.make` refuses any other name.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

import networkx as nx

from ..graphs.far_from_planar import make_far
from ..graphs.generators import make_planar
from ..telemetry.metrics import get_metrics
from ..telemetry.spans import get_tracer, telemetry_enabled
from ..testers.planarity import PlanarityTestConfig, test_planarity

Record = Dict[str, Any]
Runner = Callable[..., Record]

_RUNNERS: Dict[str, Runner] = {}
_DECLARED: Dict[str, Dict[str, Any]] = {}
_GRAPHLESS: set = set()


def register_kind(kind: str, runner: Runner, needs_graph: bool = True) -> None:
    """Register *runner* for *kind*; overwrites a previous registration.

    *runner* runs as ``runner(spec, graph, **spec.params)``: its
    keyword-only parameters are the kind's, defaults included.

    Args:
        needs_graph: ``False`` for kinds that build their own input
            (e.g. the lower-bound instance audit): the executor then
            never generates a graph for the spec -- the runner receives
            ``None`` and must fill ``n``/``m`` in its record itself.
            Such specs are always cache-keyed by coordinates.
    """
    _RUNNERS[kind] = runner
    _DECLARED[kind] = {
        name: param.default
        for name, param in inspect.signature(runner).parameters.items()
        if param.kind is param.KEYWORD_ONLY
    }
    if needs_graph:
        _GRAPHLESS.discard(kind)
    else:
        _GRAPHLESS.add(kind)


def spec_needs_graph(spec: "JobSpec") -> bool:
    """Whether *spec* requires its input graph to be generated."""
    return spec.kind not in _GRAPHLESS


def job_kinds() -> Tuple[str, ...]:
    """All registered job kinds, sorted."""
    return tuple(sorted(_RUNNERS))


def _freeze(value: Any) -> Any:
    """Recursively convert mappings/sequences to hashable tuples."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_freeze(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return tuple(items)
    return value


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: ``kind`` applied to a generated graph.

    Attributes:
        kind: registered job kind (see :func:`job_kinds`).
        family: planar family name (ignored when *far* is set).
        far: far-from-planar family name, or ``None``.
        n: requested graph size (generators may round).
        seed: master seed for graph generation and algorithm randomness.
        graph_seed: when set, the graph is generated from this seed
            instead of ``seed`` -- so repeated trials (varying ``seed``)
            can replay the *same* graph, sharing its fingerprint, its
            built instance, and its compiled simulator topology.
        config: frozen ``(key, value)`` tuple of the parameters the
            kind's runner declares (e.g. ``epsilon``, ``method``,
            ``delta``); build it with :meth:`make`.
    """

    kind: str
    family: str = "delaunay"
    far: Optional[str] = None
    n: int = 500
    seed: int = 0
    config: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    graph_seed: Optional[int] = None

    @classmethod
    def make(
        cls,
        kind: str,
        family: str = "delaunay",
        far: Optional[str] = None,
        n: int = 500,
        seed: int = 0,
        graph_seed: Optional[int] = None,
        **config: Any,
    ) -> "JobSpec":
        """Build a spec with *config* canonically frozen and sorted;
        a ``ValueError`` refuses an unregistered *kind* and any *config*
        name its runner does not declare."""
        if kind not in _RUNNERS:
            raise ValueError(
                f"unknown job kind {kind!r}; registered: {job_kinds()}"
            )
        declared = _DECLARED[kind]
        unknown = config.keys() - declared.keys()
        if unknown:
            raise ValueError(
                f"job kind {kind!r} takes no parameter {', '.join(sorted(unknown))}"
                f"; it accepts: {', '.join(sorted(declared)) or '(none)'}"
            )
        return cls(
            kind=kind,
            family=family,
            far=far,
            n=n,
            seed=seed,
            graph_seed=graph_seed,
            config=_freeze(config),
        )

    @property
    def params(self) -> Dict[str, Any]:
        """The config as a plain dict."""
        return {k: v for k, v in self.config}

    @property
    def arguments(self) -> Dict[str, Any]:
        """:attr:`params` over the defaults its kind's runner declares."""
        declared = _DECLARED[self.kind].items()
        arguments = {k: v for k, v in declared if v is not inspect.Parameter.empty}
        arguments.update(self.config)
        return arguments

    @property
    def graph_label(self) -> str:
        """Human label for the generated graph."""
        if self.far:
            return f"far:{self.far}"
        return f"planar:{self.family}"

    @property
    def effective_graph_seed(self) -> int:
        """The seed that actually drives graph generation."""
        return self.seed if self.graph_seed is None else self.graph_seed

    @property
    def graph_coordinates(self) -> Tuple[str, int, int]:
        """The triple that identifies this spec's input graph.

        The serial backend and the ``simulate_batch`` runner build one
        graph per distinct triple, so specs that replay the same graph
        share one built instance and one compiled simulator topology.
        """
        return (
            self.far or f"planar/{self.family}",
            self.n,
            self.effective_graph_seed,
        )

    def canonical(self) -> str:
        """A canonical JSON encoding (the basis of the config digest)."""
        payload = {
            "kind": self.kind,
            "family": self.family,
            "far": self.far,
            "n": self.n,
            "seed": self.seed,
            "config": [[k, repr(v)] for k, v in self.config],
        }
        if self.graph_seed is not None:
            # Only emitted when set, so pre-existing specs keep their
            # canonical encoding (and their cache keys) byte-identical.
            payload["graph_seed"] = self.graph_seed
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def build_graph(self) -> nx.Graph:
        """Generate the spec's input graph (deterministic in the spec)."""
        if self.far:
            graph, _farness = make_far(
                self.far, self.n, seed=self.effective_graph_seed
            )
            return graph
        return make_planar(self.family, self.n, seed=self.effective_graph_seed)

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-safe encoding for wire protocols (fleet workers).

        Round-trips through :meth:`from_payload`; only specs whose
        config values are JSON primitives survive the trip, which every
        registered kind's knobs are by construction.
        """
        return {
            "kind": self.kind,
            "family": self.family,
            "far": self.far,
            "n": self.n,
            "seed": self.seed,
            "graph_seed": self.graph_seed,
            "config": [[k, v] for k, v in self.config],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_payload` output.

        Config values arrive as JSON types; ``_freeze`` restores the
        canonical tuple form, so hashing and cache keys match the
        original spec exactly.  Built through :meth:`make`, so a
        parameter the kind does not declare raises ``ValueError``.
        """
        return cls.make(
            payload["kind"],
            family=payload.get("family", "delaunay"),
            far=payload.get("far"),
            n=int(payload.get("n", 500)),
            seed=int(payload.get("seed", 0)),
            graph_seed=payload.get("graph_seed"),
            **{k: v for k, v in payload.get("config", [])},
        )


def run_job(spec: JobSpec, graph: Optional[nx.Graph] = None) -> Record:
    """Execute *spec* and return its flat record.

    Module-level (and therefore picklable) so process-pool workers can
    receive specs directly.  *graph* lets callers that already built the
    input (the serial backend, which shares one graph among the specs
    that replay it) avoid a second generation.  Graphless kinds
    (``register_kind(..., needs_graph=False)``) skip generation
    entirely; their runners own the ``n``/``m`` record fields.
    """
    try:
        runner = _RUNNERS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown job kind {spec.kind!r}; registered: {job_kinds()}"
        ) from None
    if spec.kind in _GRAPHLESS:
        graph = None
        n, m = spec.n, 0
    else:
        if graph is None:
            graph = spec.build_graph()
        n, m = graph.number_of_nodes(), graph.number_of_edges()
    record = _record_header(spec, n, m)
    record.update(runner(spec, graph, **spec.params))
    return record


def _record_header(spec: JobSpec, n: int, m: int) -> Record:
    """The six leading fields every job record carries."""
    return {
        "kind": spec.kind,
        "graph": spec.graph_label,
        "family": spec.far or spec.family,
        "n": n,
        "m": m,
        "seed": spec.seed,
    }


def run_job_timed(
    spec: JobSpec, graph: Optional[nx.Graph] = None
) -> Tuple[Record, float]:
    """Execute *spec* and return ``(record, wall_seconds)``.

    The timing wraps graph generation + the runner -- the cost a
    scheduler actually pays for dispatching the spec cold.  Every
    backend reports these seconds back so the cost-balanced sharder
    (:mod:`repro.runtime.scheduler`) can learn per-kind/per-n costs.

    This is also the telemetry chokepoint: every backend (serial run,
    chunked pool dispatch, fleet workers) funnels executed jobs
    through here, so one ``job`` span covers them all.  When the
    tracer is on, the record is tagged with its span id and wall-time
    (``trace_span`` / ``trace_s``); when it is off, the record is
    byte-identical to the untraced build.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        start = time.perf_counter()
        record = run_job(spec, graph)
        return record, max(0.0, time.perf_counter() - start)
    with tracer.span(
        "job",
        kind=spec.kind,
        family=spec.far or spec.family,
        n=spec.n,
        seed=spec.seed,
    ) as span:
        start = time.perf_counter()
        record = run_job(spec, graph)
        seconds = max(0.0, time.perf_counter() - start)
    record["trace_span"] = span.id
    record["trace_s"] = round(seconds, 6)
    get_metrics().observe("job.seconds", seconds)
    get_metrics().inc("job.executed")
    return record, seconds


# -- builtin runners ---------------------------------------------------------


def _decay_stats(phases) -> Record:
    """Flat per-run summary of the per-phase cut-decay factors.

    Zero-cut phases are clamped to 1e-6 (the convention benchmark E7
    established for its geometric mean).
    """
    decays = [max(s.decay, 1e-6) for s in phases]
    if not decays:
        return {"decay_min": 1.0, "decay_geomean": 1.0, "decay_max": 1.0}
    from ..analysis import geometric_mean

    return {
        "decay_min": min(decays),
        "decay_geomean": geometric_mean(decays),
        "decay_max": max(decays),
    }


def _declares(params: Iterable[inspect.Parameter]):
    """Decorator: *params*, made keyword-only, become the declared
    parameters of a ``(spec, graph, **config)`` runner."""

    def declare(runner: Runner) -> Runner:
        spec, graph, *_ = inspect.signature(runner).parameters.values()
        runner.__signature__ = inspect.Signature(
            [spec, graph, *(p.replace(kind=p.KEYWORD_ONLY) for p in params)]
        )
        return runner

    return declare


@_declares(inspect.signature(PlanarityTestConfig).parameters.values())
def _run_test_planarity(spec: JobSpec, graph: nx.Graph, **config) -> Record:
    """The Theorem 1 tester; its parameters are the fields of
    :class:`PlanarityTestConfig`, defaults included."""
    config = PlanarityTestConfig(**config)
    result = test_planarity(graph, seed=spec.seed, config=config)
    state = result.stage1.partition
    return {
        "epsilon": config.epsilon,
        "accepted": result.accepted,
        "rejected_stage": result.rejected_stage or "-",
        "rejecting_parts": len(result.rejecting_parts),
        "rounds": result.rounds,
        "stage1_rounds": result.stage1_rounds,
        "stage2_rounds": result.stage2_rounds,
        "phases": len(result.stage1.phases),
        "parts": state.size,
        "cut": state.cut_size(),
        "max_part_height": state.max_height(),
        "violating_exact": result.total_violating_exact,
    }


def _run_partition_stage1(
    spec, graph, *, epsilon=0.1, alpha=3, target_cut=None, early_stop=True
) -> Record:
    from ..partition.stage1 import partition_stage1

    if target_cut == "eps*n":
        # Resolved against the *actual* generated size (families round),
        # which a sweep cannot know at spec-construction time.
        target_cut = epsilon * graph.number_of_nodes()
    result = partition_stage1(
        graph,
        epsilon=epsilon,
        alpha=alpha,
        target_cut=target_cut,
        early_stop=early_stop,
    )
    record = {
        "epsilon": epsilon,
        "success": result.success,
        "parts": result.partition.size,
        "cut": result.partition.cut_size(),
        "target_cut": result.target_cut,
        "max_height": result.partition.max_height(),
        "max_diameter": result.partition.max_diameter(graph),
        "phases": len(result.phases),
        "rounds": result.rounds,
    }
    record.update(_decay_stats(result.phases))
    return record


def _run_partition_randomized(
    spec, graph, *, epsilon=0.1, delta=0.1, alpha=3, target_cut=None,
    trials=None, early_stop=True, coloring="cole-vishkin",
) -> Record:
    from ..partition.weighted_selection import partition_randomized

    result = partition_randomized(
        graph,
        epsilon=epsilon,
        delta=delta,
        alpha=alpha,
        target_cut=target_cut,
        trials=trials,
        early_stop=early_stop,
        seed=spec.seed,
        coloring=coloring,
    )
    record = {
        "epsilon": epsilon,
        "delta": result.delta,
        "success": result.success,
        "met_target": result.met_target,
        "parts": result.partition.size,
        "cut": result.partition.cut_size(),
        "target_cut": result.target_cut,
        "max_height": result.partition.max_height(),
        "phases": len(result.phases),
        "trials": result.trials,
        "rounds": result.rounds,
    }
    record.update(_decay_stats(result.phases))
    return record


def _run_spanner(
    spec, graph, *, epsilon=0.1, method="deterministic", delta=0.1, alpha=3,
    sample_nodes=8,
) -> Record:
    from ..applications.spanner import build_spanner, measure_stretch

    result = build_spanner(
        graph,
        epsilon=epsilon,
        method=method,
        delta=delta,
        alpha=alpha,
        seed=spec.seed,
    )
    stretch = measure_stretch(
        graph, result.dense, sample_nodes=sample_nodes, seed=spec.seed
    )
    n = graph.number_of_nodes()
    return {
        "epsilon": epsilon,
        "method": method,
        "spanner_edges": result.size,
        "size_per_n": result.size / max(n, 1),
        "tree_edges": result.tree_edges,
        "connector_edges": result.connector_edges,
        "measured_stretch": stretch,
        "guaranteed_stretch": result.guaranteed_stretch,
        "rounds": result.rounds,
    }


_APPLICATION_PROPERTIES = {"cycle_freeness": "cycle-free", "bipartiteness": "bipartite"}
"""Job kind -> the Corollary 16 property its runner tests."""


def _run_application(
    spec, graph, *, epsilon=0.1, alpha=3, method="deterministic", delta=0.1
) -> Record:
    """A Corollary 16 tester: ``cycle_freeness`` or ``bipartiteness``."""
    from ..testers.applications import test_hereditary_property

    result = test_hereditary_property(
        graph,
        _APPLICATION_PROPERTIES[spec.kind],
        epsilon=epsilon,
        alpha=alpha,
        method=method,
        delta=delta,
        seed=spec.seed,
    )
    return {
        "epsilon": epsilon,
        "accepted": result.accepted,
        "rejecting_parts": len(result.rejecting_parts),
        "partition_rounds": result.partition_rounds,
        "verification_rounds": result.verification_rounds,
        "rounds": result.rounds,
    }


def _run_simulate_program(
    spec: JobSpec, graph: nx.Graph, *, program="bfs", alpha=3, storm_rounds=8
) -> Record:
    """Run one bundled CONGEST protocol on the simulator.

    This is the runtime's door into the simulator layer: the graph the
    serial backend hands over (the same object for every trial of a
    sweep that replays one graph) reaches ``CongestNetwork`` directly,
    so its :class:`~repro.congest.topology.CompiledTopology` is compiled
    exactly once per process and reused across all trials.

    Parameters: ``program`` (``bfs`` | ``flood`` | ``forest`` | ``cv``
    | ``storm``), ``alpha`` (forest) and ``storm_rounds`` (storm);
    ``cv`` colors the canonical min-smaller-neighbor forest.
    ``simulate_batch`` declares the same ones, defaults included.

    When telemetry is on, the network's per-round hook collects
    ``(round, active nodes, messages, bits)`` deltas and the record
    carries them as a compact ``round_profile`` JSON string -- the
    per-phase round/message accounting that doubles as a fidelity check
    on the paper's complexity claims.  Untraced records are unchanged.
    """
    from ..congest import CongestNetwork
    from ..congest.programs import (
        BFSTreeProgram,
        BarenboimElkinProgram,
        BroadcastStormProgram,
        ColeVishkinProgram,
        FloodProgram,
    )
    from ..congest.programs.cole_vishkin import cv_schedule, min_neighbor_parents
    from ..congest.programs.forest_decomposition import (
        barenboim_elkin_round_budget,
    )

    network = CongestNetwork(graph, seed=spec.seed)
    root = min(graph.nodes())

    def forest():
        budget = barenboim_elkin_round_budget(network.n)
        config = {"alpha": alpha, "budget": budget}
        return BarenboimElkinProgram, budget + 3, config, True

    def cv():
        schedule = cv_schedule(max(graph.nodes(), default=1))
        config = {"parents": min_neighbor_parents(graph), "schedule": schedule}
        return ColeVishkinProgram, len(schedule) + 3, config, True

    def storm():
        rounds = int(storm_rounds)
        return BroadcastStormProgram, rounds + 2, {"storm_rounds": rounds}, False

    # program -> () -> (factory, max_rounds, config, strict_bandwidth)
    programs = {
        "bfs": lambda: (BFSTreeProgram, network.n + 2, {"root": root}, True),
        "flood": lambda: (FloodProgram, network.n + 2, {"root": root}, True),
        "forest": forest,
        "cv": cv,
        "storm": storm,
    }
    if program not in programs:
        raise ValueError(f"unknown simulator program {program!r}")
    factory, max_rounds, config, strict = programs[program]()
    round_rows: list = []
    round_hook = None
    if telemetry_enabled():
        # One list append per executed round (never per message): the
        # deltas against the running totals give per-round message/bit
        # counts.
        def round_hook(round_index, active, acct, _rows=round_rows):
            _rows.append(
                (round_index, active, acct.total_messages, acct.total_bits)
            )
    result = network.run(
        factory,
        max_rounds=max_rounds,
        config=config,
        strict_bandwidth=strict,
        round_hook=round_hook,
    )
    record = _simulation_fields(program, result)
    if round_rows:
        # Per-round deltas as one compact JSON string: records stay
        # flat primitive dicts, and untraced runs never pay for this.
        deltas = []
        prev_messages = prev_bits = 0
        for round_index, active, messages, bits in round_rows:
            deltas.append(
                [
                    round_index,
                    active,
                    messages - prev_messages,
                    bits - prev_bits,
                ]
            )
            prev_messages, prev_bits = messages, bits
        record["round_profile"] = json.dumps(deltas, separators=(",", ":"))
    return record


def _simulation_fields(program: str, result) -> Record:
    """A simulator run's result fields, scalar and batched alike."""
    return {
        "program": program,
        "rounds": result.rounds,
        "halted": result.halted,
        "messages": result.total_messages,
        "bits": result.total_bits,
        "max_message_bits": result.max_message_bits,
        "over_budget": result.over_budget_messages,
    }


@_declares(
    [inspect.Parameter("seeds", inspect.Parameter.KEYWORD_ONLY)]
    + list(inspect.signature(_run_simulate_program).parameters.values())[2:]
)
def _run_simulate_batch(
    spec: JobSpec, graph: Optional[nx.Graph], *, seeds, **knobs
) -> Record:
    """Run a coalesced group of simulator trials as one array program.

    The spec carries the member trial seeds in its ``seeds`` parameter
    and otherwise declares ``simulate_program``'s parameters (everything
    else -- program, graph coordinates -- is shared by construction, see
    :func:`repro.runtime.batching.make_batch_spec`).  Graphs are built
    here, once per distinct ``graph_coordinates`` (a graph-seed-pinned
    sweep shares a single compiled topology across the whole batch; an
    unpinned one becomes a ragged batch of per-trial graphs), and all
    trials run in lockstep on the batched tensor plane.  Ragged
    batches are split through :func:`~repro.congest.batch.pad_groups`
    first, so no trial pads beyond
    :data:`~repro.congest.batch.DEFAULT_PAD_WASTE`; a pinned batch is
    one group by construction.

    The record packs one scalar-identical ``simulate_program`` record
    per trial into a compact ``trials`` JSON string; the executor
    re-expands them so downstream consumers never see the batch shape.
    A registered graphless kind: the executor never generates a graph
    for it (*graph* is always ``None``).
    """
    from ..congest.batch import pad_groups, run_batched
    from ..congest.topology import compile_topology

    if not seeds:
        raise ValueError("simulate_batch spec carries no member seeds")
    params = spec.arguments  # program, alpha and storm_rounds, resolved
    del params["seeds"]
    program = params["program"]
    trial_specs = [
        JobSpec.make(
            "simulate_program",
            family=spec.family,
            far=spec.far,
            n=spec.n,
            seed=int(trial_seed),
            graph_seed=spec.graph_seed,
            **knobs,
        )
        for trial_seed in seeds
    ]
    graphs: Dict[Tuple[str, int, int], nx.Graph] = {}
    trial_graphs = []
    for trial_spec in trial_specs:
        coordinates = trial_spec.graph_coordinates
        built = graphs.get(coordinates)
        if built is None:
            built = graphs[coordinates] = trial_spec.build_graph()
        trial_graphs.append(built)
    topologies = [compile_topology(g) for g in trial_graphs]
    results: list = [None] * len(topologies)
    for group in pad_groups(topologies, limit=len(topologies)):
        group_results = run_batched(
            program, [topologies[i] for i in group], params=params
        )
        for member, result in zip(group, group_results):
            results[member] = result
    trials = []
    for trial_spec, built, result in zip(trial_specs, trial_graphs, results):
        trial = _record_header(
            trial_spec, built.number_of_nodes(), built.number_of_edges()
        )
        trial.update(_simulation_fields(program, result))
        trials.append(trial)
    return {
        "program": program,
        "trials_n": len(trials),
        "trials": json.dumps(trials, separators=(",", ":")),
    }


register_kind("test_planarity", _run_test_planarity)
register_kind("partition_stage1", _run_partition_stage1)
register_kind("partition_randomized", _run_partition_randomized)
register_kind("spanner", _run_spanner)
register_kind("cycle_freeness", _run_application)
register_kind("bipartiteness", _run_application)
register_kind("simulate_program", _run_simulate_program)
register_kind("simulate_batch", _run_simulate_batch, needs_graph=False)
