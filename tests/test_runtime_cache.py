"""Content-addressed result cache (repro.runtime.cache)."""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import JobSpec, ShardedStore, run_jobs
from repro.runtime.cache import (
    KeyDeriver,
    cache_key,
    config_digest,
    coordinate_fingerprint,
    graph_fingerprint,
)


def test_fingerprint_ignores_edge_orientation_and_order():
    a = nx.Graph([(0, 1), (1, 2), (2, 3)])
    b = nx.Graph([(3, 2), (2, 1), (1, 0)])
    assert graph_fingerprint(a) == graph_fingerprint(b)


def test_fingerprint_sees_structure():
    path = nx.path_graph(4)
    cycle = nx.cycle_graph(4)
    assert graph_fingerprint(path) != graph_fingerprint(cycle)
    isolated = nx.Graph([(0, 1), (1, 2), (2, 3)])
    isolated.add_node(99)
    assert graph_fingerprint(path) != graph_fingerprint(isolated)


def _stage1(epsilon):
    return JobSpec.make("partition_stage1", family="grid", n=36, epsilon=epsilon)


def test_cache_hit_miss_semantics(tmp_path):
    store = ShardedStore(tmp_path / "store")
    first = run_jobs([_stage1(0.5)], store=store)
    assert (first.cache_stats.hits, first.cache_stats.misses) == (0, 1)
    second = run_jobs([_stage1(0.5), _stage1(0.25)], store=store)
    assert (second.cache_stats.hits, second.cache_stats.misses) == (1, 1)
    assert second.cache_stats.hit_rate == 0.5
    assert second.records[0] == first.records[0]


def test_config_change_invalidates_key():
    deriver = KeyDeriver()
    a = deriver.key_for(JobSpec.make("test_planarity", family="grid", n=36,
                                     epsilon=0.5))
    b = deriver.key_for(JobSpec.make("test_planarity", family="grid", n=36,
                                     epsilon=0.25))
    c = deriver.key_for(JobSpec.make("partition_stage1", family="grid", n=36,
                                     epsilon=0.5))
    assert len({a, b, c}) == 3


def test_same_graph_different_phrasing_shares_fingerprint():
    spec = JobSpec.make("test_planarity", family="grid", n=36, epsilon=0.5)
    fingerprint = graph_fingerprint(spec.build_graph())
    # The key is the same however the graph was obtained, as long as the
    # structure and the non-graph config agree.
    assert cache_key(spec, fingerprint) == cache_key(spec, fingerprint)
    assert config_digest(spec) == config_digest(
        JobSpec.make("test_planarity", family="tri-grid", n=100, epsilon=0.5)
    )


def test_disk_store_round_trip(tmp_path):
    first = run_jobs([_stage1(0.5)], store=ShardedStore(tmp_path / "store"))
    # A brand-new store instance (fresh process in real life) re-reads
    # the records the first run put.
    second = run_jobs([_stage1(0.5)], store=ShardedStore(tmp_path / "store"))
    assert second.records == first.records
    assert second.executed == 0
    assert second.cache_stats.hits == 1


def test_clear(tmp_path):
    store = ShardedStore(tmp_path / "store")
    run_jobs([_stage1(0.5)], store=store)
    assert run_jobs([_stage1(0.5)], store=store).executed == 0
    store.clear()
    assert run_jobs([_stage1(0.5)], store=store).executed == 1


class TestCoordinateKeys:
    """Coordinate cache keys: no graph is generated to derive a key."""

    def _spec(self, **kw):
        from repro.runtime import JobSpec

        defaults = dict(kind="partition_stage1", family="grid", n=36, seed=0)
        defaults.update(kw)
        return JobSpec.make(**defaults)

    def test_coordinate_fingerprint_depends_only_on_coordinates(self):
        from repro.runtime import coordinate_fingerprint

        base = self._spec(epsilon=0.5)
        same_graph = self._spec(epsilon=0.1, seed=7, graph_seed=0)
        other_graph = self._spec(epsilon=0.5, seed=1)  # seed drives the graph
        assert coordinate_fingerprint(base) == coordinate_fingerprint(same_graph)
        assert coordinate_fingerprint(base) != coordinate_fingerprint(other_graph)
        assert coordinate_fingerprint(base).startswith("coord:")

    def test_deriver_skips_generation(self, monkeypatch):
        from repro.runtime import coordinate_fingerprint

        def no_build(spec):
            raise AssertionError("key derivation built a graph")

        spec = self._spec(epsilon=0.5)
        monkeypatch.setattr(JobSpec, "build_graph", no_build)
        key = KeyDeriver().key_for(spec)
        assert key == cache_key(spec, coordinate_fingerprint(spec))

    def test_determinism_cross_check(self, tmp_path):
        """Coordinate keys are sound: regeneration is bit-stable and
        cached runs produce the records cache-less runs do."""
        spec = self._spec(epsilon=0.5)
        # The generator is deterministic in its coordinates: two
        # independent builds share a content fingerprint.
        assert graph_fingerprint(spec.build_graph()) == graph_fingerprint(
            spec.build_graph()
        )

        specs = [self._spec(epsilon=eps) for eps in (0.5, 0.25)]
        uncached = run_jobs(specs)
        store = ShardedStore(tmp_path / "store")
        coord_first = run_jobs(specs, store=store)
        coord_second = run_jobs(specs, store=store)
        assert uncached.records == coord_first.records
        assert coord_second.records == coord_first.records
        assert coord_second.executed == 0  # fully served from cache
        assert coord_second.cache_stats.hits == len(specs)

    def test_every_bundled_generator_is_coordinate_deterministic(self):
        """The certification behind the coordinate-keys default: every
        planar and far family regenerates bit-identically from its
        coordinates (two independent builds share a content
        fingerprint, across two seeds)."""
        from repro.graphs.far_from_planar import FAR_FAMILIES
        from repro.graphs.generators import PLANAR_FAMILIES
        def fingerprints(**kw):
            spec = JobSpec.make("partition_stage1", n=48, **kw)
            return (
                graph_fingerprint(spec.build_graph()),
                graph_fingerprint(spec.build_graph()),
            )

        for family in sorted(PLANAR_FAMILIES):
            for seed in (0, 3):
                first, second = fingerprints(family=family, seed=seed)
                assert first == second, (family, seed)
        for family in sorted(FAR_FAMILIES):
            for seed in (0, 3):
                first, second = fingerprints(far=family, seed=seed)
                assert first == second, (family, seed)

    def test_repeat_sweep_is_all_hits_with_zero_generations(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: a repeated sweep against the sharded store is a
        100% cache hit that never touches the generators."""
        import repro.runtime.jobs as jobs_mod
        from repro.runtime import SweepSpec, run_sweep

        sweep = SweepSpec.make(
            "partition_stage1", families=["grid", "tree"], ns=[36],
            seeds=[0, 1], epsilon=[0.5, 0.25],
        )
        run_sweep(sweep, store=ShardedStore(tmp_path / "store"))

        calls = {"planar": 0, "far": 0}
        real_planar, real_far = jobs_mod.make_planar, jobs_mod.make_far

        def counting_planar(*args, **kwargs):
            calls["planar"] += 1
            return real_planar(*args, **kwargs)

        def counting_far(*args, **kwargs):
            calls["far"] += 1
            return real_far(*args, **kwargs)

        monkeypatch.setattr(jobs_mod, "make_planar", counting_planar)
        monkeypatch.setattr(jobs_mod, "make_far", counting_far)
        repeat = run_sweep(sweep, store=ShardedStore(tmp_path / "store"))
        assert repeat.batch.executed == 0
        assert repeat.batch.cache_stats.hits == sweep.size
        assert calls == {"planar": 0, "far": 0}  # zero graph generations


_SEEDS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 2**63 - 1, 2**63, 2**64 + 1, -(2**63) - 1]),
)
_CONFIG_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.integers(-3, 3),
    st.text(alphabet=st.sampled_from(list("aé\"'\\ ü☃\x00{}:,")), max_size=6),
)
# JobSpec.make's own parameters cannot be config keys.
_CONFIG_KEYS = st.text(max_size=6).filter(
    lambda k: k not in {"kind", "family", "far", "n", "seed", "graph_seed"}
)
_CONFIGS = st.dictionaries(_CONFIG_KEYS, _CONFIG_VALUES, max_size=4).map(
    lambda config: tuple(sorted(config.items()))
)
"""Frozen configs, sorted by key as ``JobSpec.make`` freezes them."""
_DERIVER = KeyDeriver()
"""Shared by every example, so the memoized templates meet many specs."""


@st.composite
def _specs(draw):
    from repro.graphs import FAR_FAMILIES, PLANAR_FAMILIES
    from repro.runtime.jobs import job_kinds

    far = draw(st.none() | st.sampled_from(sorted(FAR_FAMILIES)))
    # The plain constructor, not make(): keys must match for any config
    # names, including ones no kind declares (make() would refuse them).
    return JobSpec(
        draw(st.sampled_from(job_kinds())),
        family=draw(st.sampled_from(sorted(PLANAR_FAMILIES))),
        far=far,
        n=draw(st.integers(1, 5000)),
        seed=draw(_SEEDS),
        graph_seed=draw(st.none() | _SEEDS),
        config=draw(_CONFIGS),
    )


@settings(max_examples=300, deadline=None)
@given(spec=_specs())
def test_template_keys_match_the_reference(spec):
    """A drift here would turn every stored record into a miss."""
    expected = cache_key(spec, coordinate_fingerprint(spec))
    assert _DERIVER.key_for(spec) == expected
    assert KeyDeriver().key_for(spec) == expected


def test_equal_but_differently_typed_values_key_apart():
    """1, 1.0 and True are equal but print apart, so they key apart."""
    deriver = KeyDeriver()
    configs = [
        JobSpec.make("test_planarity", family="grid", n=36, epsilon=value)
        for value in (1, 1.0, True, 0.0, -0.0)
    ]
    coordinates = [
        JobSpec.make("test_planarity", family="grid", n=n, seed=seed,
                     graph_seed=graph_seed)
        for n, seed, graph_seed in ((36, 1, 2), (36.0, 1, 2), (36, True, 2),
                                    (36, 1, True), (36, 1, 2.0))
    ]
    for specs in (configs, coordinates):
        keys = [deriver.key_for(spec) for spec in specs]
        assert keys == [cache_key(s, coordinate_fingerprint(s)) for s in specs]
        assert len(set(keys)) == len(specs)


def test_golden_key():
    """Pinned literal: stores written by earlier versions keep hitting."""
    spec = JobSpec.make("test_planarity", family="grid", n=64, seed=7, epsilon=0.25)
    assert KeyDeriver().key_for(spec) == (
        "de5a45f8b85cb903897a413755e20d651d595c66aa2817a6e76ada82e06a7882"
    )
