"""Job specs and runners (repro.runtime.jobs)."""

from __future__ import annotations

import pytest

from _stage1_reference import to_partition
from repro.runtime import JobSpec, job_kinds, run_job
from repro.runtime.cache import config_digest


def test_spec_hashing_is_stable():
    a = JobSpec.make("test_planarity", family="grid", n=64, epsilon=0.5)
    b = JobSpec.make("test_planarity", family="grid", n=64, epsilon=0.5)
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical() == b.canonical()


def test_config_kwarg_order_is_irrelevant():
    a = JobSpec.make("test_planarity", n=64, epsilon=0.5, alpha=3)
    b = JobSpec.make("test_planarity", n=64, alpha=3, epsilon=0.5)
    assert a == b
    assert config_digest(a) == config_digest(b)


def test_config_changes_change_identity():
    base = JobSpec.make("test_planarity", n=64, epsilon=0.5)
    assert base != JobSpec.make("test_planarity", n=64, epsilon=0.25)
    assert base != JobSpec.make("test_planarity", n=64, epsilon=0.5, seed=1)
    assert config_digest(base) != config_digest(
        JobSpec.make("test_planarity", n=64, epsilon=0.25)
    )


def test_builtin_kinds_registered():
    kinds = job_kinds()
    for kind in (
        "test_planarity",
        "partition_stage1",
        "partition_randomized",
        "spanner",
        "cycle_freeness",
        "bipartiteness",
    ):
        assert kind in kinds


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown job kind"):
        JobSpec.make("nope")
    with pytest.raises(ValueError, match="unknown job kind"):
        run_job(JobSpec(kind="nope"))


def test_run_job_planarity_record():
    spec = JobSpec.make("test_planarity", family="grid", n=36, epsilon=0.5)
    record = run_job(spec)
    assert record["kind"] == "test_planarity"
    assert record["accepted"] is True
    assert record["n"] == 36
    assert record["rounds"] == record["stage1_rounds"] + record["stage2_rounds"]
    # Records must be flat JSON-serializable primitives.
    import json

    assert json.loads(json.dumps(record)) == record


def test_run_job_is_deterministic():
    spec = JobSpec.make("partition_randomized", family="grid", n=36,
                        epsilon=0.5, delta=0.2, seed=3)
    assert run_job(spec) == run_job(spec)


def test_run_job_far_family():
    spec = JobSpec.make("test_planarity", far="planted-k5", n=80,
                        epsilon=0.1, collect_exact_violations=True)
    record = run_job(spec)
    assert record["graph"] == "far:planted-k5"
    assert record["family"] == "planted-k5"


@pytest.mark.parametrize(
    "graph_kw",
    [{"family": "delaunay", "n": 200}, {"far": "planted-k5", "n": 200}],
    ids=["planar", "far"],
)
def test_planarity_record_matches_partition(graph_kw):
    """The record's partition summaries equal the dict oracle's figures
    for the same Stage I partition."""
    from repro.testers.planarity import test_planarity as run_planarity

    spec = JobSpec.make("test_planarity", epsilon=0.1, **graph_kw)
    record = run_job(spec)
    graph = spec.build_graph()
    state = run_planarity(graph, seed=spec.seed, epsilon=0.1).stage1.partition
    partition = to_partition(state, graph)
    summary = (partition.size, partition.cut_size(), partition.max_height())
    assert (record["parts"], record["cut"], record["max_part_height"]) == summary


def test_run_job_spanner_record():
    spec = JobSpec.make("spanner", family="grid", n=36, epsilon=0.5)
    record = run_job(spec)
    assert record["spanner_edges"] >= record["n"] - 1
    assert record["measured_stretch"] >= 1.0


def test_run_job_applications():
    cycle = run_job(JobSpec.make("cycle_freeness", family="tree", n=40,
                                 epsilon=0.5))
    assert cycle["accepted"] is True
    bip = run_job(JobSpec.make("bipartiteness", family="grid", n=36,
                               epsilon=0.5))
    assert bip["accepted"] is True


def test_partition_record_diameter_matches_oracle():
    """``max_diameter`` in the partition record is the dict oracle's."""
    from repro.partition import partition_stage1

    spec = JobSpec.make(
        "partition_stage1", family="delaunay", n=300, epsilon=0.1, target_cut="eps*n"
    )
    record = run_job(spec)
    graph = spec.build_graph()
    state = partition_stage1(graph, 0.1, target_cut=0.1 * len(graph)).partition
    assert record["max_diameter"] == to_partition(state, graph).max_diameter()
    assert record["max_diameter"] == state.max_diameter(graph)


# -- declared parameters -----------------------------------------------------

SAMPLE_VALUES = {"target_cut": "eps*n", "seeds": (0, 1)}
"""Values for declared names whose default is ``None`` or absent."""


@pytest.mark.parametrize("kind", job_kinds())
def test_every_declared_parameter_is_accepted(kind):
    from repro.runtime.jobs import _DECLARED

    declared = _DECLARED[kind]
    for name, default in declared.items():
        value = SAMPLE_VALUES.get(name, default)
        assert JobSpec.make(kind, **{name: value}).params == {name: value}
    everything = {
        name: SAMPLE_VALUES.get(name, default) for name, default in declared.items()
    }
    assert JobSpec.make(kind, **everything).arguments == everything


@pytest.mark.parametrize("kind", job_kinds())
def test_an_undeclared_parameter_is_refused(kind):
    from repro.runtime.jobs import _DECLARED

    with pytest.raises(ValueError) as exc:
        JobSpec.make(kind, epsilom=0.5)
    message = str(exc.value)
    assert f"job kind {kind!r} takes no parameter epsilom" in message
    for name in _DECLARED[kind]:
        assert name in message.split("it accepts:", 1)[1]


def test_misspelled_epsilon_is_refused_naming_the_accepted_parameters():
    with pytest.raises(ValueError, match="takes no parameter epsilom") as exc:
        JobSpec.make("test_planarity", family="grid", n=36, epsilom=0.5)
    assert str(exc.value).endswith(
        "it accepts: alpha, collect_exact_violations, early_stop, epsilon, "
        "reject_on_embedding_failure, sample_constant"
    )


def test_tester_parameters_are_the_config_fields():
    """test_planarity declares PlanarityTestConfig's fields, defaults
    included, and resolves a spec's arguments against them."""
    import dataclasses

    from repro.testers.planarity import PlanarityTestConfig

    spec = JobSpec.make("test_planarity", epsilon=0.5)
    assert spec.arguments == dataclasses.asdict(PlanarityTestConfig(epsilon=0.5))


def test_sweep_expansion_and_payloads_refuse_undeclared_parameters():
    from repro.runtime import SweepSpec

    sweep = SweepSpec.make(
        "test_planarity", families=["grid"], ns=[36], method=["deterministic"]
    )
    with pytest.raises(ValueError, match="takes no parameter method"):
        sweep.expand()
    bad = JobSpec("test_planarity", family="grid", n=36, config=(("epsilom", 0.5),))
    with pytest.raises(ValueError, match="takes no parameter epsilom"):
        JobSpec.from_payload(bad.to_payload())


def test_worker_refuses_an_undeclared_parameter():
    """The worker rebuilds specs through ``from_payload``: a spec naming
    an undeclared parameter comes back as an error, never a record."""
    from repro.runtime.codec import encode_record
    from repro.runtime.worker import handle_request

    bad = JobSpec("test_planarity", family="grid", n=36, config=(("epsilom", 0.5),))
    payload, _shape = encode_record(bad.to_payload())
    response = handle_request({"spec_pkd": payload})
    assert "record_pkd" not in response
    assert response["error"].startswith(
        "ValueError: job kind 'test_planarity' takes no parameter epsilom"
    )
