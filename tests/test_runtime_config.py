"""RunConfig: precedence, env export, and the entry points that take it."""

from __future__ import annotations

import os

import pytest

from repro.runtime import (
    JobSpec,
    ResultCache,
    RunConfig,
    iter_jobs,
    run_jobs,
    run_sweep,
)
from repro.runtime import jobs as jobs_module
from repro.runtime.sweeps import SweepSpec


def _specs(n=2):
    return [
        JobSpec.make("test_planarity", family="grid", n=36, epsilon=0.5, seed=s)
        for s in range(n)
    ]


class TestResolvePrecedence:
    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        assert RunConfig().resolve("sim_batch") == 1

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "8")
        assert RunConfig().resolve("sim_batch") == 8

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "8")
        assert RunConfig(sim_batch=2).resolve("sim_batch") == 2

    def test_auto_batch_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "auto")
        assert RunConfig().resolve("sim_batch") == "auto"
        assert RunConfig(sim_batch="auto").resolve("sim_batch") == "auto"

    def test_unparsable_env_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "banana")
        with pytest.warns(RuntimeWarning, match="unparsable"):
            assert RunConfig().resolve("sim_batch") == 1

    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError, match="unknown runtime knob"):
            RunConfig().resolve("warp_factor")

    def test_resolved_and_overrides(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        config = RunConfig(sim_batch=4)
        assert config.overrides() == {"sim_batch": 4}
        assert config.resolved() == {"sim_batch": 4}
        assert RunConfig().overrides() == {}
        assert RunConfig().resolved() == {"sim_batch": 1}  # default fills gaps

    def test_only_batch_knob(self):
        assert sorted(RunConfig().resolved()) == ["sim_batch"]

    def test_env_var_lookup(self):
        assert RunConfig.env_var("sim_batch") == "REPRO_SIM_BATCH"

    def test_from_env_pins_current_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "6")
        pinned = RunConfig.from_env()
        monkeypatch.setenv("REPRO_SIM_BATCH", "9")
        assert pinned.resolve("sim_batch") == 6  # frozen, not re-read
        assert RunConfig().resolve("sim_batch") == 9

    def test_frozen_and_hashable(self):
        config = RunConfig(sim_batch=2)
        assert hash(config) == hash(RunConfig(sim_batch=2))
        with pytest.raises(AttributeError):
            config.sim_batch = 3


class TestExport:
    def test_export_sets_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        with RunConfig(sim_batch=5).export():
            assert os.environ["REPRO_SIM_BATCH"] == "5"
        assert "REPRO_SIM_BATCH" not in os.environ  # was unset before
        monkeypatch.setenv("REPRO_SIM_BATCH", "auto")
        with RunConfig(sim_batch=7).export():
            assert os.environ["REPRO_SIM_BATCH"] == "7"
        assert os.environ["REPRO_SIM_BATCH"] == "auto"  # restored

    def test_export_skips_unset_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        with RunConfig().export():
            assert "REPRO_SIM_BATCH" not in os.environ

    def test_export_restores_on_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        with pytest.raises(RuntimeError):
            with RunConfig(sim_batch=3).export():
                raise RuntimeError("boom")
        assert "REPRO_SIM_BATCH" not in os.environ


class TestEntryPoints:
    def test_run_jobs_config_no_warning(self, recwarn):
        result = run_jobs(
            _specs(), cache=ResultCache(), config=RunConfig(sim_batch=1)
        )
        assert len(result.records) == 2
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_deprecated_batch_kwargs_removed(self):
        sweep = SweepSpec.make(
            "test_planarity", families=["grid"], ns=[36],
            epsilon=[0.5], seeds=[0],
        )
        with pytest.raises(TypeError, match="batch"):
            run_jobs(_specs(), batch=1)
        with pytest.raises(TypeError, match="batch"):
            run_sweep(sweep, batch=1)
        with pytest.raises(TypeError, match="batch_waste"):
            run_sweep(sweep, batch_waste=4.0)

    def test_run_jobs_exports_config_knobs(self, monkeypatch):
        """``run_jobs``/``iter_jobs`` export the config to job code the
        way ``run_sweep`` does: the job sees the knob, and the
        environment is restored afterwards."""
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        monkeypatch.setitem(
            jobs_module._RUNNERS,
            "env_probe",
            lambda spec, graph: {"seen": os.environ.get("REPRO_SIM_BATCH")},
        )
        config = RunConfig(sim_batch=3)
        probe = [JobSpec.make("env_probe", family="grid", n=36, seed=0)]
        sweep = SweepSpec.make(
            "env_probe", families=["grid"], ns=[36], seeds=[0]
        )
        assert run_jobs(probe, config=config).records[0]["seen"] == "3"
        assert [r["seen"] for _i, r, _hit in iter_jobs(probe, config=config)] == ["3"]
        assert run_sweep(sweep, config=config).records[0]["seen"] == "3"
        assert "REPRO_SIM_BATCH" not in os.environ  # restored

    def test_run_sweep_reads_env_through_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "2")
        sweep = SweepSpec.make(
            "test_planarity", families=["grid"], ns=[36],
            epsilon=[0.5], seeds=[0],
        )
        result = run_sweep(sweep)  # default config resolves the env knob
        assert len(result.records) == 1
