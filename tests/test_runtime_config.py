"""RunConfig: precedence, the batch parser, and the entry points."""

from __future__ import annotations

import dataclasses

import pytest

from repro.runtime import JobSpec, RunConfig, run_jobs, run_sweep
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

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_non_positive_env_warns_and_defaults(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SIM_BATCH", raw)
        with pytest.warns(RuntimeWarning, match="at least 1"):
            assert RunConfig().resolve("sim_batch") == 1

    def test_explicit_string_goes_through_the_parser(self):
        assert RunConfig(sim_batch="8").resolve("sim_batch") == 8
        assert RunConfig(sim_batch=" AUTO ").resolve("sim_batch") == "auto"
        with pytest.raises(ValueError, match="at least 1"):
            RunConfig(sim_batch="0").resolve("sim_batch")

    def test_only_batch_knob(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == ["sim_batch"]

    def test_env_var_lookup(self):
        assert RunConfig.env_var("sim_batch") == "REPRO_SIM_BATCH"

    def test_frozen_and_hashable(self):
        config = RunConfig(sim_batch=2)
        assert hash(config) == hash(RunConfig(sim_batch=2))
        with pytest.raises(AttributeError):
            config.sim_batch = 3


class TestEntryPoints:
    def test_run_jobs_config_no_warning(self, recwarn):
        result = run_jobs(_specs(), config=RunConfig(sim_batch=1))
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

    def test_run_sweep_reads_env_through_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "2")
        sweep = SweepSpec.make(
            "test_planarity", families=["grid"], ns=[36],
            epsilon=[0.5], seeds=[0],
        )
        result = run_sweep(sweep)  # default config resolves the env knob
        assert len(result.records) == 1
