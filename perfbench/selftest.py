"""Self-test of the benchmark: a short mode of every workload.

Run from the root of a checkout (about two minutes on 2 cores)::

    python3 perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the traced run attributes at least 95% of op time to named
layers and reproduces the expected split, that wrong outputs count as
failed ops, and that the benchmark refuses to run where it should.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT = {
    "tester-planar": {"pool": 3},
    "tester-far": {"pool": 3},
    "service-cold": {"seeds_per_op": 4},
    "service-hit": {},
}


def short_run(name: str, trace: bool) -> dict:
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        result, _raw = run.run_workload(name, 7, 1.0, trace, workdir, **SHORT[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def assert_metrics(result: dict, declared: list) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics(name):
    result = short_run(name, trace=False)
    values = assert_metrics(result, BENCH["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(value > 0 for value in values.values()), values
    assert values["ok_ratio"] == 1.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_per_layer_split(name):
    result = short_run(name, trace=True)
    m = assert_metrics(result, BENCH["per_layer"])
    assert result["correct"]
    assert m["layer_coverage"] >= 0.95, m
    if name == "tester-planar":
        stage2 = sum(v for k, v in m.items()
                     if k.startswith(("testers.", "planarity.")) and k.endswith("_s"))
        assert stage2 > m["trace.op_s"] / 2
        assert m["testers.stage2.parts"] >= 1
    elif name == "tester-far":
        stage1 = sum(v for k, v in m.items()
                     if k.startswith("partition.") and k.endswith("_s"))
        stage1 += m["congest.topology.compile_s"]
        assert stage1 > 0.8 * m["trace.op_s"]
        assert m["testers.stage2.parts"] == 0
    elif name == "service-hit":
        assert m["runtime.store.hit_ratio"] == 1.0
        assert m["runtime.jobs.run_job_calls"] == 0
    else:
        assert m["runtime.store.hit_ratio"] == 0.0
        assert m["runtime.jobs.run_job_calls"] == SHORT[name]["seeds_per_op"] * 3
        assert m["graphs.generate_s"] > 0 and m["runtime.worker.handle_s"] > 0


def test_unwrapped_service_cost_lowers_coverage(monkeypatch):
    from repro.runtime.service import SweepService

    real = SweepService._finish_session

    async def finish_late(self, session):
        time.sleep(0.05)  # blocks the service loop, inside no layer span
        await real(self, session)

    monkeypatch.setattr(SweepService, "_finish_session", finish_late)
    result = short_run("service-hit", trace=True)
    assert result["correct"]
    assert result["metrics"]["layer_coverage"]["value"] < 0.95


def test_wrong_verdict_counts_as_failed(monkeypatch):
    from repro.testers import planarity

    real = planarity.test_planarity
    calls = []

    def rejects_every_other_graph(graph, *args, **kwargs):
        result = real(graph, *args, **kwargs)
        calls.append(1)
        if len(calls) % 2:
            return result
        return dataclasses.replace(result, accepted=False, rejected_stage="stage2")

    monkeypatch.setattr(planarity, "test_planarity", rejects_every_other_graph)
    result = short_run("tester-planar", trace=False)
    failed, attempted = result["failed"], result["attempted"]
    assert not result["correct"] and 0 < failed <= attempted
    ok_ratio = result["metrics"]["ok_ratio"]["value"]
    assert ok_ratio == pytest.approx(1 - failed / attempted)


def test_wrong_record_counts_as_failed(monkeypatch):
    owner, leaf = tracing.resolve("repro.runtime.client", "decode_record")
    real = getattr(owner, leaf)

    def flips_one_record(payload, *args, **kwargs):
        record = real(payload, *args, **kwargs)
        if isinstance(record, dict) and record.get("family") == "grid":
            record = dict(record, rounds=record["rounds"] + 1)
        return record

    monkeypatch.setattr(owner, leaf, flips_one_record)
    result = short_run("service-hit", trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_non_default_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_PARTITION_ENGINE", "auto")
    assert run.environment_problems() == []
    monkeypatch.setenv("REPRO_PARTITION_ENGINE", "legacy")
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    problems = run.environment_problems()
    assert any("REPRO_PARTITION_ENGINE" in p for p in problems)
    assert any("REPRO_TELEMETRY" in p for p in problems)


def test_fails_without_program_sources():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tester-far",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
