"""Tests for analysis helpers and the CLI."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    Table,
    fit_rounds_vs_log_n,
    format_cell,
    geometric_mean,
    linear_fit,
    wilson_interval,
)
from repro.cli import main


class TestStats:
    def test_wilson_contains_proportion(self):
        lo, hi = wilson_interval(8, 10)
        assert lo <= 0.8 <= hi
        assert 0 <= lo <= hi <= 1

    def test_wilson_extremes(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0

    def test_wilson_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)

    def test_linear_fit_exact(self):
        fit = linear_fit([1, 2, 3], [3, 5, 7])
        assert fit.slope == pytest.approx(2)
        assert fit.intercept == pytest.approx(1)
        assert fit.r_squared == pytest.approx(1)
        assert fit.predict(10) == pytest.approx(21)

    def test_linear_fit_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])
        with pytest.raises(ValueError):
            linear_fit([1, 1], [2, 3])

    def test_log_fit(self):
        ns = [2**k for k in range(5, 10)]
        rounds = [10 * math.log2(n) + 3 for n in ns]
        fit = fit_rounds_vs_log_n(ns, rounds)
        assert fit.slope == pytest.approx(10)
        assert fit.r_squared > 0.999

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1, -2])


class TestTable:
    def test_render_contains_cells(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, 2.5)
        text = table.render()
        assert "Demo" in text and "2.5" in text

    def test_row_arity_checked(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_markdown(self):
        table = Table("Demo", ["a"])
        table.add_row("x")
        md = table.to_markdown()
        assert md.startswith("### Demo")
        assert "| x |" in md

    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(0.12349) == "0.123"
        assert format_cell(1234567) == "1,234,567"
        assert format_cell(1234.5) == "1,234"
        assert format_cell("s") == "s"
        assert format_cell(0.0) == "0"


class TestCLI:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "delaunay" in out and "gnp" in out

    def test_test_planar_accepts(self, capsys):
        code = main(["test", "--family", "grid", "--n", "100", "--epsilon", "0.3"])
        assert code == 0
        assert "accept" in capsys.readouterr().out

    def test_test_far_rejects(self, capsys):
        code = main(
            ["test", "--far", "gnp", "--n", "120", "--epsilon", "0.2", "--seed", "1"]
        )
        assert code == 1
        assert "REJECT" in capsys.readouterr().out

    def test_partition_command(self, capsys):
        assert main(["partition", "--family", "grid", "--n", "100"]) == 0
        assert "parts" in capsys.readouterr().out

    def test_partition_randomized(self, capsys):
        code = main(
            ["partition", "--family", "grid", "--n", "100", "--method", "randomized"]
        )
        assert code == 0

    def test_spanner_command(self, capsys):
        assert main(["spanner", "--family", "grid", "--n", "100"]) == 0
        assert "stretch" in capsys.readouterr().out

    def test_applications_command(self, capsys):
        assert main(["applications", "--family", "tri-grid", "--n", "80"]) == 0
        out = capsys.readouterr().out
        assert "cycle-freeness" in out and "bipartiteness" in out

    def test_lower_bound_command(self, capsys):
        assert main(["lower-bound", "--n", "200"]) == 0
        assert "girth" in capsys.readouterr().out

    def test_analyze_flag(self, capsys):
        code = main(
            ["test", "--far", "planted-k5", "--n", "120", "--epsilon", "0.1",
             "--analyze", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "Planarity test" in out


class TestSweepCLI:
    def test_sweep_simulate_batched_matches_unbatched(self, capsys):
        """A simulate sweep prints the same table with and without
        ``--batch``: every vectorizable trial is batch-eligible."""
        argv = ["sweep", "--kind", "simulate", "--programs", "bfs,storm",
                "--families", "grid", "--ns", "36", "--seeds", "0,1"]
        assert main(argv) == 0
        scalar = capsys.readouterr().out
        assert main(argv + ["--batch", "4"]) == 0
        assert capsys.readouterr().out == scalar
        assert "storm" in scalar and "profile" not in scalar

    def test_sweep_test_kind_still_works(self, capsys):
        code = main(
            ["sweep", "--kind", "test", "--families", "grid", "--ns", "36",
             "--epsilons", "0.5", "--seeds", "0"]
        )
        assert code == 0
        assert "jobs=1" in capsys.readouterr().out

    def test_sweep_rejects_unknown_profile(self, capsys):
        """``--profile`` is gone: any value is an argparse error."""
        for profile in ("warp", "fast", "faithful"):
            with pytest.raises(SystemExit) as exc:
                main(
                    ["sweep", "--kind", "simulate", "--families", "grid",
                     "--ns", "36", "--profile", profile]
                )
            assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_sweep_shard_and_resume_workflow(self, capsys, tmp_path):
        """Two shard runs fill one store; the final --resume run is a
        100% hit (executed=0) covering the whole grid."""
        store = str(tmp_path / "cache")
        base = ["sweep", "--kind", "test", "--families", "grid",
                "--ns", "36,64", "--epsilons", "0.5,0.25", "--seeds", "0",
                "--cache-dir", store]
        assert main(base + ["--shard", "0/2"]) == 0
        shard0 = capsys.readouterr().out
        assert "shard 0/2" in shard0
        assert main(base + ["--shard", "1/2"]) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "jobs=4 executed=0" in out
        assert "cache: hits=4" in out

    @pytest.mark.parametrize("raw", ["-3", "0", "abc"])
    def test_sweep_rejects_bad_batch(self, capsys, raw):
        """``--batch`` goes through the one batch parser: anything but a
        positive int or ``auto`` is an argparse error, not a silent
        unbatched run."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "simulate", "--families", "grid",
                  "--ns", "36", f"--batch={raw}"])
        assert exc.value.code == 2
        assert "batch limit" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["0", "-0.1", "1.5", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--family", "grid", "--n", "36", "--epsilon"],
            ["sweep", "--kind", "test", "--families", "grid", "--ns", "36",
             "--epsilons"],
            ["submit", "--kind", "test", "--families", "grid", "--ns", "36",
             "--epsilons"],
        ],
        ids=["test", "sweep", "submit"],
    )
    def test_epsilon_outside_unit_interval_is_a_usage_error(
        self, capsys, monkeypatch, argv, raw
    ):
        """``--epsilon`` and every ``--epsilons`` value must lie in
        ``(0, 1]``: anything else exits 2 at parse time, before a sweep
        runs, instead of a traceback from the partition."""
        import repro.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("a sweep ran on a bad epsilon")

        monkeypatch.setattr(cli, "run_sweep", never)
        monkeypatch.setattr(cli, "Client", never)
        value = raw if argv[0] == "test" else f"0.5,{raw}"
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].endswith(f"epsilon must be in (0, 1], got {raw}")

    @pytest.mark.parametrize("raw", ["0", "1", "-0.1", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--family", "grid", "--n", "36", "--method",
             "randomized", "--delta"],
            ["sweep", "--kind", "partition-randomized", "--families", "grid",
             "--ns", "36", "--deltas"],
            ["submit", "--kind", "partition-randomized", "--families", "grid",
             "--ns", "36", "--deltas"],
        ],
        ids=["partition", "sweep", "submit"],
    )
    def test_delta_outside_open_unit_interval_is_a_usage_error(
        self, capsys, monkeypatch, argv, raw
    ):
        """``--delta`` and every ``--deltas`` value must lie in
        ``(0, 1)``: anything else exits 2 at parse time instead of a
        traceback from the randomized partition."""
        import repro.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("a sweep ran on a bad delta")

        monkeypatch.setattr(cli, "run_sweep", never)
        monkeypatch.setattr(cli, "Client", never)
        value = raw if argv[0] == "partition" else f"0.5,{raw}"
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].endswith(f"delta must be in (0, 1), got {raw}")

    @pytest.mark.parametrize("command", ["sweep", "submit"])
    @pytest.mark.parametrize(
        "extra",
        [
            ["--kind", "test", "--methods", "deterministic"],
            ["--kind", "test", "--methods", "deterministic,randomized"],
            ["--kind", "partition", "--deltas", "0.1"],
        ],
        ids=["methods", "two-methods", "deltas"],
    )
    def test_parameter_the_kind_does_not_take_is_a_usage_error(
        self, capsys, monkeypatch, command, extra
    ):
        """A grid axis the kind declares no parameter for exits 2 before
        any job runs, instead of running one job per ignored value."""
        import repro.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("a sweep ran with an undeclared parameter")

        monkeypatch.setattr(cli, "run_sweep", never)
        monkeypatch.setattr(cli, "Client", never)
        with pytest.raises(SystemExit) as exc:
            main([command, "--families", "grid", "--ns", "36"] + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "takes no parameter" in err and "it accepts:" in err

    def test_sweep_shard_argument_validation(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--shard", "2/2"])
        with pytest.raises(SystemExit):
            main(["sweep", "--shard", "nope"])

    def test_sweep_resume_requires_cache_dir(self):
        with pytest.raises(SystemExit, match="--resume needs --cache-dir"):
            main(["sweep", "--kind", "test", "--families", "grid",
                  "--ns", "36", "--epsilons", "0.5", "--resume"])

    def test_sweep_async_backend(self, capsys):
        """The async backend is gone: argparse rejects the choice."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--kind", "test", "--families", "grid",
                  "--ns", "36", "--epsilons", "0.5", "--backend", "async"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'async'" in capsys.readouterr().err
