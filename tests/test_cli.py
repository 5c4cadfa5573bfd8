"""The ``python -m repro`` experiment runner."""

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig8", "fig9", "ablations", "seeds", "scale", "faults", "trace",
            "methods",
        }

    def test_run_one_experiment(self, capsys):
        # fig1 is the cheapest full experiment.
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1" in out
        assert "{p1, p2}" in out

    def test_no_cache_flag_sets_env(self, capsys, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        try:
            assert main(["--no-cache", "list"]) == 0
            assert os.environ.get("REPRO_NO_CACHE") == "1"
            from repro.perf.cache import cache_enabled

            assert not cache_enabled()
        finally:
            # main() mutates the real environment; don't leak the flag
            # into later tests.
            os.environ.pop("REPRO_NO_CACHE", None)

    def test_no_cache_flag_documented(self, capsys):
        assert main([]) == 0
        assert "--no-cache" in capsys.readouterr().out

    def test_profile_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # --profile implies --no-cache by setting the real environment;
        # monkeypatch restores it afterwards.
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(["--profile", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1" in out
        assert "cumulative" in out and "function calls" in out
        assert "full profile written to profile.pstats" in out
        assert (tmp_path / "profile.pstats").stat().st_size > 0


class TestListGrouping:
    def test_list_groups_by_subsystem(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper tables & figures" in out
        assert "parameter studies" in out
        assert "subsystem scenarios" in out

    def test_list_shows_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # One-line docstring summaries ride along with the names.
        assert "Table I" in out
        assert "Ablation" in out

    def test_list_mentions_chaos_tool(self, capsys):
        assert main(["list"]) == 0
        assert "chaos" in capsys.readouterr().out

    def test_list_mentions_serve_tool(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "p50/p99" in out


class TestChaosCommand:
    def test_chaos_small_budget(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["chaos", "--budget", "3", "--seed", "0",
                     "--report", str(tmp_path / "r.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "3/3" in out
        report = (tmp_path / "r.jsonl").read_text().strip().splitlines()
        assert len(report) == 4  # one line per scenario + summary
        import json

        assert "summary" in json.loads(report[-1])

    def test_chaos_rejects_negative_budget(self, capsys):
        assert main(["chaos", "--budget", "-1"]) == 2

    def test_chaos_help_does_not_run(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--help"])
        assert exc.value.code == 0
        assert "--shrink" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_tiny_demo(self, capsys):
        # Small enough to finish in seconds; --no-baseline skips the
        # serial timing pass (the benchmark covers the speedup claim).
        assert main(["serve", "--requests", "8", "--groups", "2",
                     "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "=== serve" in out
        assert "p50" in out and "coalescing" in out
        assert "0 failed" in out

    def test_serve_writes_trace(self, capsys, tmp_path):
        trace = tmp_path / "serve_trace.jsonl"
        assert main(["serve", "--requests", "4", "--groups", "1",
                     "--no-baseline", "--trace", str(trace)]) == 0
        assert f"request trace written to {trace}" in capsys.readouterr().out
        from repro.observability.sinks import JSONLSink

        events = JSONLSink.read(trace)
        assert events and all(e.kind == "request" for e in events)

    def test_serve_rejects_bad_counts(self, capsys):
        assert main(["serve", "--requests", "0"]) == 2
        assert main(["serve", "--groups", "0"]) == 2

    def test_serve_help_does_not_run(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "--max-batch" in capsys.readouterr().out
