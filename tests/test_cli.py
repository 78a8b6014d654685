"""Command-line interface."""

import pytest

from repro.cli import build_parser, main, policy_from_name
from repro.types import DirectoryKind, PolicyKind

from tests.conftest import needs_numpy


class TestPolicyNames:
    def test_all_names_resolve(self):
        for name in ("swcc", "hwcc-ideal", "hwcc-real", "hwcc-dir4b",
                     "cohesion", "cohesion-ideal", "cohesion-dir4b"):
            policy = policy_from_name(name)
            assert policy is not None

    def test_kinds(self):
        assert policy_from_name("swcc").kind is PolicyKind.SWCC
        assert policy_from_name("hwcc-real").kind is PolicyKind.HWCC
        assert policy_from_name("cohesion").kind is PolicyKind.COHESION
        assert policy_from_name("hwcc-dir4b").directory is DirectoryKind.DIR4B
        assert policy_from_name("cohesion-dir4b").directory is DirectoryKind.DIR4B
        assert policy_from_name("cohesion-ideal").directory is DirectoryKind.INFINITE

    def test_sizing_forwarded(self):
        policy = policy_from_name("hwcc-real", entries=512, assoc=8)
        assert policy.dir_entries_per_bank == 512
        assert policy.dir_assoc == 8

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            policy_from_name("mesi")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "heat"])
        assert args.policy == "cohesion"
        assert args.clusters is None

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "linpack"])


class TestCommands:
    def test_run_command(self, capsys):
        code = main(["run", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gjk under cohesion" in out
        assert "total L2->L3 msgs" in out

    def test_run_with_track_data(self, capsys):
        code = main(["run", "--workload", "mri", "--clusters", "1",
                     "--scale", "0.1", "--track-data", "--policy", "swcc"])
        assert code == 0

    def test_run_with_check(self, capsys):
        code = main(["run", "--workload", "sobel", "--clusters", "1",
                     "--scale", "0.1", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariant checks:" in out and "0 violation(s)" in out

    def test_run_json(self, capsys):
        import json

        code = main(["run", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["workload"] == "gjk"
        assert doc["stats"]["cycles"] > 0
        assert doc["metrics"]["total_messages"] == \
            doc["stats"]["total_messages"]

    def test_run_json_with_check(self, capsys):
        import json

        code = main(["run", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--json", "--check"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["invariant_checks"] > 0
        assert doc["invariant_violations"] == []

    def test_trace_command(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code = main(["trace", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--out", str(out_path),
                     "--self-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "self-check: valid Chrome-trace JSON" in out
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["workload"] == "gjk"
        assert doc["otherData"]["metrics"]["dir_occupancy"]["allocs"] > 0

    def test_trace_max_events(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code = main(["trace", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--out", str(out_path),
                     "--max-events", "100", "--self-check"])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["otherData"]["captured_events"] == 100
        assert doc["otherData"]["dropped_events"] > 0

    def test_compare_command(self, capsys):
        code = main(["compare", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SWcc" in out and "HWccReal" in out
        assert "runtime and directory pressure" in out

    def test_sweep_command(self, capsys):
        code = main(["sweep", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--sizes", "64,512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HWcc" in out and "Cohesion" in out

    def test_area_command(self, capsys):
        code = main(["area"])
        out = capsys.readouterr().out
        assert code == 0
        assert "full-map" in out and "Dir4B" in out
        assert "2048 ways" in out

    def test_info_command(self, capsys):
        code = main(["info", "--clusters", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "16" in out  # 2 clusters x 8 cores

    def test_workloads_command(self, capsys):
        code = main(["workloads"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("cg", "dmm", "gjk", "heat", "kmeans", "mri",
                     "sobel", "stencil"):
            assert name in out

    def test_lint_single_workload(self, capsys):
        code = main(["lint", "sobel", "--clusters", "1", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint sobel [swcc]" in out
        assert "lint sobel [cohesion]" in out
        assert "linted 3 program(s): 0 error(s), 0 warning(s)" in out

    @needs_numpy
    def test_lint_all_json(self, capsys):
        import json

        code = main(["lint", "--all", "--policy", "cohesion", "--json",
                     "--clusters", "1", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 8
        assert all(r["clean"] for r in reports)

    def test_lint_rule_filter(self, capsys):
        code = main(["lint", "gjk", "--policy", "swcc",
                     "--rules", "coh001,coh003",
                     "--clusters", "1", "--scale", "0.1"])
        assert code == 0

    def test_lint_without_workload_rejected(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_unknown_rule_clean_error(self, capsys):
        code = main(["lint", "gjk", "--policy", "swcc", "--clusters", "1",
                     "--scale", "0.1", "--rules", "COH999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown lint rule 'COH999'" in err

    def test_analyze_single_workload(self, capsys):
        code = main(["analyze", "sobel", "--clusters", "1",
                     "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "analyze sobel [swcc]" in out
        assert "analyze sobel [cohesion]" in out
        assert "analyzed 3 artifact(s): 0 error(s), 0 warning(s)" in out
        assert "redundant_wb_sites=0" in out

    @needs_numpy
    def test_analyze_all_json(self, capsys):
        import json

        code = main(["analyze", "--all", "--policy", "cohesion", "--json",
                     "--clusters", "1", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 8
        assert all(r["clean"] for r in reports)
        assert all(r["summary"]["COH007"] == 0 for r in reports)

    def test_analyze_artifact_machine_free(self, tmp_path, capsys):
        from repro.analyze import analyze_workload
        from repro.cache import dump_artifact
        from repro.cli import policy_from_name
        from repro.analysis.experiments import ExperimentConfig

        _report, frozen, _machine = analyze_workload(
            "gjk", policy=policy_from_name("cohesion"),
            exp=ExperimentConfig(n_clusters=1, scale=0.2))
        path = tmp_path / "gjk.pkl"
        dump_artifact(frozen, path)
        code = main(["analyze", "--artifact", str(path),
                     "--policy", "cohesion"])
        out = capsys.readouterr().out
        assert code == 0
        assert "analyze gjk [cohesion]" in out

    def test_analyze_advise_out(self, tmp_path, capsys):
        import json

        advice_path = tmp_path / "advice.json"
        code = main(["analyze", "stencil", "--policy", "cohesion",
                     "--clusters", "1", "--scale", "0.2", "--advise",
                     "--advise-out", str(advice_path)])
        assert code == 0
        [doc] = json.loads(advice_path.read_text())
        assert doc["schema"] == 1 and doc["program"] == "stencil"
        assert doc["regions"]

    def test_analyze_summary_appended(self, tmp_path, capsys):
        summary = tmp_path / "summary.md"
        code = main(["analyze", "gjk", "--policy", "swcc", "--clusters",
                     "1", "--scale", "0.2", "--summary", str(summary)])
        assert code == 0
        text = summary.read_text()
        assert "| program | policy |" in text
        assert "| gjk | swcc | 0 | 0 | 0 | 0 |" in text

    def test_analyze_schedule_drives_coh010(self, tmp_path, capsys):
        # An artifact that leaves an unflushed dirty SWcc copy behind,
        # plus a schedule moving that region to hardware: COH010 errors.
        import json

        from repro.cache import dump_artifact
        from repro.runtime.program import Phase, Program, Task
        from repro.types import OP_STORE

        addr = 0x4000_0000
        prog = Program(name="unsafe", phases=[Phase(
            name="w", tasks=[Task(ops=[(OP_STORE, addr, 1)],
                                  flush_lines=[], input_lines=[],
                                  stack_words=0)], code_lines=0)])
        artifact = tmp_path / "unsafe.pkl"
        dump_artifact(prog.freeze(), artifact)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps([
            {"phase": 0, "action": "to_hwcc", "base": addr, "size": 64}]))
        code = main(["analyze", "--artifact", str(artifact),
                     "--policy", "cohesion", "--schedule", str(sched),
                     "--rules", "COH010"])
        out = capsys.readouterr().out
        assert code == 1
        assert "COH010" in out and "unflushed-dirty" in out

    def test_analyze_without_workload_rejected(self, capsys):
        assert main(["analyze"]) == 2

    def test_analyze_bad_artifact_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"junk")
        code = main(["analyze", "--artifact", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "analyze:" in err

    def test_analyze_unknown_rule_clean_error(self, capsys):
        code = main(["analyze", "gjk", "--policy", "swcc", "--clusters",
                     "1", "--scale", "0.1", "--rules", "COH999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown analyze rule 'COH999'" in err

    def test_figures_single(self, tmp_path, capsys):
        code = main(["figures", "sec44", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sec44.txt").exists()

    @needs_numpy
    def test_figures_fig03(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTERS", "1")
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        code = main(["figures", "fig03", "--out", str(tmp_path),
                     "--clusters", "1", "--scale", "0.1"])
        assert code == 0
        text = (tmp_path / "fig03.txt").read_text()
        assert "8K" in text and "128K" in text


class TestFriendlyErrors:
    def test_bad_env_is_one_line_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        code = main(["info"])
        err = capsys.readouterr().err
        assert code == 2
        assert "REPRO_SCALE must be a positive number" in err
        assert "Traceback" not in err


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _own_cache(self, tmp_path, monkeypatch):
        from repro.cache import RESULT_STATS

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        RESULT_STATS.reset()  # process-global; earlier tests count too

    def _populate(self):
        assert main(["sweep", "--workload", "gjk", "--sizes", "256",
                     "--clusters", "2", "--scale", "0.12", "--quiet"]) == 0

    def test_stats_empty(self, capsys):
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "programs" in out

    def test_stats_json(self, capsys):
        import json
        assert main(["cache", "stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["enabled"] is True
        assert report["results"]["entries"] == 0

    def test_sweep_reports_cache_line(self, capsys):
        self._populate()
        err = capsys.readouterr().err
        assert "sweep: cell cache: hits=0 misses=" in err
        self._populate()
        assert "hits=" in capsys.readouterr().err

    def test_verify_clean_then_corrupt(self, tmp_path, capsys):
        self._populate()
        assert main(["cache", "verify"]) == 0
        entry = next((tmp_path / "cache" / "results").rglob("*.json"))
        entry.write_text("{broken")
        assert main(["cache", "verify"]) == 1
        assert "problem" in capsys.readouterr().out

    def test_clear_removes_everything(self, tmp_path, capsys):
        self._populate()
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert not (tmp_path / "cache" / "results").exists()
        assert not (tmp_path / "cache" / "programs").exists()

    def test_bad_repro_cache_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        assert main(["cache"]) == 2
        assert "REPRO_CACHE" in capsys.readouterr().err
