"""The interleaved A/B script (tools/ab.py), driven through a fake host.

The fake stands in for every git call and child process, so these tests
start none.
"""

import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import ab  # noqa: E402

#: The BASE side's root; the fake never reads it, HEAD's is the real tree.
BASE_ROOT = REPO / "base-side"


class FakeHost:
    """Records every run; answers with scripted metrics and outputs."""

    def __init__(self, differs=False, ops=None, correct=True, stdout=None):
        self.differs = differs
        self.ops = ops or {"base": 100.0, "head": 150.0}
        self.correct = correct
        self.stdout = stdout or {"base": b"{}\n", "head": b"{}\n"}
        self.runs = []
        self.closed = False

    def bench_differs(self, base, head):
        return self.differs

    def checkout(self, rev, side):
        return BASE_ROOT if side == "base" else REPO

    def close(self):
        self.closed = True

    def perfbench(self, root, workload, seconds, out):
        side = "base" if root == BASE_ROOT else "head"
        self.runs.append((side, workload, seconds))
        metrics = {"sim_ops_per_s": self.ops[side], "peak_rss_mb": 80.0,
                   "setup_s": 0.5}
        return {"correct": self.correct(side, len(self.runs))
                if callable(self.correct) else self.correct,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    def compare(self, root, base, head):
        return "compare.py table"

    def run_cell(self, root, argv):
        side = "base" if root == BASE_ROOT else "head"
        self.runs.append((side, tuple(argv)))
        return self.stdout[side], 2.0, 90.0, 0


def run(argv, host, capsys):
    code = ab.main(argv, host=host)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPairs:
    def test_first_side_alternates(self, tmp_path, capsys):
        host = FakeHost()
        code, _, _ = run(["BASE", "--workloads", "dir-pressure",
                          "--pairs", "4", "--out", str(tmp_path)],
                         host, capsys)
        assert code == 0
        assert [side for side, *_ in host.runs] == [
            "base", "head", "head", "base", "base", "head", "head", "base"]
        assert host.closed

    def test_run_length_defaults_to_benchmark(self, tmp_path, capsys):
        host = FakeHost()
        run(["BASE", "--workloads", "swcc-local", "--pairs", "1",
             "--out", str(tmp_path)], host, capsys)
        assert {seconds for *_, seconds in host.runs} == {20}

    def test_table_reports_ratios_wins_and_interval(self, tmp_path, capsys):
        host = FakeHost()
        code, out, _ = run(["BASE", "--workloads", "dir-pressure", "--pairs",
                            "3", "--out", str(tmp_path)], host, capsys)
        assert code == 0
        assert "compare.py table" in out
        row = next(line for line in out.splitlines()
                   if "| sim_ops_per_s" in line)
        assert "| 1.500 | [1.500, 1.500] | 3:0 | 1.500 1.500 1.500 |" in row
        assert row.endswith("| better |")


class TestStatistics:
    def test_ties_count_for_neither_side(self):
        assert ab.win_count([1.0, 1.2, 0.9, 1.0], "higher") == (1, 1)
        assert ab.win_count([1.0, 1.2, 0.9, 0.8], "lower") == (2, 1)

    def test_bootstrap_interval_is_deterministic(self):
        ratios = [1.41, 1.52, 1.38, 1.60, 1.47, 1.44, 1.55, 1.49]
        first = ab.bootstrap_interval(ratios)
        assert first == ab.bootstrap_interval(list(ratios))
        low, high = first
        assert min(ratios) <= low <= high <= max(ratios)

    @pytest.mark.parametrize("better,low,high,word", [
        ("higher", 0.70, 0.74, "regressed"),
        ("higher", 0.70, 0.80, "worse, within bound"),
        ("higher", 0.90, 1.10, "within noise"),
        ("higher", 1.10, 1.30, "better"),
        ("lower", 1.26, 1.40, "regressed"),
        ("lower", 1.20, 1.40, "worse, within bound"),
        ("lower", 0.80, 0.90, "better"),
    ])
    def test_regressed_only_when_whole_interval_beyond_bound(
            self, better, low, high, word):
        assert ab.verdict(better, 0.25, low, high) == word

    def test_regressed_row_fails_the_run(self, tmp_path, capsys):
        host = FakeHost(ops={"base": 100.0, "head": 60.0})
        code, out, _ = run(["BASE", "--workloads", "hwcc-replay", "--pairs",
                            "2", "--out", str(tmp_path)], host, capsys)
        assert code == 1
        assert "| regressed |" in out


class TestRefusals:
    def test_run_not_correct_exits_1(self, tmp_path, capsys):
        host = FakeHost(correct=lambda side, n: n != 3)
        code, _, _ = run(["BASE", "--workloads", "swcc-local",
                          "--pairs", "3", "--out", str(tmp_path)],
                         host, capsys)
        assert code == 1
        assert len(host.runs) == 3   # stops at the first bad run

    def test_benchmark_code_differs_exits_2(self, tmp_path, capsys):
        host = FakeHost(differs=True)
        code, _, err = run(["BASE", "HEAD", "--out", str(tmp_path)], host,
                            capsys)
        assert code == 2
        assert host.runs == []
        assert "must be the same on both sides" in err

    def test_used_result_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "base").mkdir()
        (tmp_path / "base" / "old.json").write_text("{}")
        host = FakeHost()
        code, _, _ = run(["BASE", "--out", str(tmp_path)], host, capsys)
        assert code == 2
        assert host.runs == []

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["BASE", "--workloads", "nope", "--out",
                          str(tmp_path)], FakeHost(), capsys)
        assert code == 2


class TestCells:
    def test_identical_json_passes_and_reports_wall_and_rss(self, capsys):
        host = FakeHost()
        code, out, _ = run(["BASE", "--cells", "kmeans:cohesion:16",
                            "--pairs", "2"], host, capsys)
        assert code == 0
        assert host.runs[0][1] == ("run", "--workload", "kmeans",
                                   "--policy", "cohesion", "--clusters",
                                   "16", "--json")
        assert "| kmeans:cohesion:16 | wall_s" in out
        assert "| kmeans:cohesion:16 | peak_rss_mb" in out

    def test_differing_json_fails(self, capsys):
        host = FakeHost(stdout={"base": b'{"cycles": 1}\n',
                                "head": b'{"cycles": 2}\n'})
        code, _, _ = run(["BASE", "--cells", "kmeans:cohesion:16",
                          "--pairs", "2"], host, capsys)
        assert code == 1
        assert len(host.runs) == 2

    def test_bad_cell_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            ab.main(["BASE", "--cells", "kmeans:cohesion"], host=FakeHost())
        assert exc.value.code == 2
