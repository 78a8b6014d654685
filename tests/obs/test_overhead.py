"""The disabled bus must not perturb the simulation at all.

``tests/obs/golden_driver.json`` was generated by driving three pinned
workload/policy cells on the code as it stood *before* any emit hook
existed (see the generation note in this test). Every simulated counter
must still match bit-for-bit: the emit hooks observe, they never act.
A second guard runs the pinned bench matrix against the committed
``benchmarks/baseline.json`` with the behavioral (exact-counter) grade.
"""

import json
import pathlib

import pytest

from repro.analysis.experiments import ExperimentConfig, run_workload
from repro.cli import policy_from_name

from tests.conftest import needs_numpy

GOLDEN = pathlib.Path(__file__).with_name("golden_driver.json")

#: The pinned driver cells; must match the golden file's keys.
CELLS = (("kmeans", "cohesion", 2, 0.25),
         ("heat", "swcc", 2, 0.25),
         ("gjk", "hwcc-real", 2, 0.25))


def _stats_dict(stats):
    """Canonical counter snapshot -- keep in sync with the golden file.

    To regenerate (only after an *intentional* behavior change): run the
    same cells through this function and dump with ``indent=2,
    sort_keys=True`` plus a trailing newline.
    """
    return {
        "cycles": stats.cycles,
        "tasks": stats.tasks_executed,
        "ops": stats.ops_executed,
        "barriers": stats.barriers,
        "messages": {t.value: c for t, c in stats.message_breakdown().items()},
        "l3_hits": stats.l3_hits,
        "l3_misses": stats.l3_misses,
        "dram_accesses": stats.dram_accesses,
        "network_messages": stats.network_messages,
        "fine_table_lookups": stats.fine_table_lookups,
        "dir_avg_entries": stats.dir_avg_entries,
        "dir_max_entries": stats.dir_max_entries,
        "dir_evictions": stats.dir_evictions,
        "wb_issued": stats.messages.wb_issued,
        "inv_issued": stats.messages.inv_issued,
    }


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("workload,policy,clusters,scale", CELLS)
    def test_cell_matches_golden(self, workload, policy, clusters, scale):
        golden = json.loads(GOLDEN.read_text())
        exp = ExperimentConfig(n_clusters=clusters, scale=scale)
        stats, machine = run_workload(workload, policy_from_name(policy), exp)
        assert _stats_dict(stats) == golden[f"{workload}/{policy}"]
        # The hot path never even built an event: nothing subscribed.
        assert machine.obs.active is False
        assert machine.obs.emitted == 0


@needs_numpy
class TestBenchBaseline:
    def test_compare_against_committed_baseline(self):
        from repro.bench import (compare_runs, default_baseline_path,
                                 run_bench, select_specs)

        baseline = json.loads(default_baseline_path().read_text())
        # Two cheap cells are enough to exercise the compare machinery;
        # the full matrix runs in CI. The wall threshold is deliberately
        # huge -- this test grades *behavior* (cycles/ops/tasks must be
        # exact), not machine speed.
        doc = run_bench(select_specs("heat-swcc-c2,gjk-hwcc-c2"), jobs=1)
        result = compare_runs(baseline, doc, threshold=20.0)
        assert result.ok, format(result)

    def test_bench_cells_carry_metrics(self):
        from repro.bench import run_bench, select_specs

        doc = run_bench(select_specs("heat-swcc-c2"), jobs=1)
        metrics = doc["cells"]["heat-swcc-c2"]["metrics"]
        assert metrics["cycles"] == doc["cells"]["heat-swcc-c2"]["cycles"]
        assert metrics["total_messages"] > 0
        assert "useful_wb_fraction" in metrics
