"""The disabled bus must not perturb the simulation at all.

``tests/obs/golden_driver.json`` pins the simulated counters of a set
of workload/policy cells. The first three were generated on the code as
it stood *before* any emit hook existed (see the generation note in
this test); the rest add a 16-cluster full-dataset kmeans cell, a
``track_data`` cell and one small cell per protocol kind. Every
simulated counter must still match bit-for-bit: the emit hooks observe,
they never act, and no speed-up may change what is simulated.
"""

import json
import pathlib

import pytest

from repro.analysis.experiments import ExperimentConfig, run_workload
from repro.cli import policy_from_name

GOLDEN = pathlib.Path(__file__).with_name("golden_driver.json")

#: The pinned driver cells (workload, policy, clusters, scale,
#: track_data); each must have an entry under :func:`_key` in the golden
#: file.
CELLS = (("kmeans", "cohesion", 2, 0.25, False),
         ("heat", "swcc", 2, 0.25, False),
         ("gjk", "hwcc-real", 2, 0.25, False),
         ("kmeans", "cohesion", 16, 1.0, False),
         ("kmeans", "swcc", 2, 0.5, False),
         ("sobel", "cohesion", 2, 0.5, False),
         ("heat", "swcc", 2, 0.5, False),
         ("kmeans", "cohesion", 2, 0.5, True))


def _key(workload, policy, clusters, scale, track_data):
    return (f"{workload}/{policy}/c{clusters}/s{scale:g}"
            + ("/track" if track_data else ""))


def _cell_id(cell):
    workload, policy, clusters, scale, track_data = cell
    return (f"{workload}-{policy}-{clusters}-{scale}"
            + ("-track" if track_data else ""))


def _stats_dict(stats):
    """Canonical counter snapshot -- keep in sync with the golden file.

    To regenerate (only after an *intentional* behavior change): run the
    same cells through this function, key each by :func:`_key`, and dump
    with ``indent=2, sort_keys=True`` plus a trailing newline.
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
    @pytest.mark.parametrize("workload,policy,clusters,scale,track_data",
                             CELLS, ids=[_cell_id(cell) for cell in CELLS])
    def test_cell_matches_golden(self, workload, policy, clusters, scale,
                                 track_data):
        golden = json.loads(GOLDEN.read_text())
        exp = ExperimentConfig(n_clusters=clusters, scale=scale,
                               track_data=track_data)
        stats, machine = run_workload(workload, policy_from_name(policy), exp)
        assert _stats_dict(stats) == golden[_key(workload, policy, clusters,
                                                 scale, track_data)]
        # The hot path never even built an event: nothing subscribed.
        assert machine.obs.active is False
        assert machine.obs.emitted == 0

