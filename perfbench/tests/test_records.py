import copy

import records
import simload
from cells import SIM_WORKLOADS


def _recorded_run():
    recorded = records.load()
    label = SIM_WORKLOADS["swcc-local"][0].label
    stats = recorded["1234"]["swcc-local"][label]
    run = simload.CellRun(label, label, 1.0, stats["ops_executed"],
                          copy.deepcopy(stats), 0)
    return recorded["1234"]["swcc-local"], run


def test_every_cell_is_recorded_for_every_recorded_seed():
    recorded = records.load()
    assert records.RECORDED_SEEDS[:2] == (1234, 4321)
    assert set(recorded) == {str(seed) for seed in records.RECORDED_SEEDS}
    for seed in records.RECORDED_SEEDS:
        for workload, cells in SIM_WORKLOADS.items():
            assert set(recorded[str(seed)][workload]) == \
                {cell.label for cell in cells}
        assert recorded[str(seed)]["serve-mixed"]
    assert records.expected_for(recorded, 99991, "swcc-local") is None


def test_recorded_check_passes_the_recorded_statistics():
    expected, run = _recorded_run()
    assert simload._check(run, expected[run.label], None) == []


def test_recorded_check_fails_a_perturbed_statistic():
    expected, run = _recorded_run()
    run.stats["cycles"] += 1
    errors = simload._check(run, expected[run.label], None)
    assert len(errors) == 1 and "cycles" in errors[0]
    assert records.diff(expected[run.label], run.stats) == ["cycles"]


def test_determinism_and_data_checks_fail():
    expected, run = _recorded_run()
    earlier = copy.deepcopy(run.stats)
    earlier["l3_misses"] -= 1
    run.mismatches = 2
    errors = simload._check(run, None, earlier)
    assert any("load mismatch" in e for e in errors)
    assert any("l3_misses" in e for e in errors)
