"""Metrics samplers, the registry, and the stats-derived metrics block."""

import pytest

from repro import Policy
from repro.obs.bus import (EV_DIR_ALLOC, EV_DIR_EVICT, EV_DIR_FREE, EV_FLUSH,
                           EV_INV, EV_MSG, ObsEvent)
from repro.obs.metrics import (CounterSeries, DirectoryOccupancySampler,
                               FlushUsefulnessSampler, GaugeSeries,
                               MessageRateSampler, MetricsRegistry,
                               stats_metrics)

from tests.conftest import needs_numpy


class TestSeries:
    def test_counter_series_buckets(self):
        series = CounterSeries(interval=100.0)
        series.add(10.0)
        series.add(20.0)
        series.add(150.0, weight=3.0)
        doc = series.as_dict()
        assert doc["t"] == [0.0, 100.0]
        assert doc["count"] == [2.0, 3.0]

    def test_gauge_series_last_and_peak(self):
        series = GaugeSeries(interval=100.0)
        series.sample(10.0, 5.0)
        series.sample(20.0, 9.0)
        series.sample(30.0, 2.0)   # last wins, peak stays 9
        doc = series.as_dict()
        assert doc["value"] == [2.0]
        assert doc["peak"] == [9.0]
        assert doc["max"] == 9.0


class TestDirectoryOccupancySampler:
    def test_tracks_per_bank_counts(self):
        sampler = DirectoryOccupancySampler(interval=64.0)
        # Directory events carry bank in ``core`` and the bank's
        # post-update entry count in ``value``.
        sampler.on_event(ObsEvent(1.0, EV_DIR_ALLOC, core=0, value=1))
        sampler.on_event(ObsEvent(2.0, EV_DIR_ALLOC, core=1, value=1))
        sampler.on_event(ObsEvent(3.0, EV_DIR_ALLOC, core=0, value=2))
        sampler.on_event(ObsEvent(4.0, EV_DIR_FREE, core=0, value=1))
        assert sampler.total == 2
        assert sampler.per_bank == {0: 1, 1: 1}
        assert sampler.allocs == 3
        assert sampler.frees == 1
        assert sampler.series.max_value == 3.0

    def test_evictions_counted(self):
        sampler = DirectoryOccupancySampler()
        sampler.on_event(ObsEvent(1.0, EV_DIR_EVICT, core=0, value=4))
        assert sampler.evictions == 1


class TestMessageRateSampler:
    def test_totals_by_type(self):
        sampler = MessageRateSampler(interval=100.0)
        sampler.on_event(ObsEvent(1.0, EV_MSG, detail="read_request"))
        sampler.on_event(ObsEvent(2.0, EV_MSG, detail="read_request"))
        sampler.on_event(ObsEvent(3.0, EV_MSG, detail="write_request"))
        assert sampler.totals == {"read_request": 2.0, "write_request": 1.0}

    def test_weighted_emit(self):
        sampler = MessageRateSampler()
        # value carries the message weight for aggregated emits
        sampler.on_event(ObsEvent(1.0, EV_MSG, detail="probe_response",
                                  value=7))
        assert sampler.totals["probe_response"] == 7.0


class TestFlushUsefulnessSampler:
    def test_wb_classification(self):
        sampler = FlushUsefulnessSampler()
        # value = pre-op dirty mask; None = line already evicted
        sampler.on_event(ObsEvent(1.0, EV_FLUSH, value=0x3))   # dirty
        sampler.on_event(ObsEvent(2.0, EV_FLUSH, value=0))     # clean
        sampler.on_event(ObsEvent(3.0, EV_FLUSH, value=None))  # wasted
        assert (sampler.wb_dirty, sampler.wb_clean, sampler.wb_wasted) \
            == (1, 1, 1)
        doc = sampler.as_dict()
        assert doc["useful_wb_fraction"] == pytest.approx(1 / 3)
        # clean + wasted land in the useless timeline
        assert sum(doc["useless_timeline"]["count"]) == 2.0

    def test_inv_classification(self):
        sampler = FlushUsefulnessSampler()
        sampler.on_event(ObsEvent(1.0, EV_INV, value=0))     # resident
        sampler.on_event(ObsEvent(2.0, EV_INV, value=None))  # wasted
        assert (sampler.inv_resident, sampler.inv_wasted) == (1, 1)
        assert sampler.as_dict()["useful_inv_fraction"] == pytest.approx(0.5)


def _run_with_registry(workload="gjk", policy=None, **exp_kw):
    from repro.analysis.experiments import ExperimentConfig, run_workload

    exp = ExperimentConfig(n_clusters=1, scale=0.2, **exp_kw)
    registry = None

    def instrument(machine, program):
        nonlocal registry
        registry = MetricsRegistry(machine, interval=512.0)

    stats, machine = run_workload(workload, policy or Policy.cohesion(), exp,
                                  instrument=instrument)
    registry.detach()
    return stats, machine, registry


class TestRegistryIntegration:
    def test_message_totals_match_counters(self):
        stats, _machine, registry = _run_with_registry()
        sampled = registry.samplers["message_rates"].totals
        for mtype, count in stats.message_breakdown().items():
            assert sampled.get(mtype.value, 0.0) == float(count), mtype

    @needs_numpy
    def test_flush_counters_match_stats(self):
        stats, _machine, registry = _run_with_registry("heat", Policy.swcc())
        sampler = registry.samplers["flush_usefulness"]
        assert sampler.wb_issued == stats.messages.wb_issued
        assert sampler.inv_issued == stats.messages.inv_issued
        # resident = dirty + clean; only dirty flushes send a message
        assert sampler.wb_dirty + sampler.wb_clean \
            == stats.messages.wb_on_valid
        from repro.types import MessageType
        assert sampler.wb_dirty \
            == stats.message_breakdown()[MessageType.SOFTWARE_FLUSH]

    def test_dir_sampler_matches_stats(self):
        stats, machine, registry = _run_with_registry()
        sampler = registry.samplers["dir_occupancy"]
        assert sampler.evictions == stats.dir_evictions
        assert sampler.series.max_value == float(stats.dir_max_entries)
        # at end of run the sampled residual equals the live directory
        assert sampler.total == sum(len(d) for d in machine.memsys.dirs)

    def test_port_windows_per_barrier(self):
        stats, _machine, registry = _run_with_registry()
        windows = registry.samplers["port_utilization"].windows
        assert len(windows) == stats.barriers
        for window in windows:
            assert window["t1"] > window["t0"]
            for value in window["utilization"].values():
                assert value >= 0.0

    def test_detach_deactivates_bus(self):
        _stats, machine, _registry = _run_with_registry()
        assert machine.obs.active is False

    def test_as_dict_shape(self):
        _stats, _machine, registry = _run_with_registry()
        doc = registry.as_dict()
        assert set(doc) == {"interval", "dir_occupancy", "message_rates",
                            "port_utilization", "flush_usefulness"}


class TestStatsMetrics:
    def test_derived_block_consistent(self):
        from repro.analysis.experiments import ExperimentConfig, run_workload

        exp = ExperimentConfig(n_clusters=1, scale=0.2)
        stats, _machine = run_workload("kmeans", Policy.cohesion(), exp)
        block = stats_metrics(stats)
        assert block["cycles"] == stats.cycles
        assert block["total_messages"] == stats.total_messages
        assert "useful_wb_fraction" in block
        assert all(count for count in block["messages"].values())
        assert sum(block["dir_avg_entries_per_bank"]) == pytest.approx(
            block["dir_avg_entries"])
