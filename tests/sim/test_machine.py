"""Machine wiring, drain, verification."""

import pytest

from repro import Machine, MachineConfig, Policy
from repro.runtime.layout import AddressLayout

from tests.conftest import make_machine

HEAP = 0x2000_0000


class TestWiring:
    def test_cluster_count(self, hwcc_machine):
        assert len(hwcc_machine.clusters) == hwcc_machine.config.n_clusters
        assert hwcc_machine.memsys.clusters is not None

    def test_cluster_of_core(self, hwcc_machine):
        cluster, local = hwcc_machine.cluster_of_core(9)
        assert cluster is hwcc_machine.clusters[1]
        assert local == 1

    def test_layout_core_count_must_match(self):
        config = MachineConfig(track_data=True).scaled(2)
        with pytest.raises(ValueError):
            Machine(config, Policy.swcc(), AddressLayout(n_cores=64))

    def test_runtime_booted_coarse_regions(self, cohesion_machine):
        coarse = cohesion_machine.memsys.coarse
        names = sorted(region.name for region in coarse)
        assert names == ["code", "globals", "stacks"]

    def test_reset_message_counters(self, hwcc_machine):
        hwcc_machine.clusters[0].load(0, HEAP, 0.0)
        assert hwcc_machine.memsys.counters.total() > 0
        hwcc_machine.reset_message_counters()
        assert hwcc_machine.memsys.counters.total() == 0

    def test_run_rejects_unknown_backend(self, swcc_machine):
        from repro.errors import SimulationError
        from repro.runtime.program import Program

        with pytest.raises(SimulationError, match="unknown backend 'vec'"):
            swcc_machine.run(Program("empty", []), backend="vec")


class TestDrainAndVerify:
    def test_drain_pushes_dirty_l2_data(self, hwcc_machine):
        hwcc_machine.clusters[0].store(0, HEAP, 42, 0.0)
        assert hwcc_machine.memsys.backing.read_word_addr(HEAP) == 0
        hwcc_machine.drain_caches()
        assert hwcc_machine.memsys.backing.read_word_addr(HEAP) == 42

    def test_drain_l3_before_l2(self, hwcc_machine):
        """A re-dirtied L2 line must override stale L3 dirty data."""
        machine = hwcc_machine
        machine.clusters[0].store(0, HEAP, 1, 0.0)
        machine.clusters[1].load(0, HEAP, 100.0)   # downgrade: L3 dirty = 1
        machine.clusters[1].store(0, HEAP, 2, 200.0)  # newer value in L2
        machine.drain_caches()
        assert machine.memsys.backing.read_word_addr(HEAP) == 2

    def test_verify_expected_reports_mismatches(self, hwcc_machine):
        hwcc_machine.clusters[0].store(0, HEAP, 42, 0.0)
        ok = hwcc_machine.verify_expected({HEAP: 42})
        assert ok == []
        bad = hwcc_machine.verify_expected({HEAP: 43})
        assert bad == [(HEAP, 43, 42)]

    def test_verify_requires_track_data(self):
        machine = make_machine(Policy.swcc(), track_data=False)
        with pytest.raises(ValueError):
            machine.verify_expected({0: 0})
