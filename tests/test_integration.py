"""End-to-end scenarios exercising the whole stack together."""

import pytest

from repro import Domain, Machine, MachineConfig, Policy, get_workload
from repro.errors import CoherenceRaceError

from tests.conftest import make_machine, needs_numpy


class TestFigure1Scenario:
    """Figure 1: lines of one address range migrate between domains over
    time without any copying -- same addresses, different protocols."""

    def test_line_migrates_without_copies(self):
        machine = make_machine(Policy.cohesion())
        ms = machine.memsys
        api = machine.api
        ptr = api.coh_malloc(4 * 32)  # four lines
        lines = [(ptr >> 5) + i for i in range(4)]

        # t0: all SWcc (initial state); write through the SWcc path.
        machine.clusters[0].store(0, ptr, 1111, 0.0)
        machine.clusters[0].flush_line(0, lines[0], 10.0)

        # t1: move two lines to HWcc; the data stays where it is.
        api.coh_HWcc_region(ptr, 2 * 32)
        assert not ms.fine.is_swcc(lines[0])
        assert ms.fine.is_swcc(lines[2])

        # t2: read through the HWcc path -- same address, same value.
        _t, value = machine.clusters[1].load(0, ptr, 1e5)
        assert value == 1111
        assert not machine.clusters[1].l2.peek(lines[0]).incoherent

        # t3: write under HWcc, then migrate back to SWcc.
        machine.clusters[1].store(0, ptr, 2222, 2e5)
        api.coh_SWcc_region(ptr, 2 * 32)
        assert ms.fine.is_swcc(lines[0])

        # t4: the SWcc read sees the value written under HWcc.
        reply = ms.read_line(0, lines[0], 3e5)
        assert reply.incoherent and reply.data[0] == 2222


class TestProducerConsumerAcrossDomains:
    def test_hwcc_publish_swcc_read_phase(self):
        """A producer fills a buffer under HWcc (fine-grained, no flush
        discipline needed), the runtime moves it to SWcc for a read-only
        phase, and every cluster streams it without directory traffic."""
        machine = make_machine(Policy.cohesion())
        ms = machine.memsys
        api = machine.api
        ptr = api.coh_malloc(8 * 32)
        api.coh_HWcc_region(ptr, 8 * 32)
        for i in range(8):
            machine.clusters[0].store(0, ptr + 32 * i, 100 + i, 50.0 * i)
        api.coh_SWcc_region(ptr, 8 * 32)

        probe_before = ms.counters.probe_response
        dir_entries = ms.total_directory_entries()
        for cid, cluster in enumerate(machine.clusters):
            for i in range(8):
                _t, value = cluster.load(0, ptr + 32 * i, 1e6 + 100 * i + cid)
                assert value == 100 + i
        assert ms.counters.probe_response == probe_before
        assert ms.total_directory_entries() == dir_entries  # nothing new tracked


class TestRaceDetection:
    def test_buggy_software_detected_at_transition(self):
        machine = make_machine(Policy.cohesion())
        ptr = machine.api.coh_malloc(64)
        machine.clusters[0].store(0, ptr, 1, 0.0)
        machine.clusters[1].store(0, ptr, 2, 0.0)
        with pytest.raises(CoherenceRaceError):
            machine.api.coh_HWcc_region(ptr, 64)


class TestWorkloadEndToEnd:
    def test_full_workload_under_memory_pressure(self):
        """A realistic run on a tiny L2 exercises every eviction path."""
        machine = make_machine(Policy.cohesion(), l2_bytes=8 * 1024)
        program = get_workload("stencil", scale=0.12).build(machine)
        stats = machine.run(program)
        assert stats.load_mismatches == []
        assert machine.verify_expected(program.expected) == []
        assert stats.messages.cache_eviction > 0  # dirty evictions happened

    def test_dir4b_broadcasts_under_wide_sharing(self):
        from repro.types import DirectoryKind
        policy = Policy(kind=Policy.cohesion().kind,
                        directory=DirectoryKind.DIR4B,
                        dir_entries_per_bank=1024, dir_assoc=64)
        machine = make_machine(policy)
        program = get_workload("kmeans", scale=0.12).build(machine)
        stats = machine.run(program)
        assert stats.load_mismatches == []
        assert machine.verify_expected(program.expected) == []

    def test_one_cluster_machine(self):
        machine = Machine(MachineConfig(track_data=True).scaled(1),
                          Policy.cohesion())
        program = get_workload("gjk", scale=0.1).build(machine)
        stats = machine.run(program)
        assert stats.load_mismatches == []
        assert machine.verify_expected(program.expected) == []

    def test_larger_machine_smoke(self):
        machine = Machine(MachineConfig(track_data=True).scaled(8),
                          Policy.cohesion())
        program = get_workload("mri", scale=0.1).build(machine)
        stats = machine.run(program)
        assert stats.load_mismatches == []
        assert stats.tasks_executed == program.total_tasks


class TestCrossPolicyConsistency:
    def test_same_program_shape_all_policies(self):
        """Task counts and logical op streams are policy-independent; only
        the coherence metadata differs."""
        totals = {}
        for label, policy in (("swcc", Policy.swcc()),
                              ("hwcc", Policy.hwcc_ideal()),
                              ("cohesion", Policy.cohesion())):
            machine = make_machine(policy)
            program = get_workload("sobel", scale=0.12).build(machine)
            totals[label] = program.total_tasks
        assert len(set(totals.values())) == 1

    def test_swcc_quieter_than_hwcc_on_streaming(self):
        """The Figure 2 direction on a streaming kernel."""
        results = {}
        for label, policy in (("swcc", Policy.swcc()),
                              ("hwcc", Policy.hwcc_ideal())):
            machine = make_machine(policy, track_data=False)
            program = get_workload("sobel", scale=0.5).build(machine)
            results[label] = machine.run(program).total_messages
        assert results["hwcc"] > results["swcc"]

    @needs_numpy
    def test_cohesion_uses_less_directory_than_hwcc(self):
        """The Figure 9c direction."""
        results = {}
        for label, policy in (("hwcc", Policy.hwcc_ideal()),
                              ("cohesion", Policy.cohesion_ideal())):
            machine = make_machine(policy, track_data=False)
            program = get_workload("heat", scale=0.5).build(machine)
            results[label] = machine.run(program).dir_avg_entries
        assert results["cohesion"] < 0.5 * results["hwcc"]
