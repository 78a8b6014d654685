"""The eight evaluation kernels: construction, correctness, sharing shape."""

import pytest

from repro import PolicyKind
from repro.workloads import ALL_WORKLOADS, WORKLOADS, get_workload

from tests.conftest import make_machine, needs_numpy, policy_by_label

SMALL = 0.12  # workload scale for functional tests


class TestRegistry:
    def test_paper_order(self):
        assert list(ALL_WORKLOADS) == [
            "cg", "dmm", "gjk", "heat", "kmeans", "mri", "sobel", "stencil"]

    def test_get_workload(self):
        workload = get_workload("heat", scale=0.5, seed=7)
        assert workload.name == "heat"
        assert workload.scale == 0.5

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="stencil"):
            get_workload("nope")

    def test_names_match_classes(self):
        for name, cls in WORKLOADS.items():
            assert cls.name == name

    def test_missing_numpy_names_the_extra(self, monkeypatch,
                                           cohesion_machine):
        import sys

        from repro.errors import SimulationError

        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(SimulationError, match=r"repro\[workloads\]"):
            get_workload("dmm", scale=SMALL).build(cohesion_machine)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
class TestBuild:
    def test_builds_nonempty_program(self, name, cohesion_machine):
        program = get_workload(name, scale=SMALL).build(cohesion_machine)
        assert program.phases
        assert program.total_tasks > 0
        assert program.total_ops > 0
        for phase in program.phases:
            assert phase.code_lines > 0

    def test_mode_dependent_coherence_metadata(self, name):
        """SWcc builds carry flush/input metadata; HWcc builds none."""
        hwcc = make_machine(policy_by_label("hwcc_ideal"))
        swcc = make_machine(policy_by_label("swcc"))
        prog_hw = get_workload(name, scale=SMALL).build(hwcc)
        prog_sw = get_workload(name, scale=SMALL).build(swcc)
        hw_meta = sum(len(t.flush_lines) + len(t.input_lines)
                      for p in prog_hw.phases for t in p.tasks)
        sw_meta = sum(len(t.flush_lines) + len(t.input_lines)
                      for p in prog_sw.phases for t in p.tasks)
        assert hw_meta == 0
        assert sw_meta > 0


@pytest.mark.parametrize("name", ALL_WORKLOADS)
@pytest.mark.parametrize("label", ["swcc", "hwcc_ideal", "cohesion"])
class TestFunctionalCorrectness:
    """Every kernel, under every protocol, must deliver exactly the
    values its logical data flow promises -- both at every checked load
    during the run and in memory afterwards."""

    def test_run_is_value_correct(self, name, label):
        machine = make_machine(policy_by_label(label))
        program = get_workload(name, scale=SMALL).build(machine)
        stats = machine.run(program)
        assert stats.load_mismatches == []
        assert machine.verify_expected(program.expected) == []
        assert stats.tasks_executed == program.total_tasks


@pytest.mark.parametrize("label", ["hwcc_real", "dir4b"])
@pytest.mark.parametrize("name", ["heat", "kmeans", "gjk"])
class TestRealisticDirectories:
    def test_small_directories_still_correct(self, name, label):
        machine = make_machine(policy_by_label(label))
        program = get_workload(name, scale=SMALL).build(machine)
        stats = machine.run(program)
        assert stats.load_mismatches == []
        assert machine.verify_expected(program.expected) == []


class TestSharingShapes:
    """Workload-specific properties the paper's analysis relies on."""

    def test_kmeans_swcc_is_atomic_dominated(self):
        machine = make_machine(policy_by_label("swcc"))
        stats = machine.run(get_workload("kmeans", scale=SMALL).build(machine))
        breakdown = stats.messages
        assert breakdown.uncached_atomic > 0.3 * stats.total_messages

    def test_kmeans_hwcc_uses_fewer_atomics(self):
        sw = make_machine(policy_by_label("swcc"))
        sw_stats = sw.run(get_workload("kmeans", scale=SMALL).build(sw))
        hw = make_machine(policy_by_label("hwcc_ideal"))
        hw_stats = hw.run(get_workload("kmeans", scale=SMALL).build(hw))
        assert hw_stats.messages.uncached_atomic < sw_stats.messages.uncached_atomic

    def test_mri_is_compute_bound(self):
        machine = make_machine(policy_by_label("cohesion"))
        program = get_workload("mri", scale=SMALL).build(machine)
        compute = sum(op[1] for p in program.phases for t in p.tasks
                      for op in t.ops if op[0] == 6)
        memory_ops = sum(1 for p in program.phases for t in p.tasks
                         for op in t.ops if op[0] != 6)
        assert compute > 5 * memory_ops  # cycles of compute >> #mem ops

    @needs_numpy
    def test_gjk_tasks_are_tiny(self):
        machine = make_machine(policy_by_label("cohesion"))
        program = get_workload("gjk", scale=SMALL).build(machine)
        avg_ops = program.total_ops / program.total_tasks
        for other in ("heat", "dmm"):
            machine2 = make_machine(policy_by_label("cohesion"))
            prog2 = get_workload(other, scale=SMALL).build(machine2)
            assert avg_ops < 0.5 * prog2.total_ops / prog2.total_tasks

    @needs_numpy
    def test_heat_is_double_buffered(self):
        machine = make_machine(policy_by_label("swcc"))
        program = get_workload("heat", scale=SMALL).build(machine)
        assert len(program.phases) == 2
        writes0 = {op[1] >> 5 for t in program.phases[0].tasks
                   for op in t.ops if op[0] == 1}
        writes1 = {op[1] >> 5 for t in program.phases[1].tasks
                   for op in t.ops if op[0] == 1}
        assert not writes0 & writes1  # alternating buffers

    @needs_numpy
    def test_dmm_panels_read_shared(self):
        machine = make_machine(policy_by_label("cohesion"))
        program = get_workload("dmm", scale=SMALL).build(machine)
        reads = {}
        for task in program.phases[0].tasks:
            for op in task.ops:
                if op[0] == 0:
                    reads[op[1] >> 5] = reads.get(op[1] >> 5, 0) + 1
        assert max(reads.values()) > 1  # panels re-read across tasks

    def test_stencil_inputs_invalidated_lazily(self):
        machine = make_machine(policy_by_label("swcc"))
        program = get_workload("stencil", scale=SMALL).build(machine)
        task = program.phases[0].tasks[1]
        read_lines = {op[1] >> 5 for op in task.ops if op[0] == 0}
        assert read_lines <= set(task.input_lines) | read_lines
        assert set(task.input_lines) & read_lines  # reads are invalidated

    @needs_numpy
    def test_force_hw_data_moves_everything_coherent(self):
        machine = make_machine(policy_by_label("cohesion"))
        workload = get_workload("heat", scale=SMALL)
        workload.force_hw_data = True
        program = workload.build(machine)
        meta = sum(len(t.flush_lines) + len(t.input_lines)
                   for p in program.phases for t in p.tasks)
        assert meta == 0  # nothing is software-managed any more

    def test_scale_controls_task_count(self):
        small = make_machine(policy_by_label("cohesion"))
        big = make_machine(policy_by_label("cohesion"))
        prog_small = get_workload("sobel", scale=0.1).build(small)
        prog_big = get_workload("sobel", scale=0.3).build(big)
        assert prog_big.total_tasks > prog_small.total_tasks

    def test_deterministic_build(self):
        m1 = make_machine(policy_by_label("cohesion"))
        m2 = make_machine(policy_by_label("cohesion"))
        p1 = get_workload("cg", scale=SMALL, seed=3).build(m1)
        p2 = get_workload("cg", scale=SMALL, seed=3).build(m2)
        ops1 = [t.ops for ph in p1.phases for t in ph.tasks]
        ops2 = [t.ops for ph in p2.phases for t in ph.tasks]
        assert ops1 == ops2
