"""Workload parameter knobs via get_workload(**params)."""

import pytest

from repro import Policy
from repro.workloads import get_workload

from tests.conftest import make_machine, needs_numpy


class TestKnobs:
    @needs_numpy
    def test_sweeps_knob_changes_phase_count(self):
        machine2 = make_machine(Policy.cohesion())
        machine4 = make_machine(Policy.cohesion())
        two = get_workload("heat", scale=0.1, sweeps=2).build(machine2)
        four = get_workload("heat", scale=0.1, sweeps=4).build(machine4)
        assert len(two.phases) == 2
        assert len(four.phases) == 4

    def test_iterations_knob(self):
        machine = make_machine(Policy.cohesion())
        program = get_workload("cg", scale=0.1, iterations=1).build(machine)
        assert [p.name for p in program.phases] == ["matvec0", "update0"]

    def test_kmeans_iterations(self):
        machine = make_machine(Policy.cohesion())
        program = get_workload("kmeans", scale=0.1,
                               iterations=1).build(machine)
        assert sum(1 for p in program.phases
                   if p.name.startswith("assign")) == 1

    def test_unknown_knob_rejected(self):
        with pytest.raises(TypeError, match="no knob"):
            get_workload("heat", granularity=5)

    @needs_numpy
    def test_knobbed_run_stays_correct(self):
        machine = make_machine(Policy.swcc())
        workload = get_workload("heat", scale=0.1, sweeps=3)
        program = workload.build(machine)
        stats = machine.run(program)
        assert stats.load_mismatches == []
        assert machine.verify_expected(program.expected) == []
