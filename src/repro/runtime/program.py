"""Program structures for the barrier-synchronised task-queue model.

The benchmarks of Section 4.1 are written in a task-based, barrier-
synchronised work-queue style (the bulk-synchronous pattern of the Task
Centric Memory Model): a :class:`Program` is a list of :class:`Phase`
objects separated by global barriers, and each phase is a bag of
:class:`Task` objects that idle cores pull from a shared queue with
atomic operations.

A task's memory behaviour has three parts:

* ``ops`` -- the explicit operation stream (loads/stores/atomics/compute);
* ``flush_lines`` -- output lines to write back *eagerly* at task end via
  software WB instructions (only populated when the data is software-
  managed under the mode the program was built for);
* ``input_lines`` -- phase-variant input lines to invalidate *lazily* at
  the barrier (likewise mode-dependent).

The executor additionally injects instruction fetches for the phase's
kernel code and private-stack activity for the executing core, neither
of which a workload can know at build time.

Programs also have a *frozen* form (:class:`FrozenProgram`): one flat op
array per phase with per-task bounds, plus everything a later process
needs to re-run the program on an equivalent machine without invoking
the workload builder again -- the expected-value table, the ordered
allocation log (replayed through the real allocation API so address
assignment *and* its protocol side effects, e.g. ``coh_malloc``'s
region conversion under Cohesion, are reproduced exactly), and the
initial backing-store image for ``track_data`` machines. The executor
consumes the frozen form directly; :func:`freeze_phase` is also how it
compiles plain phases at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FreezeError
from repro.mem.address import LINE_SHIFT
from repro.types import OP_WB

Op = Tuple[int, ...]

#: Bumped whenever the frozen layout changes incompatibly; stored in
#: every artifact and checked on load.
#: Format 3 dropped the per-phase typed-column tables of format 2.
FROZEN_FORMAT = 3


@dataclass
class Task:
    """One unit of work pulled from the shared queue."""

    ops: List[Op]
    flush_lines: Sequence[int] = ()
    input_lines: Sequence[int] = ()
    stack_words: int = 8
    """Private-stack words the executor touches as the task's frame."""

    @property
    def op_count(self) -> int:
        return len(self.ops)


@dataclass
class Phase:
    """A bag of tasks between two global barriers."""

    name: str
    tasks: List[Task]
    code_addr: int = 0
    code_lines: int = 4
    """Kernel-code footprint fetched (once per cold L1I) by each core."""
    after: Optional[Callable[[object], None]] = None
    """Host action run (on core 0) after this phase's barrier releases --
    e.g. a runtime step that re-maps coherence domains between phases."""

    @property
    def total_ops(self) -> int:
        return sum(task.op_count for task in self.tasks)


@dataclass
class Program:
    """A complete benchmark run: phases plus expected final values."""

    name: str
    phases: List[Phase]
    expected: Dict[int, int] = field(default_factory=dict)
    """word address -> expected final value; pass to
    :meth:`repro.sim.machine.Machine.verify_expected` after a
    ``track_data`` run to audit memory against the program's logical
    data flow."""

    @property
    def total_tasks(self) -> int:
        return sum(len(phase.tasks) for phase in self.phases)

    @property
    def total_ops(self) -> int:
        return sum(phase.total_ops for phase in self.phases)

    def lint(self, machine=None, domain=None, rules=None):
        """Statically check this program's software coherence protocol.

        Runs the :mod:`repro.lint` rules (COH001..COH005) against the
        op streams without simulating anything; domains are resolved
        from ``machine``'s region tables (or an explicit
        :class:`~repro.lint.model.DomainModel`). Returns a
        :class:`~repro.lint.diagnostics.LintReport`.
        """
        from repro.lint import lint_program  # avoid an import cycle

        return lint_program(self, machine=machine, domain=domain,
                            rules=rules)

    def freeze(self) -> "FrozenProgram":
        """Compile to the compact :class:`FrozenProgram` form.

        Raises :class:`~repro.errors.FreezeError` when any phase has an
        ``after`` callback -- arbitrary callables have no on-disk form.
        (The executor compiles such phases in-process with
        :func:`freeze_phase`, which can keep the callback.)
        """
        for phase in self.phases:
            if phase.after is not None:
                raise FreezeError(
                    f"phase {phase.name!r} has an 'after' callback; "
                    "host callables cannot be frozen to disk")
        return FrozenProgram(
            name=self.name,
            phases=[freeze_phase(phase) for phase in self.phases],
            expected=dict(self.expected))


def freeze_phase(phase: Phase, keep_after: bool = False) -> "FrozenPhase":
    """Compile one phase: fuse each task's ops with its flush WBs into a
    single flat array with per-task bounds. ``keep_after`` carries the
    host callback through for in-process execution (never to disk)."""
    ops: List[Op] = []
    bounds = [0]
    flush_lines: List[Tuple[int, ...]] = []
    input_lines: List[Tuple[int, ...]] = []
    stack_words: List[int] = []
    for task in phase.tasks:
        ops.extend(task.ops)
        for line in task.flush_lines:
            ops.append((OP_WB, line << LINE_SHIFT))
        bounds.append(len(ops))
        flush_lines.append(tuple(task.flush_lines))
        input_lines.append(tuple(task.input_lines))
        stack_words.append(task.stack_words)
    return FrozenPhase(
        name=phase.name, code_addr=phase.code_addr,
        code_lines=phase.code_lines, ops=ops, bounds=bounds,
        flush_lines=flush_lines, input_lines=input_lines,
        stack_words=stack_words,
        after=phase.after if keep_after else None)


@dataclass
class FrozenPhase:
    """One compiled phase: a flat op array with per-task bounds.

    Task ``i`` owns ``ops[bounds[i]:bounds[i+1]]``; the tail
    ``len(flush_lines[i])`` entries of that span are the fused eager
    flush WBs, so :meth:`task_ops` can recover the original stream.
    """

    name: str
    code_addr: int
    code_lines: int
    ops: List[Op]
    bounds: List[int]
    flush_lines: List[Tuple[int, ...]]
    input_lines: List[Tuple[int, ...]]
    stack_words: List[int]
    after: Optional[Callable[[object], None]] = None
    """In-process only; always ``None`` in artifacts written to disk."""

    @property
    def n_tasks(self) -> int:
        return len(self.bounds) - 1

    @property
    def total_ops(self) -> int:
        return sum(self.bounds[i + 1] - self.bounds[i]
                   - len(self.flush_lines[i]) for i in range(self.n_tasks))

    def task_ops(self, index: int) -> List[Op]:
        """The original (unfused) op stream of task ``index``."""
        end = self.bounds[index + 1] - len(self.flush_lines[index])
        return list(self.ops[self.bounds[index]:end])


@dataclass
class FrozenProgram:
    """A compiled program plus everything needed to re-run it elsewhere.

    ``alloc_log`` records every build-time allocation as
    ``(kind, size, addr)`` in call order. Replaying it through the live
    allocation API reproduces both the addresses and the protocol side
    effects of building (``coh_malloc`` converts its region to SWcc
    under Cohesion, advancing the issuing core's clock and touching the
    fine table) -- which is what keeps a thawed run bit-identical to a
    built one. ``initial_memory`` is the post-build backing-store image
    (word address -> value) on ``track_data`` machines, empty otherwise.
    """

    name: str
    phases: List[FrozenPhase]
    expected: Dict[int, int] = field(default_factory=dict)
    alloc_log: List[Tuple[str, int, int]] = field(default_factory=list)
    initial_memory: Dict[int, int] = field(default_factory=dict)
    format: int = FROZEN_FORMAT

    @property
    def total_tasks(self) -> int:
        return sum(phase.n_tasks for phase in self.phases)

    @property
    def total_ops(self) -> int:
        return sum(phase.total_ops for phase in self.phases)

    def lint(self, machine=None, domain=None, rules=None):
        """Statically check this frozen program without thawing it.

        Same contract as :meth:`Program.lint`; the rules consume the
        flat op slices directly. When neither ``machine`` nor ``domain``
        is given, domains are resolved from the default boot-time
        address layout (:meth:`~repro.lint.model.DomainModel.of_layout`
        under the Cohesion policy) so artifacts can be checked in a
        process that never constructs a machine.
        """
        from repro.lint import lint_program  # avoid an import cycle

        if machine is None and domain is None:
            from repro.lint.model import DomainModel
            from repro.types import PolicyKind

            domain = DomainModel.of_layout(PolicyKind.COHESION)
        return lint_program(self, machine=machine, domain=domain,
                            rules=rules)

    def thaw(self) -> Program:
        """Reconstruct an equivalent mutable :class:`Program`."""
        phases = []
        for fp in self.phases:
            tasks = [Task(ops=fp.task_ops(i),
                          flush_lines=list(fp.flush_lines[i]),
                          input_lines=list(fp.input_lines[i]),
                          stack_words=fp.stack_words[i])
                     for i in range(fp.n_tasks)]
            phases.append(Phase(name=fp.name, tasks=tasks,
                                code_addr=fp.code_addr,
                                code_lines=fp.code_lines, after=fp.after))
        return Program(name=self.name, phases=phases,
                       expected=dict(self.expected))

    def apply_to(self, machine) -> None:
        """Replay build-time machine side effects onto a fresh machine.

        Raises :class:`~repro.errors.StaleArtifactError` when the replay
        diverges (the machine may then be part-allocated -- discard it).
        """
        from repro.errors import StaleArtifactError

        for kind, size, addr in self.alloc_log:
            if kind == "immutable":
                got = machine.runtime.static_alloc(size)
            elif kind == "sw":
                got = machine.api.coh_malloc(size)
            elif kind == "hw":
                got = machine.api.malloc(size)
            else:
                raise StaleArtifactError(
                    f"unknown allocation kind {kind!r} in frozen program "
                    f"{self.name!r}")
            if got != addr:
                raise StaleArtifactError(
                    f"frozen program {self.name!r}: allocation replay "
                    f"returned {got:#x}, artifact recorded {addr:#x}")
        if self.initial_memory:
            backing = machine.memsys.backing
            for waddr, value in self.initial_memory.items():
                backing.write_word_addr(waddr, value)
