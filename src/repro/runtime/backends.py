"""Executor backend names: the interpreter is the only backend.

Kept as the one place that names the accepted ``backend`` values of
:meth:`repro.sim.machine.Machine.run`, ``ExperimentConfig.backend`` and
the ``repro serve`` wire format.
"""

#: Recognised backend names.
BACKENDS = ("interp",)

DEFAULT_BACKEND = "interp"
