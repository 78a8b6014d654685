"""Lazy numpy dependency for workloads that generate data with it.

dmm and heat evaluate their reference results (matrix product, Jacobi
recurrence) with numpy at build time. The package itself must import --
and every numpy-free kernel must run -- without numpy installed, so
those workloads pull it in lazily and fail with an error naming the
packaging extra instead of an ImportError at import time.
"""

from __future__ import annotations

from repro.errors import SimulationError


def require_numpy(workload: str):
    """Return the numpy module, or raise a :class:`SimulationError`."""
    try:
        import numpy
    except ImportError:
        raise SimulationError(
            f"workload {workload!r} generates its dataset with numpy, "
            "which is not installed; install the optional extra with "
            "'pip install repro[workloads]' (or plain 'pip install numpy')"
        ) from None
    return numpy
