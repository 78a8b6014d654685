"""Layer-boundary tracing from outside the program.

A :class:`Tracer` records a span at each wrapped boundary. Boundaries
crossed once per cell (machine build, workload build, run) are kept as
full spans: name, start, end, parent and cell id. Boundaries crossed
millions of times per sweep (``Cluster``, ``MemorySystem``,
``PlanCache`` and ``Resource.acquire`` entry points) are aggregated in
memory per (cell, boundary) as count, total time and self time. Self
time is a span's duration minus the time its child spans cover; spans
of one thread never overlap, so the children's summed durations are
that coverage.

The hot boundaries are wrapped by patching the classes' public entry
points for the duration of one traced cell (:meth:`Tracer.patched`);
nothing in the program is edited, and code paths the program inlines
(the executor's L1-hit fast path, plan bodies that inline
``Resource.acquire``) are deliberately not seen.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class, entry points, layer) of every hot boundary.
HOT_BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.cluster", "Cluster",
     ("load", "store", "ifetch", "atomic", "flush_line", "invalidate_line"),
     "cluster"),
    ("repro.core.cohesion", "MemorySystem",
     ("read_line", "write_line_request", "upgrade_request", "writeback",
      "read_release", "atomic", "table_update"),
     "memsys"),
    ("repro.runtime.plans", "PlanCache",
     ("read_line", "write_line_request", "upgrade_request", "writeback",
      "read_release", "to_swcc", "to_hwcc"),
     "plans"),
    ("repro.timing", "Resource", ("acquire",), "timing"),
)

#: The miss-path entry points: a ``PlanCache`` call that returns a value
#: replayed a plan; one that returns None fell through to the interpreter.
MISS_PATH = ("read_line", "write_line_request", "upgrade_request",
             "writeback", "read_release")

# Aggregate record fields.
COUNT, TOTAL, SELF, OUTER, NONNULL = range(5)


class Tracer:
    """Spans and per-(cell, boundary) aggregates of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Full spans of the cold boundaries.
        self.spans: List[dict] = []
        #: cell id -> boundary name -> [count, total, self, outer, nonnull]
        #: where ``outer`` sums only calls not nested in another call of
        #: the same layer, and ``nonnull`` counts non-None returns.
        self.aggregates: Dict[str, Dict[str, list]] = {}
        self.cell: Optional[str] = None
        self._current: Dict[str, list] = {}
        self._stack: List[float] = []      # child-time accumulators
        self._open: List[int] = []         # indices of open full spans
        self._depth: Dict[str, int] = {}

    # -- cells and cold spans ---------------------------------------------
    def begin_cell(self, cell: str) -> None:
        self.cell = cell
        self._current = self.aggregates.setdefault(cell, {})

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A full span around one call made by the benchmark itself."""
        index = len(self.spans)
        record = {"name": name, "cell": self.cell,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(index)
        self._stack.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            child = self._stack.pop()
            self._open.pop()
            duration = end - start
            if self._stack:
                self._stack[-1] += duration
            record.update(start=start, end=end, self_s=duration - child)

    # -- hot boundaries ----------------------------------------------------
    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        """``fn`` instrumented as the hot boundary ``name`` of ``layer``."""
        clock = self.clock
        stack = self._stack
        depth = self._depth
        depth.setdefault(layer, 0)
        tracer = self

        def traced(*args, **kwargs):
            current = tracer._current
            outer = depth[layer]
            depth[layer] = outer + 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                depth[layer] = outer
                if stack:
                    stack[-1] += duration
                record = current.get(name)
                if record is None:
                    record = current[name] = [0, 0.0, 0.0, 0.0, 0]
                record[COUNT] += 1
                record[TOTAL] += duration
                record[SELF] += duration - child
                if not outer:
                    record[OUTER] += duration
            if result is not None:
                record[NONNULL] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self) -> Iterator[None]:
        """Install the hot-boundary wrappers; restore the originals after."""
        saved = []
        try:
            for module, cls_name, entries, layer in HOT_BOUNDARIES:
                cls = getattr(importlib.import_module(module), cls_name)
                for entry in entries:
                    original = cls.__dict__[entry]
                    saved.append((cls, entry, original))
                    setattr(cls, entry,
                            self.wrap(f"{cls_name}.{entry}", layer, original))
            yield
        finally:
            for cls, entry, original in reversed(saved):
                setattr(cls, entry, original)

    # -- readout -----------------------------------------------------------
    def span_totals(self, cell: str, name: str) -> Tuple[float, float, int]:
        """(total, self, count) of the full spans ``name`` in ``cell``."""
        total = own = 0.0
        count = 0
        for span in self.spans:
            if span["cell"] == cell and span["name"] == name:
                total += span["end"] - span["start"]
                own += span["self_s"]
                count += 1
        return total, own, count

    def dump(self) -> dict:
        """JSON form: full spans plus the aggregated hot boundaries."""
        return {
            "note": ("cold boundaries are full spans; hot boundaries are "
                     "aggregated per (cell, boundary) as count, total_s, "
                     "self_s, outer_s (calls not nested in the same layer) "
                     "and nonnull (non-None returns)"),
            "spans": self.spans,
            "aggregates": {
                cell: {name: dict(zip(("count", "total_s", "self_s",
                                       "outer_s", "nonnull"), rec))
                       for name, rec in sorted(boundaries.items())}
                for cell, boundaries in self.aggregates.items()},
        }


def layer_of(boundary: str) -> str:
    cls_name = boundary.split(".", 1)[0]
    for _module, name, _entries, layer in HOT_BOUNDARIES:
        if name == cls_name:
            return layer
    raise KeyError(boundary)
