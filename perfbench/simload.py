"""The simulation workloads: serial sweeps of independent cells.

Each cell goes through the public calls ``run_workload`` makes --
``Machine(...)``, ``get_workload``, ``cache.programs.build_program``,
``Machine.run`` -- with the result cache and the program-artifact cache
off, because the cache key includes the source-tree hash and after any
code change a user's sweep is cold. A run repeats the whole sweep until
``--seconds`` have passed (at least once).

The traced run (``--trace 1``) runs every cell twice in a row: untraced,
then traced. It fails the cell unless both runs produce identical
statistics, derives ``trace.overhead_ratio`` from the pair, and takes the
per-layer numbers from the traced copies.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from cells import SIM_WORKLOADS, SimCell
from quantiles import percentile
from spans import MISS_PATH, NONNULL, OUTER, SELF, COUNT, Tracer, layer_of
import records


@dataclass
class CellRun:
    label: str
    cell_id: str
    wall_s: float
    ops: int
    stats: dict
    mismatches: int
    plans: Optional[dict] = None
    acquisitions: int = 0


def _acquisitions(machine) -> int:
    """Settled ``Resource.acquisitions`` over ports, links, DRAM channels."""
    ms = machine.memsys
    resources = list(ms.bank_ports.members)
    resources += list(ms.net.up_links.members) + list(ms.net.down_links.members)
    resources.append(ms.net.crossbar)
    resources += list(ms.dram.channels.members)
    resources += [cluster.port for cluster in machine.clusters]
    return sum(res.acquisitions for res in resources)


class _Untraced:
    def begin_cell(self, cell):
        pass

    def span(self, name):
        return contextlib.nullcontext()


def run_cell(cell: SimCell, seed: int, tracer=None,
             cell_id: Optional[str] = None) -> CellRun:
    """Simulate one cell exactly as ``run_workload`` would; ``cell_id``
    names the cell's spans (default: its label)."""
    from repro.cache.programs import build_program
    from repro.sim.machine import Machine
    from repro.workloads import get_workload

    trace = tracer or _Untraced()
    cell_id = cell_id or cell.label
    trace.begin_cell(cell_id)
    exp = cell.experiment(seed)
    start = time.perf_counter()
    with trace.span("cell"):
        with trace.span("sim.machine"):
            machine = Machine(exp.machine_config(), cell.policy_obj())
        with trace.span("workloads.get_workload"):
            workload = get_workload(cell.workload, scale=exp.scale,
                                    seed=exp.seed)
        with trace.span("cache.programs.build_program"):
            program = build_program(cell.workload, workload, machine)
        with trace.span("sim.run"):
            stats = machine.run(program, ops_per_slice=exp.ops_per_slice,
                                backend=exp.backend)
    wall = time.perf_counter() - start
    plans = machine.memsys._plans
    return CellRun(cell.label, cell_id, wall, stats.ops_executed,
                   records.as_json(stats.as_dict()),
                   len(stats.load_mismatches),
                   plans.stats() if plans is not None else None,
                   _acquisitions(machine))


def _check(run: CellRun, expected: Optional[dict],
           reference: Optional[dict]) -> List[str]:
    """Failures of one cell run: recorded values, determinism, data."""
    errors = []
    if run.mismatches:
        errors.append(f"{run.label}: {run.mismatches} load mismatch(es)")
    if expected is not None:
        bad = records.diff(expected, run.stats)
        if bad:
            errors.append(f"{run.label}: differs from the recorded "
                          f"statistics in {', '.join(bad)}")
    if reference is not None:
        bad = records.diff(reference, run.stats)
        if bad:
            errors.append(f"{run.label}: differs from its earlier run in "
                          f"{', '.join(bad)}")
    return errors


def _layer_metrics(tracer: Tracer, runs: List[CellRun]) -> Dict[str, float]:
    """Per-layer numbers of one traced sweep."""
    m: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    layer_outer: Dict[str, float] = {}
    layer_self: Dict[str, float] = {}
    nonnull: Dict[str, int] = {}
    build_s = machine_s = run_s = executor_self = 0.0
    build_calls = 0
    for run in runs:
        cell = run.cell_id
        t, _s, n = tracer.span_totals(cell, "workloads.get_workload")
        b, _s, nb = tracer.span_totals(cell, "cache.programs.build_program")
        build_s += t + b
        build_calls += n + nb
        machine_s += tracer.span_totals(cell, "sim.machine")[0]
        r, own, _n = tracer.span_totals(cell, "sim.run")
        run_s += r
        executor_self += own
        for name, rec in tracer.aggregates.get(cell, {}).items():
            counts[name] = counts.get(name, 0) + rec[COUNT]
            layer = layer_of(name)
            layer_outer[layer] = layer_outer.get(layer, 0.0) + rec[OUTER]
            layer_self[layer] = layer_self.get(layer, 0.0) + rec[SELF]
            nonnull[name] = nonnull.get(name, 0) + rec[NONNULL]

    def count(prefix: str) -> int:
        return sum(n for k, n in counts.items() if k.startswith(prefix))

    m["workloads.build_s"] = build_s
    m["workloads.build_calls"] = build_calls
    m["sim.machine_s"] = machine_s
    m["sim.run_s"] = run_s
    m["runtime.executor_self_s"] = executor_self
    m["runtime.ops"] = sum(run.ops for run in runs)
    m["sim.cluster_calls"] = count("Cluster.")
    m["sim.cluster_self_s"] = layer_self.get("cluster", 0.0)
    memsys_s = layer_outer.get("memsys", 0.0)
    plans_s = layer_outer.get("plans", 0.0)
    m["core.memsys_s"] = memsys_s
    m["core.memsys_share"] = memsys_s / run_s if run_s else 0.0
    for entry in ("read_line", "write_line_request", "upgrade_request",
                  "writeback", "read_release", "atomic", "table_update"):
        m[f"core.memsys_calls.{entry}"] = count(f"MemorySystem.{entry}")
    m["runtime.plans_s"] = plans_s
    plan_stats = [run.plans for run in runs if run.plans is not None]
    m["runtime.plans_replayed"] = sum(p["replayed"] for p in plan_stats)
    m["runtime.plans_compiled"] = sum(p["compiled"] for p in plan_stats)
    m["runtime.plans_generation"] = sum(p["generation"] for p in plan_stats)
    m["runtime.plans_interpreted"] = sum(p["interpreted"] for p in plan_stats)
    # PlanCache.stats()["interpreted"] counts only negative-cached
    # signatures, not early fall-throughs, so the ratio is taken from
    # the wrapper counts: replays over miss-path entry calls.
    miss_calls = sum(count(f"MemorySystem.{e}") for e in MISS_PATH)
    replays = sum(nonnull.get(f"PlanCache.{e}", 0) for e in MISS_PATH)
    m["runtime.plans_replay_ratio"] = replays / miss_calls if miss_calls else 0.0
    m["core.protocol_interp_s"] = memsys_s - plans_s
    m["timing.acquire_calls"] = count("Resource.acquire")
    m["timing.acquire_s"] = layer_outer.get("timing", 0.0)
    m["timing.acquisitions"] = sum(run.acquisitions for run in runs)
    for name, key in (("sim.cycles", "cycles"),
                      ("core.total_messages", "total_messages"),
                      ("coherence.dir_evictions", "dir_evictions"),
                      ("mem.l3_misses", "l3_misses"),
                      ("mem.dram_accesses", "dram_accesses"),
                      ("interconnect.network_messages", "network_messages")):
        m[name] = sum(run.stats[key] for run in runs)
    return m


def _is_count(name: str) -> bool:
    """Whether a per-layer metric is an exact count, which every traced
    sweep of one run must reproduce."""
    return not (name.endswith("_s") or name.endswith("_share")
                or name.endswith("_ratio"))


def run(workload: str, seed: int, seconds: float, trace: bool,
        expected: Optional[Dict[str, dict]]) -> dict:
    """Run ``workload`` for ``seconds``; returns the run's result record."""
    cells = SIM_WORKLOADS[workload]
    deadline = time.perf_counter() + seconds
    sweeps: List[List[CellRun]] = []
    layers: List[Dict[str, float]] = []
    reference: Dict[str, dict] = {}
    errors: List[str] = []
    attempted = failed = 0
    plain_wall = traced_wall = 0.0
    tracer = Tracer() if trace else None
    while not sweeps or time.perf_counter() < deadline:
        sweep: List[CellRun] = []
        traced_sweep: List[CellRun] = []
        for cell in cells:
            attempted += 1
            try:
                plain = run_cell(cell, seed)
                if expected is not None and cell.label not in expected:
                    raise KeyError(f"no recorded statistics for "
                                   f"{cell.label}; run records.py --write")
                cell_errors = _check(
                    plain, expected[cell.label] if expected else None,
                    reference.get(cell.label))
                reference.setdefault(cell.label, plain.stats)
                sweep.append(plain)
                if tracer is not None:
                    with tracer.patched():
                        traced = run_cell(cell, seed, tracer,
                                          f"sweep{len(sweeps)}/{cell.label}")
                    bad = records.diff(plain.stats, traced.stats)
                    if bad:
                        cell_errors.append(
                            f"{cell.label}: traced run differs from the "
                            f"untraced run in {', '.join(bad)}")
                    plain_wall += plain.wall_s
                    traced_wall += traced.wall_s
                    traced_sweep.append(traced)
            except Exception as err:  # a cell that raises is a failed op
                cell_errors = [f"{cell.label}: {type(err).__name__}: {err}"]
            if cell_errors:
                failed += 1
                errors.extend(cell_errors)
        sweeps.append(sweep)
        if tracer is not None and len(traced_sweep) == len(cells):
            layers.append(_layer_metrics(tracer, traced_sweep))

    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "sweeps": len(sweeps),
              "cells": {run.label: {"wall_s": [r.wall_s for s in sweeps
                                               for r in s
                                               if r.label == run.label],
                                    "ops": run.ops}
                        for run in sweeps[0]}}
    if trace:
        metrics: Dict[str, float] = {}
        for name in (layers[0] if layers else {}):
            values = [sweep_layers[name] for sweep_layers in layers]
            if _is_count(name) and len(set(values)) > 1:
                failed += 1
                errors.append(f"{name} differs between traced sweeps: "
                              f"{values}")
            metrics[name] = statistics.median(values)
        metrics["trace.overhead_ratio"] = (traced_wall / plain_wall
                                           if plain_wall else 0.0)
        result.update(failed=failed, metrics=metrics, trace=tracer.dump())
        return result

    # Throughput over every complete sweep: on a box whose speed drifts
    # in phases of seconds, the total is steadier than a per-sweep median.
    complete = [r for s in sweeps if len(s) == len(cells) for r in s]
    busy = sum(r.wall_s for r in complete)
    # One latency per cell (its median over sweeps), so the percentiles
    # do not depend on how many sweeps fitted into the run.
    cell_ms = [1000.0 * statistics.median(info["wall_s"])
               for info in result["cells"].values()]
    result["metrics"] = {
        "sim_ops_per_s": sum(r.ops for r in complete) / busy if busy else 0.0,
        "req_per_s": len(complete) / busy if busy else 0.0,
        "req_ms_p50": percentile(cell_ms, 50),
        # Every simulation cell runs cold: there is no warm path.
        "cold_ms_p50": percentile(cell_ms, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return result
