"""Job admission, execution, and lifecycle for ``repro serve``.

The pipeline one submission travels::

    submit -> cache probe -> single-flight -> admission -> pool -> cache put
      |hit: answer <10ms |join in-flight    |full: shed  |timeout/retry

* **Cache probe** -- the cell is keyed once
  (:meth:`~repro.cache.results.ResultCache.keyed`); that one key and
  fingerprint serve the cache lookup, single-flight, and the leader's
  cache store. The content-addressed result cache is consulted first; a
  warm entry answers without touching the queue. Unkeyable cells
  (fingerprint ``None``) count as a ``skipped`` lookup and bypass
  single-flight -- they always run.
* **Single-flight** -- concurrent submissions with the same fingerprint
  coalesce onto one in-flight computation
  (:class:`~repro.serve.singleflight.SingleFlight`); only the leader
  occupies a queue slot and a worker.
* **Admission** -- at most ``queue_limit`` leaders may be active
  (admitted but unfinished); beyond that submissions are shed with
  :class:`Overloaded` (HTTP 429) instead of building unbounded backlog.
* **Execution** -- the leader runs the cell through the same worker
  entry point as ``run_cells`` (:func:`repro.analysis.parallel._run_cell`)
  on a persistent process pool. A pool crash
  (:class:`~concurrent.futures.process.BrokenProcessPool`) is retried
  with exponential backoff on a fresh pool, mirroring ``run_cells``'s
  broken-pool fallback; a per-attempt timeout fails the job with
  :class:`JobTimeout` (HTTP 504).
* **Drain** -- :meth:`JobManager.drain` stops admitting (HTTP 503),
  waits up to the grace period for active jobs, then shuts the pool
  down. Cache writes happen before the submitter is answered and are
  atomic (tmp + rename), so a drain -- even an impatient one -- never
  leaves a torn cache entry.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from dataclasses import dataclass
from typing import Optional

from repro.analysis.parallel import Cell, _run_cell, resolve_jobs
from repro.errors import ReproError
from repro.serve.config import ServeConfig
from repro.serve.metrics import (SV_COALESCED, SV_DRAIN, SV_EXEC, SV_FAIL,
                                 SV_HIT, SV_RETRY, SV_SHED, SV_SUBMIT,
                                 SV_TIMEOUT, ServeMetrics)
from repro.serve.singleflight import SingleFlight


class ServeError(ReproError):
    """Base of job-level failures; ``status`` is the HTTP mapping and
    ``wire_status`` the per-cell record status string."""

    status = 500
    wire_status = "failed"


class Overloaded(ServeError):
    """The admission queue is full; back off and resubmit."""

    status = 429
    wire_status = "shed"


class Draining(ServeError):
    """The server is shutting down and no longer admits work."""

    status = 503
    wire_status = "draining"


class JobTimeout(ServeError):
    """The job exceeded the per-attempt execution timeout."""

    status = 504
    wire_status = "timeout"


class JobFailed(ServeError):
    """The simulation raised, or the worker pool broke repeatedly."""

    status = 500
    wire_status = "failed"


class PoolBroken(Exception):
    """Internal: the process pool died under a job (retryable)."""


class PoolRunner:
    """Persistent worker pool executing cells off the event loop.

    Prefers a :class:`~concurrent.futures.ProcessPoolExecutor` sized by
    ``jobs`` (0 = one per CPU); where process pools cannot start
    (no fork/semaphores) it degrades to a single-worker thread pool --
    the GIL serialises simulation there, but the service keeps working.
    """

    def __init__(self, jobs: int = 0) -> None:
        self.jobs = resolve_jobs(jobs)
        self.mode: Optional[str] = None  # "process" | "thread"
        self._pool = None

    def _ensure(self):
        if self._pool is not None:
            return self._pool
        try:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs)
            self.mode = "process"
        except (ImportError, NotImplementedError, OSError,
                PermissionError):
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve")
            self.mode = "thread"
        return self._pool

    async def run(self, cell: Cell):
        """Execute one cell; raises :class:`PoolBroken` on pool death."""
        pool = self._ensure()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(pool, _run_cell, cell)
        except concurrent.futures.process.BrokenProcessPool as err:
            raise PoolBroken(str(err) or "broken process pool") from err

    def reset(self) -> None:
        """Discard a (broken) pool; the next run builds a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class JobOutcome:
    """What one submission was answered with."""

    status: str                 # "hit" | "executed" | "coalesced"
    stats: object               # RunStats
    fingerprint: Optional[str]
    latency_ms: float


class JobManager:
    """Triage + execution engine shared by every connection handler."""

    def __init__(self, config: ServeConfig, runner=None,
                 cache=None) -> None:
        from repro.cache.keys import cache_enabled
        from repro.cache.results import ResultCache

        self.config = config
        self.runner = runner if runner is not None else PoolRunner(config.jobs)
        if cache is not None:
            self.cache = cache or None      # cache=False -> disabled
        else:
            self.cache = ResultCache() if cache_enabled() else None
        self.metrics = ServeMetrics()
        self.flights = SingleFlight()
        self.draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    # -- submission --------------------------------------------------------
    async def submit(self, cell: Cell) -> JobOutcome:
        """Answer one cell submission (see module docstring for the
        pipeline). Raises a :class:`ServeError` subclass on every
        non-answer path so the HTTP layer maps it mechanically."""
        start = time.perf_counter()
        if self.draining:
            raise Draining("server is draining; resubmit elsewhere/later")
        self.metrics.count("submitted", SV_SUBMIT)

        keyed = fingerprint = None
        if self.cache is not None:
            keyed = self.cache.keyed(cell)
            fingerprint = keyed.fingerprint
            stats = self.cache.get(cell, keyed)
            if stats is not None:
                latency = _ms_since(start)
                self.metrics.count("hits", SV_HIT, fingerprint,
                                   latency_ms=latency)
                self.metrics.hit_latency.observe(latency)
                return JobOutcome("hit", stats, fingerprint, latency)

        if fingerprint is None:
            # Unkeyable: no identity to coalesce or cache under.
            stats = await self._admit_and_run(cell)
            return JobOutcome("executed", stats, None, _ms_since(start))

        led, stats = await self.flights.run(
            fingerprint, lambda: self._lead(cell, keyed))
        latency = _ms_since(start)
        if led:
            self.metrics.count("executed", SV_EXEC, fingerprint,
                               latency_ms=latency)
            self.metrics.exec_latency.observe(latency)
            return JobOutcome("executed", stats, fingerprint, latency)
        self.metrics.count("coalesced", SV_COALESCED, fingerprint,
                           latency_ms=latency)
        return JobOutcome("coalesced", stats, fingerprint, latency)

    async def _lead(self, cell: Cell, keyed):
        """Leader path: run for real, then publish to the cache *before*
        followers (and later submitters) are woken."""
        stats = await self._admit_and_run(cell)
        if self.cache is not None:
            if self.cache.put(cell, stats, keyed):
                self.metrics.counters["cache_stores"] += 1
            else:
                self.metrics.counters["cache_store_failures"] += 1
        return stats

    # -- admission + execution --------------------------------------------
    async def _admit_and_run(self, cell: Cell):
        if self.metrics.active >= self.config.queue_limit:
            self.metrics.count("shed", SV_SHED, detail=cell.label)
            raise Overloaded(
                f"admission queue full ({self.config.queue_limit} active "
                f"job(s)); resubmit with backoff")
        self.metrics.active += 1
        self._idle.clear()
        try:
            return await self._run_with_retry(cell)
        finally:
            self.metrics.active -= 1
            if self.metrics.active == 0:
                self._idle.set()

    async def _run_with_retry(self, cell: Cell):
        delay = self.config.backoff_s
        last_break = "broken pool"
        for attempt in range(self.config.retries + 1):
            self.metrics.running += 1
            try:
                return await asyncio.wait_for(self.runner.run(cell),
                                              self.config.timeout_s)
            except asyncio.TimeoutError:
                self.metrics.count("timeouts", SV_TIMEOUT,
                                   detail=cell.label)
                raise JobTimeout(
                    f"cell {cell.label!r} exceeded "
                    f"{self.config.timeout_s:g}s (the worker process may "
                    f"still be finishing; its result is discarded)") from None
            except PoolBroken as err:
                last_break = str(err)
                self.runner.reset()
                self.metrics.count("retries", SV_RETRY, detail=cell.label)
                await asyncio.sleep(delay)
                delay *= 2
            except ServeError:
                raise
            except Exception as err:
                # A deterministic simulation error will not heal on
                # retry; fail fast with the original message.
                self.metrics.count("failed", SV_FAIL, detail=str(err))
                raise JobFailed(
                    f"cell {cell.label!r} failed: "
                    f"{type(err).__name__}: {err}") from err
            finally:
                self.metrics.running -= 1
        self.metrics.count("failed", SV_FAIL, detail=last_break)
        raise JobFailed(
            f"worker pool broke {self.config.retries + 1} time(s) running "
            f"cell {cell.label!r}; last: {last_break}")

    # -- shutdown ----------------------------------------------------------
    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting, wait for active jobs, shut the pool down.

        Returns True when every in-flight job finished inside the grace
        period. Idempotent; later calls just wait again.
        """
        if not self.draining:
            self.draining = True
            self.metrics.count("drained", SV_DRAIN)
        grace = self.config.drain_s if timeout_s is None else timeout_s
        try:
            await asyncio.wait_for(self._idle.wait(), grace)
            clean = True
        except asyncio.TimeoutError:
            clean = False
        self.runner.close()
        return clean


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0
