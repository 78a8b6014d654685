"""JobManager: coalescing, admission, timeout/retry, drain -- no HTTP.

A fake runner stands in for the process pool so each path is exercised
deterministically (and fast); tests/serve/test_server.py runs the real
pool end to end.
"""

import asyncio

import pytest

from repro import Policy
from repro.analysis.parallel import Cell
from repro.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.jobs import (Draining, JobFailed, JobManager, JobTimeout,
                              Overloaded, PoolBroken)

from tests.serve.conftest import run


def _cell(label="gjk", **extra):
    from repro.analysis.experiments import ExperimentConfig

    exp = ExperimentConfig(n_clusters=2, scale=0.12)
    return Cell.make("gjk", Policy.swcc(), exp, label=label, **extra)


def _config(**overrides):
    base = dict(port=0, jobs=1, queue_limit=64, timeout_s=5.0,
                retries=2, backoff_s=0.001, drain_s=5.0)
    base.update(overrides)
    return ServeConfig(**base)


class FakeRunner:
    """Scriptable PoolRunner stand-in: counts runs, optionally blocks,
    breaks, or raises."""

    def __init__(self, result="stats", delay_s=0.0, breaks=0,
                 raises=None) -> None:
        self.result = result
        self.delay_s = delay_s
        self.breaks = breaks      # raise PoolBroken this many times
        self.raises = raises
        self.runs = 0
        self.resets = 0
        self.closed = False
        self.release = asyncio.Event()
        self.release.set()

    async def run(self, cell):
        self.runs += 1
        if self.breaks > 0:
            self.breaks -= 1
            raise PoolBroken("fake pool death")
        if self.raises is not None:
            raise self.raises
        await self.release.wait()
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        return self.result

    def reset(self):
        self.resets += 1

    def close(self):
        self.closed = True


def _manager(runner=None, cache=False, **config_overrides):
    return JobManager(_config(**config_overrides),
                      runner=runner or FakeRunner(), cache=cache)


class TestSingleFlightDedup:
    def test_concurrent_identical_submissions_execute_once(self, cache_dir):
        runner = FakeRunner(delay_s=0.02)
        jobs = JobManager(_config(), runner=runner,
                          cache=ResultCache())

        async def body():
            return await asyncio.gather(*(jobs.submit(_cell())
                                          for _ in range(4)))

        outcomes = run(body())
        assert runner.runs == 1, "duplicates were not coalesced"
        statuses = sorted(o.status for o in outcomes)
        assert statuses == ["coalesced"] * 3 + ["executed"]
        assert all(o.fingerprint == outcomes[0].fingerprint
                   for o in outcomes)
        assert jobs.metrics.counters["executed"] == 1
        assert jobs.metrics.counters["coalesced"] == 3

    def test_label_does_not_defeat_coalescing(self, cache_dir):
        # The fingerprint excludes the display label, so renamed
        # duplicates still coalesce.
        runner = FakeRunner(delay_s=0.02)
        jobs = JobManager(_config(), runner=runner, cache=ResultCache())

        async def body():
            return await asyncio.gather(jobs.submit(_cell(label="a")),
                                        jobs.submit(_cell(label="b")))

        run(body())
        assert runner.runs == 1

    def test_unkeyable_cell_counts_as_skipped_lookup(self, cache_dir):
        # l2_bytes must be a multiple of the line size: MachineConfig
        # rejects the override, so the cell has no key.
        from repro.cache import RESULT_STATS

        cache = ResultCache()
        jobs = JobManager(_config(), runner=FakeRunner(), cache=cache)
        outcome = run(jobs.submit(_cell(l2_bytes=1000)))
        assert outcome.status == "executed" and outcome.fingerprint is None
        assert cache.skipped == 1 and RESULT_STATS.skipped == 1
        assert (cache.hits, cache.misses) == (0, 0)

    def test_unkeyable_cells_never_coalesce(self):
        runner = FakeRunner(delay_s=0.02)
        jobs = _manager(runner=runner, cache=False)

        async def body():
            return await asyncio.gather(*(jobs.submit(_cell())
                                          for _ in range(3)))

        outcomes = run(body())
        assert runner.runs == 3
        assert all(o.status == "executed" and o.fingerprint is None
                   for o in outcomes)


class TestWarmHits:
    @pytest.fixture
    def warm(self, cache_dir):
        from repro.analysis.parallel import _run_cell

        stats = _run_cell(_cell())
        assert ResultCache().put(_cell(), stats)
        return stats

    def test_hit_answers_from_cache_without_running(self, warm):
        runner = FakeRunner()
        jobs = JobManager(_config(), runner=runner, cache=ResultCache())
        outcome = run(jobs.submit(_cell()))
        assert outcome.status == "hit" and outcome.stats == warm
        assert runner.runs == 0
        assert jobs.metrics.counters["hits"] == 1

    def test_hit_latency_under_10ms(self, warm):
        jobs = JobManager(_config(), runner=FakeRunner(),
                          cache=ResultCache())
        latencies = [run(jobs.submit(_cell())).latency_ms
                     for _ in range(3)]
        assert min(latencies) < 10.0, latencies
        assert jobs.metrics.hit_latency.total == 3

    def test_leader_stores_result_for_later_hits(self, cache_dir):
        from repro.analysis.parallel import _run_cell

        stats = _run_cell(_cell())
        runner = FakeRunner(result=stats)
        jobs = JobManager(_config(), runner=runner, cache=ResultCache())
        first = run(jobs.submit(_cell()))
        second = run(jobs.submit(_cell()))
        assert (first.status, second.status) == ("executed", "hit")
        assert runner.runs == 1
        assert jobs.metrics.counters["cache_stores"] == 1


class TestAdmission:
    def test_overload_sheds_with_429(self):
        runner = FakeRunner()
        runner.release.clear()  # block the first job indefinitely
        jobs = _manager(runner=runner, queue_limit=1)

        async def body():
            first = asyncio.ensure_future(jobs.submit(_cell(seed_extra=1)))
            await asyncio.sleep(0.01)
            with pytest.raises(Overloaded, match="queue full"):
                await jobs.submit(_cell(seed_extra=2))
            runner.release.set()
            return await first

        outcome = run(body())
        assert outcome.status == "executed"
        assert jobs.metrics.counters["shed"] == 1

    def test_draining_rejects_submissions(self):
        jobs = _manager()
        run(jobs.drain())
        with pytest.raises(Draining):
            run(jobs.submit(_cell()))
        assert jobs.runner.closed


class TestTimeoutsAndRetries:
    def test_timeout_maps_to_job_timeout(self):
        jobs = _manager(runner=FakeRunner(delay_s=1.0), timeout_s=0.02)
        with pytest.raises(JobTimeout, match="exceeded"):
            run(jobs.submit(_cell()))
        assert jobs.metrics.counters["timeouts"] == 1

    def test_pool_break_retries_then_succeeds(self):
        runner = FakeRunner(breaks=2)
        jobs = _manager(runner=runner, retries=2)
        outcome = run(jobs.submit(_cell()))
        assert outcome.status == "executed"
        assert runner.runs == 3 and runner.resets == 2
        assert jobs.metrics.counters["retries"] == 2
        assert jobs.metrics.counters["failed"] == 0

    def test_pool_break_exhausts_retries(self):
        runner = FakeRunner(breaks=99)
        jobs = _manager(runner=runner, retries=1)
        with pytest.raises(JobFailed, match="broke 2 time"):
            run(jobs.submit(_cell()))
        assert runner.runs == 2
        assert jobs.metrics.counters["failed"] == 1

    def test_simulation_error_fails_fast_without_retry(self):
        runner = FakeRunner(raises=ValueError("bad kernel"))
        jobs = _manager(runner=runner, retries=5)
        with pytest.raises(JobFailed, match="bad kernel"):
            run(jobs.submit(_cell()))
        assert runner.runs == 1, "deterministic failure was retried"

    def test_failed_flight_does_not_poison_the_next(self):
        runner = FakeRunner(breaks=99)
        jobs = _manager(runner=runner, retries=0)
        with pytest.raises(JobFailed):
            run(jobs.submit(_cell()))
        runner.breaks = 0
        assert run(jobs.submit(_cell())).status == "executed"


class TestDrain:
    def test_drain_waits_for_active_jobs(self):
        runner = FakeRunner(delay_s=0.05)
        jobs = _manager(runner=runner)

        async def body():
            inflight = asyncio.ensure_future(jobs.submit(_cell()))
            await asyncio.sleep(0.01)
            clean = await jobs.drain()
            outcome = await inflight
            return clean, outcome

        clean, outcome = run(body())
        assert clean is True and outcome.status == "executed"
        assert jobs.runner.closed
        assert jobs.metrics.counters["drained"] == 1

    def test_impatient_drain_reports_unclean(self):
        runner = FakeRunner()
        runner.release.clear()
        jobs = _manager(runner=runner)

        async def body():
            inflight = asyncio.ensure_future(jobs.submit(_cell()))
            await asyncio.sleep(0.01)
            clean = await jobs.drain(timeout_s=0.02)
            runner.release.set()
            await inflight
            return clean

        assert run(body()) is False


class TestEventBus:
    def test_lifecycle_events_ride_the_obs_bus(self, cache_dir):
        from repro.serve.metrics import SV_EXEC, SV_HIT, SV_SUBMIT

        from repro.analysis.parallel import _run_cell

        stats = _run_cell(_cell())
        jobs = JobManager(_config(), runner=FakeRunner(result=stats),
                          cache=ResultCache())
        kinds = []
        jobs.metrics.bus.subscribe(lambda event: kinds.append(event.kind))
        run(jobs.submit(_cell()))
        run(jobs.submit(_cell()))
        assert kinds == [SV_SUBMIT, SV_EXEC, SV_SUBMIT, SV_HIT]
