"""Each cell's cache key is built exactly once per lookup-and-store.

A warm ``repro serve`` hit, an executed serve leader (lookup, then
store), and every cell of a cold ``run_cells`` sweep each call
:func:`repro.cache.results.cell_key` once.
"""

import pytest

from repro import Policy
from repro.analysis.parallel import Cell, _run_cell, run_cells
from repro.cache import ResultCache
from repro.cache import results as results_mod


def _cell(workload="gjk", label=""):
    from repro.analysis.experiments import ExperimentConfig

    exp = ExperimentConfig(n_clusters=2, scale=0.12)
    return Cell.make(workload, Policy.swcc(), exp, label=label)


@pytest.fixture
def key_calls(monkeypatch):
    """Counts calls of ``cell_key`` made through the results module."""
    calls = []
    real = results_mod.cell_key

    def counting(cell):
        calls.append(cell.label)
        return real(cell)

    monkeypatch.setattr(results_mod, "cell_key", counting)
    return calls


class TestKeyedOnce:
    def test_serve_leader_then_warm_hit(self, cache_dir, key_calls):
        from repro.serve.jobs import JobManager

        from tests.serve.conftest import run
        from tests.serve.test_jobs import FakeRunner, _config

        jobs = JobManager(_config(), runner=FakeRunner(_run_cell(_cell())),
                          cache=ResultCache())
        assert run(jobs.submit(_cell())).status == "executed"
        assert len(key_calls) == 1, "executed leader keyed more than once"
        del key_calls[:]
        assert run(jobs.submit(_cell())).status == "hit"
        assert len(key_calls) == 1, "warm hit keyed more than once"

    def test_cold_run_cells_keys_each_cell_once(self, cache_dir,
                                                key_calls):
        cells = [_cell("gjk", "a"), _cell("cg", "b")]
        cache = ResultCache()
        run_cells(cells, jobs=1, cache=cache)
        assert cache.misses == 2 and cache.stores == 2
        assert sorted(key_calls) == ["a", "b"]
