"""Bench stays honest: cache bypassed by default, opt-in is recorded."""

import pytest

from repro.bench import BenchDocError, compare_runs, run_bench, select_specs
from repro.bench.report import format_bench_table, summary_markdown

from tests.conftest import needs_numpy

pytestmark = needs_numpy


def _specs():
    return select_specs("heat")


class TestBypassDefault:
    def test_default_bypasses_and_records_status(self, cache_dir):
        doc = run_bench(_specs(), jobs=1)
        assert doc["cache"] is False
        assert "cache_hit_rate" not in doc
        for cell in doc["cells"].values():
            assert cell["cache"] == "bypassed"
        # Nothing was consulted or stored.
        assert not (cache_dir / "results").exists()

    def test_default_bypasses_even_with_env_cache_on(self, cache_dir,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        run_bench(_specs(), jobs=1)
        assert not (cache_dir / "results").exists()


class TestOptIn:
    def test_miss_then_hit(self, cache_dir):
        cold = run_bench(_specs(), jobs=1, use_cache=True)
        assert cold["cache"] is True and cold["cache_hit_rate"] == 0.0
        assert all(c["cache"] == "miss" for c in cold["cells"].values())
        warm = run_bench(_specs(), jobs=1, use_cache=True)
        assert warm["cache_hit_rate"] == 1.0
        assert all(c["cache"] == "hit" for c in warm["cells"].values())
        # Simulated counters survive the cache round trip exactly.
        for key in cold["cells"]:
            for field in ("cycles", "ops", "tasks"):
                assert warm["cells"][key][field] == cold["cells"][key][field]

    def test_table_shows_cache_column_only_when_cached(self, cache_dir):
        plain = run_bench(_specs(), jobs=1)
        cached = run_bench(_specs(), jobs=1, use_cache=True)
        assert "cache" not in format_bench_table(plain)
        table = format_bench_table(cached)
        assert "cache" in table and "result cache ON" in table

    def test_summary_markdown_reports_hit_rate(self, cache_dir):
        run_bench(_specs(), jobs=1, use_cache=True)
        warm = run_bench(_specs(), jobs=1, use_cache=True)
        assert "hit rate 100%" in summary_markdown(warm)


class TestCompareGuard:
    def test_cached_vs_uncached_refused(self, cache_dir):
        plain = run_bench(_specs(), jobs=1)
        cached = run_bench(_specs(), jobs=1, use_cache=True)
        with pytest.raises(BenchDocError, match="not comparable"):
            compare_runs(plain, cached)
        with pytest.raises(BenchDocError, match="not comparable"):
            compare_runs(cached, plain)

    def test_flag_absent_means_uncached(self, cache_dir):
        """Old baselines predate the flag; they compare as uncached."""
        plain = run_bench(_specs(), jobs=1)
        legacy = dict(plain)
        legacy.pop("cache")
        assert compare_runs(legacy, plain).ok

    def test_like_for_like_still_compares(self, cache_dir):
        run_bench(_specs(), jobs=1, use_cache=True)
        a = run_bench(_specs(), jobs=1, use_cache=True)
        b = run_bench(_specs(), jobs=1, use_cache=True)
        assert compare_runs(a, b, threshold=100.0).ok
