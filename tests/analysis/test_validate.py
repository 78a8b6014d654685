"""Reproduction self-check scorecard."""

import pytest

from repro.analysis.experiments import ExperimentConfig
from repro.analysis.validate import (ClaimResult, format_scorecard,
                                     run_validation)

from tests.conftest import needs_numpy


class TestClaimResult:
    def test_str_pass_fail(self):
        ok = ClaimResult("thing holds", "Figure 2", True, "1.5x")
        bad = ClaimResult("thing holds", "Figure 2", False, "0.5x")
        assert str(ok).startswith("[PASS]")
        assert str(bad).startswith("[FAIL]")
        assert "Figure 2" in str(ok)

    def test_format_scorecard_counts(self):
        results = [ClaimResult("a", "s", True, "m"),
                   ClaimResult("b", "s", False, "m")]
        text = format_scorecard(results)
        assert "1/2 claims reproduced" in text


@pytest.mark.slow
@needs_numpy
class TestRunValidation:
    def test_all_claims_pass_at_small_scale(self):
        exp = ExperimentConfig(n_clusters=2, scale=1.0)
        seen = []
        results = run_validation(exp, progress=seen.append)
        assert seen  # progress callbacks fired
        failing = [r for r in results if not r.passed]
        assert failing == [], format_scorecard(results)
        assert len(results) == 8

    def test_undersized_scale_is_clamped(self):
        exp = ExperimentConfig(n_clusters=1, scale=0.01)
        results = run_validation(exp, kernels=("sobel", "kmeans"))
        # the run completes and grades every claim even from a tiny request
        assert len(results) == 8
