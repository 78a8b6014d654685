import statistics

import pytest

from quantiles import percentile, quartiles, spread


def test_percentile_known_samples():
    samples = [4, 1, 3, 2]
    assert percentile(samples, 0) == 1
    assert percentile(samples, 100) == 4
    assert percentile(samples, 50) == 2.5
    assert percentile(samples, 90) == pytest.approx(3.7)
    assert percentile([7.5], 90) == 7.5
    assert percentile(range(1, 102), 99) == 100.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_quartiles_match_statistics_and_spread():
    values = [10.0, 12.0, 11.0, 9.0, 30.0, 10.5, 11.5, 10.0, 9.5, 12.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, median, q3 = quartiles(values)
    assert median == statistics.median(values)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert spread([2.0, 2.0, 2.0]) == 0.0
