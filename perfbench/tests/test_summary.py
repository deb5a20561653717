"""The percentile rule, spreads and the compare verdicts."""

import statistics

import pytest

from summary import percentile, spread, supported_percentile, verdict


@pytest.mark.parametrize(
    "n, p",
    [(1, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9), (999, 0.9), (1000, 0.99), (10000, 0.999)],
)
def test_highest_percentile_with_ten_samples_beyond(n, p):
    assert supported_percentile(n) == p


def test_percentile_matches_statistics_quantiles():
    xs = [float(x * x % 97) for x in range(1, 101)]
    deciles = statistics.quantiles(xs, n=10)
    assert percentile(xs, 0.9) == pytest.approx(deciles[8])
    assert percentile(xs, 0.5) == statistics.median(xs)
    assert percentile([3.0], 0.9) == 3.0
    assert percentile([1.0, 2.0], 0.9) == 2.0  # clamped to the sample


def test_spread_is_quartile_distance_over_median():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert spread(xs) == pytest.approx((q3 - q1) / med)
    assert spread([2.0]) == 0.0


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.01, 9.99]


def test_verdict_better_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread():
    assert verdict(PARENT, [x * 0.8 for x in PARENT], 0.1, "lower") == "better"
    assert verdict(PARENT, [x * 1.2 for x in PARENT], 0.1, "higher") == "better"
    # wins every pair but by less than the parent's quartile distance
    assert verdict(PARENT, [x - 0.001 for x in PARENT], 0.1, "lower") == "unchanged"
    # a large gain on only eight of ten pairs
    mixed = [x * 0.5 for x in PARENT[:8]] + [x * 1.01 for x in PARENT[8:]]
    assert verdict(PARENT, mixed, 0.1, "lower") == "unchanged"


def test_verdict_worse_beyond_the_bound_only():
    assert verdict(PARENT, [x * 1.2 for x in PARENT], 0.1, "lower") == "worse"
    assert verdict(PARENT, [x * 1.05 for x in PARENT], 0.1, "lower") == "unchanged"
    assert verdict(PARENT, [x * 0.8 for x in PARENT], 0.1, "higher") == "worse"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [x * 1.3 for x in noisy], 0.1, "lower") == "unresolved"
    assert verdict(noisy, [x * 0.95 for x in noisy], 0.1, "lower") == "unresolved"
    # unless every run of the change reads better than every run of the parent
    assert verdict(noisy, [4.0] * 10, 0.1, "lower") == "better"
