"""Percentile support and freshness attribution."""

import pytest

from e2e import stats
from e2e.stats import Cover, Submission


class TestPercentileSupport:
    @pytest.mark.parametrize(
        "count, pct, beyond",
        [(20, 50, 10), (19, 50, 9), (100, 90, 10), (99, 90, 9), (1000, 99, 10), (999, 99, 9)],
    )
    def test_samples_beyond_nearest_rank(self, count, pct, beyond):
        assert stats.samples_beyond(count, pct) == beyond
        assert stats.supported(count, pct) == (beyond >= stats.MIN_BEYOND)

    def test_summary_stops_at_highest_supported(self):
        assert list(stats.summarize(range(99)).percentiles) == [50]
        assert list(stats.summarize(range(100)).percentiles) == [50, 90]
        assert list(stats.summarize(range(1000)).percentiles) == [50, 90, 99]
        assert stats.summarize(range(19)).percentiles == {}

    def test_values_are_nearest_rank(self):
        summary = stats.summarize(range(1, 1001))
        assert summary.percentiles == {50: 500, 90: 900, 99: 990}
        assert summary.count == 1000

    def test_weights_count_as_repeated_samples(self):
        pairs = [(5.0, 30), (1.0, 60), (9.0, 10)]
        expanded = [5.0] * 30 + [1.0] * 60 + [9.0] * 10
        assert stats.summarize_weighted(pairs) == stats.summarize(expanded)
        assert stats.weighted_percentile(pairs, 50) == 1.0
        assert stats.weighted_percentile(pairs, 90) == 5.0
        assert stats.weighted_percentile(pairs, 91) == 9.0


class TestFreshnessAttribution:
    def test_each_submission_waits_for_its_first_covering_recheck(self):
        # Events 0-9 sent at t=0, 10-19 at t=1, 20-29 at t=2; a recheck
        # finishing at t=1.5 covers the first 20, the checkpoint the rest.
        submissions = [Submission(0.0, 0, 10), Submission(1.0, 10, 10), Submission(2.0, 20, 10)]
        covers = [Cover(1.5, 20), Cover(4.0, 30)]
        assert stats.attribute_freshness(submissions, covers) == [
            (1.5, 10),
            (0.5, 10),
            (2.0, 10),
        ]

    def test_partial_cover_waits_for_the_next(self):
        # A recheck that covers only part of a submission does not count
        # for it: the submission's last event must be covered.
        pairs = stats.attribute_freshness([Submission(0.0, 0, 10)], [Cover(1.0, 5), Cover(3.0, 10)])
        assert pairs == [(3.0, 10)]

    def test_covers_are_taken_in_completion_order(self):
        pairs = stats.attribute_freshness(
            [Submission(0.0, 0, 1)], [Cover(5.0, 2), Cover(2.0, 1)]
        )
        assert pairs == [(2.0, 1)]

    def test_uncovered_event_is_an_error(self):
        with pytest.raises(ValueError, match="never covered"):
            stats.attribute_freshness([Submission(0.0, 0, 10)], [Cover(1.0, 9)])

    def test_shrinking_reach_is_an_error(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            stats.attribute_freshness([Submission(0.0, 0, 1)], [Cover(1.0, 5), Cover(2.0, 3)])
