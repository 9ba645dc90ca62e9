"""Sample statistics shared by every workload.

Two rules keep the reported numbers honest:

* **percentile support** — a percentile is reported only when at least
  :data:`MIN_BEYOND` samples lie strictly beyond it, so a "p99" of 50
  samples (which is just the maximum) never masquerades as a tail figure;
* **freshness attribution** — an event is fresh once the first recheck
  (or the closing checkpoint) whose coverage includes it has completed,
  and its freshness is that completion time minus the event's submission
  (its due time, in open loop).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: The percentiles a :class:`Summary` tries, lowest first.
PERCENTILES = (50, 90, 99)


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``count``."""
    if count <= 0:
        return 0
    rank = max(1, math.ceil(pct / 100.0 * count))
    return count - rank


def supported(count: int, pct: float) -> bool:
    """Whether ``pct`` has at least :data:`MIN_BEYOND` samples beyond it."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def weighted_percentile(pairs: Sequence[tuple[float, int]], pct: float) -> float:
    """Nearest-rank percentile of ``(value, weight)`` samples.

    A weight stands for that many identical samples, so a batch of 10k
    events covered by the same recheck is one pair, not 10k floats.
    """
    ordered = sorted(pairs)
    total = sum(weight for _, weight in ordered)
    if total <= 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * total))
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return ordered[-1][0]


@dataclass(frozen=True)
class Summary:
    """A distribution cut at the highest supported percentile."""

    count: int
    mean: float
    percentiles: dict  # pct -> value, supported ones only

    def get(self, pct: int) -> "float | None":
        return self.percentiles.get(pct)


def summarize(values: Iterable[float]) -> Summary:
    """Summary of unweighted samples."""
    return summarize_weighted([(value, 1) for value in values])


def summarize_weighted(pairs: Sequence[tuple[float, int]]) -> Summary:
    """Summary of ``(value, weight)`` samples (see :func:`weighted_percentile`)."""
    pairs = [(float(value), int(weight)) for value, weight in pairs if weight > 0]
    count = sum(weight for _, weight in pairs)
    if count == 0:
        return Summary(0, 0.0, {})
    mean = sum(value * weight for value, weight in pairs) / count
    found = {}
    for pct in PERCENTILES:
        if not supported(count, pct):
            break
        found[pct] = weighted_percentile(pairs, pct)
    return Summary(count, mean, found)


@dataclass(frozen=True)
class Submission:
    """Events ``first .. first + count - 1`` submitted together at ``due``."""

    due: float
    first: int
    count: int


@dataclass(frozen=True)
class Cover:
    """A recheck (or checkpoint) completed at ``done`` covering events ``< upto``."""

    done: float
    upto: int


def attribute_freshness(
    submissions: Sequence[Submission], covers: Sequence[Cover]
) -> list[tuple[float, int]]:
    """Freshness ``(seconds, events)`` pairs, one per submission.

    Each submission is attributed to the first cover (in completion
    order) whose ``upto`` reaches past its last event; coverage is
    cumulative, so ``upto`` must not decrease.  Raises if an event is
    never covered — a run must end with a checkpoint that covers all.
    """
    ordered = sorted(covers, key=lambda cover: cover.done)
    reach = [cover.upto for cover in ordered]
    if any(later < earlier for earlier, later in zip(reach, reach[1:])):
        raise ValueError("cover reach must be non-decreasing in completion order")
    pairs = []
    for submission in submissions:
        last = submission.first + submission.count - 1
        index = bisect.bisect_right(reach, last)
        if index == len(ordered):
            raise ValueError(f"event {last} is never covered")
        pairs.append((ordered[index].done - submission.due, submission.count))
    return pairs
