"""Differential test: every incremental recheck equals the batch result.

The incremental layer promises that after any recheck the detection
state of :class:`~repro.core.incremental.IncrementalRICD` equals a
one-shot batch :meth:`~repro.core.framework.RICDDetector.detect` over
the live graph — groups, suspicious sets, and risk scores, in canonical
order.  Pinned two ways: a whole click table replayed from an empty
graph across the scenario grid the engine/shard equivalences use, and a
trickle of small tail-noise batches onto the paper-scale scenario with a
recheck after every batch.
"""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.core.incremental import ClickBatch, IncrementalRICD
from repro.datagen import paper_scenario
from repro.graph import BipartiteGraph

from ..shard.canon import canonical_result
from .scenarios import SCENARIO_GRID, build_scenario

pytestmark = pytest.mark.difftest

PARAMS = RICDParams(k1=5, k2=5)
SCREENING = ScreeningParams()


def click_records(graph):
    """The graph's click table as deterministic-order records."""
    return [
        (user, item, graph.get_click(user, item))
        for user in sorted(graph.users(), key=str)
        for item in sorted(graph.user_neighbors(user), key=str)
    ]


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_replay_all_batches_matches_one_shot_batch(case):
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)

    online = IncrementalRICD(
        BipartiteGraph(),
        params=PARAMS,
        screening=SCREENING,
        # Rechecks deferred entirely to the explicit final call.
        recheck_batches=10**9,
    )
    records = click_records(scenario.graph)
    chunk = max(1, len(records) // 7)
    for start in range(0, len(records), chunk):
        online.ingest(ClickBatch.of(records[start : start + chunk]))
    online.recheck()

    # The replayed graph is the scenario's click *table* (zero-click
    # items of the generated marketplace never appear in any record), so
    # the one-shot reference runs on exactly that table.
    expected = RICDDetector(params=PARAMS, screening=SCREENING).detect(online.graph)
    assert online.graph.num_edges == scenario.graph.num_edges
    assert canonical_result(online.current_result) == canonical_result(expected)


def _noise_batches(count: int, size: int = 20):
    """Organic-looking click batches landing on existing long-tail nodes
    (users ``u0..u4999``, items ranked 500+)."""
    return [
        ClickBatch.of(
            (
                f"u{(batch_index * size + offset) % 5000}",
                f"i{500 + (batch_index * size + offset) % 3500}",
                1,
            )
            for offset in range(size)
        )
        for batch_index in range(count)
    ]


def test_every_recheck_of_a_noise_trickle_matches_one_shot_batch():
    """Small batches on a big graph: each recheck serves the batch answer
    on the graph as it stands."""
    online = IncrementalRICD(paper_scenario(seed=0).graph, engine="auto", recheck_batches=1)
    batch = RICDDetector(engine="auto")
    for number, noise in enumerate(_noise_batches(10), start=1):
        served = online.ingest(noise)
        expected = batch.detect(online.graph)
        assert canonical_result(served) == canonical_result(expected), f"batch {number}"
