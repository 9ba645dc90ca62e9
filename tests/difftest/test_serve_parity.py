"""Differential test: every served recheck is batch-equal.

The service contract: after every scheduled recheck and at every
:meth:`~repro.serve.DetectionService.checkpoint` the served state equals
a one-shot batch :meth:`~repro.core.framework.RICDDetector.detect` over
the prefix graph the stream has built so far — groups, suspicious sets,
and risk scores, in canonical order.  Between rechecks the served result
only lags the stream, within the staleness bounds.  Pinned across the
same scenario grid as the engine and incremental equivalences, replayed
through a simulated clock with multiple intermediate checkpoints per
scenario.
"""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.graph import BipartiteGraph
from repro.serve import DetectionService, ServeConfig, SimulatedClock, StalenessPolicy

from ..shard.canon import canonical_result
from .scenarios import SCENARIO_GRID, build_scenario
from .test_incremental_parity import click_records

pytestmark = pytest.mark.difftest

PARAMS = RICDParams(k1=5, k2=5)
SCREENING = ScreeningParams()
CHECKPOINTS = 3


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_every_checkpoint_matches_one_shot_batch_on_the_prefix(case):
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)
    records = click_records(scenario.graph)

    clock = SimulatedClock()
    service = DetectionService.over_graph(
        BipartiteGraph(),
        params=PARAMS,
        screening=SCREENING,
        engine="reference",
        config=ServeConfig(
            queue_capacity=len(records) + 1,  # parity run: nothing shed
            max_batch=max(1, len(records) // 40),
            staleness=StalenessPolicy(max_dirty=400, max_batches=5, max_age=30.0),
        ),
        clock=clock,
    )
    batch = RICDDetector(params=PARAMS, screening=SCREENING, engine="reference")

    marks = sorted(
        round(len(records) * step / CHECKPOINTS) for step in range(1, CHECKPOINTS + 1)
    )
    for index, (user, item, clicks) in enumerate(records, start=1):
        clock.advance(0.01)
        service.submit(user, item, clicks, timestamp=clock.now())
        if len(service.queue) >= service.config.max_batch:
            if service.pump().recheck_reason is not None:
                expected = batch.detect(service.online.graph)
                assert canonical_result(service.result) == canonical_result(expected)
        if index in marks:
            streamed = service.checkpoint()
            # The checkpoint is an exact sync on the *prefix* graph the
            # stream has built so far.
            expected = batch.detect(service.online.graph)
            assert canonical_result(streamed) == canonical_result(expected)

    snapshot = service.snapshot()
    assert snapshot.queue.shed == 0
    assert snapshot.applied == len(records)
    assert snapshot.rechecks > CHECKPOINTS  # scheduled rechecks ran between syncs
