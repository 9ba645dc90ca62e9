"""Differential test: every recheck equals detection on a cold rebuild.

The service's live graph is an array snapshot plus a pending buffer of
click records, folded into the snapshot by one vectorized merge.  The
serve-parity suite compares the served result with a batch ``detect``
on that same live graph, which reuses the merged snapshot; here the
oracle runs on a fresh :class:`BipartiteGraph` rebuilt from the live
graph's ``edges()``, so its snapshot comes from a one-pass build and
never from the merge.  The stream re-clicks edges of earlier batches,
repeats an edge inside one batch and brings in new users and items
mid-batch, so the merge's patch, coalesce and insert paths all feed the
served results.  Pinned from a cold empty start and from a warm start on
a store, whose delta replay goes through the same merge.
"""

import random

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.graph import BipartiteGraph
from repro.serve import ClickEvent, DetectionService, ServeConfig, SimulatedClock, StalenessPolicy
from repro.store import DetectionStore

from ..shard.canon import canonical_result
from .scenarios import SCENARIO_GRID, build_scenario
from .test_incremental_parity import click_records

pytestmark = pytest.mark.difftest

PARAMS = RICDParams(k1=5, k2=5)
SCREENING = ScreeningParams()
BATCHES = 24


def click_stream(graph, seed):
    """The graph's click table as shuffled pieces: each multi-click edge
    is split in two records, so it is clicked again later (or twice in
    one batch)."""
    rng = random.Random(seed)
    pieces = []
    for user, item, clicks in click_records(graph):
        if clicks == 1:
            pieces.append((user, item, 1))
        else:
            first = rng.randint(1, clicks - 1)
            pieces += [(user, item, first), (user, item, clicks - first)]
    rng.shuffle(pieces)
    return pieces


def batches_of(records, size):
    return [records[start : start + size] for start in range(0, len(records), size)]


def assert_stream_exercises_the_merge(batches):
    """The stream holds every case the merge distinguishes."""
    seen_edges, seen_users = set(), set()
    reclicks = repeats = new_mid_batch = 0
    for batch in batches:
        edges = [(user, item) for user, item, _ in batch]
        repeats += len(edges) - len(set(edges))
        reclicks += sum(1 for edge in set(edges) if edge in seen_edges)
        new_mid_batch += any(user not in seen_users for user, _, _ in batch[1:])
        seen_edges.update(edges)
        seen_users.update(user for user, _, _ in batch)
    assert reclicks and repeats and new_mid_batch


def cold_rebuild(graph):
    rebuilt = BipartiteGraph()
    for user, item, clicks in graph.edges():
        rebuilt.add_click(user, item, clicks)
    return rebuilt


def replay_with_parity(service, batches, oracle):
    """Stream ``batches``; after every recheck served == cold-rebuild detect."""
    clock = service.clock
    rechecks = 0
    for batch in batches:
        clock.advance(1.0)
        service.submit_events(ClickEvent(*record, timestamp=clock.now()) for record in batch)
        if service.pump().recheck_reason is not None:
            rechecks += 1
            expected = oracle.detect(cold_rebuild(service.online.graph))
            assert canonical_result(service.result) == canonical_result(expected)
    assert rechecks >= 2
    return rechecks


def make_config(n_records):
    return ServeConfig(
        queue_capacity=n_records + 1,  # parity run: nothing shed
        max_batch=n_records,
        staleness=StalenessPolicy(max_dirty=None, max_batches=3, max_age=None),
    )


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_cold_start_rechecks_match_a_cold_rebuild(case, shard_count):
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)
    records = click_stream(scenario.graph, seed)
    batches = batches_of(records, -(-len(records) // BATCHES))
    assert_stream_exercises_the_merge(batches)
    oracle = RICDDetector(params=PARAMS, screening=SCREENING, engine="auto", shards=shard_count)

    service = DetectionService.over_graph(
        BipartiteGraph(),
        params=PARAMS,
        screening=SCREENING,
        engine="auto",
        config=make_config(len(records)),
        clock=SimulatedClock(),
    )
    replay_with_parity(service, batches, oracle)
    final = service.checkpoint()
    rebuilt = cold_rebuild(service.online.graph)
    assert canonical_result(final) == canonical_result(oracle.detect(rebuilt))
    # The rebuilt graph is the scenario's click table, record for record.
    assert sorted(rebuilt.edges()) == sorted(click_records(scenario.graph))


@pytest.mark.parametrize("case", SCENARIO_GRID[:3], ids=lambda case: case[0])
def test_store_start_rechecks_match_a_cold_rebuild(case, shard_count, tmp_path):
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)
    records = click_stream(scenario.graph, seed)
    batches = batches_of(records, -(-len(records) // BATCHES))
    assert_stream_exercises_the_merge(batches)
    oracle = RICDDetector(params=PARAMS, screening=SCREENING, engine="auto", shards=shard_count)
    head, tail = batches[: BATCHES // 3], batches[BATCHES // 3 :]

    prefix = BipartiteGraph()
    prefix.add_clicks([record for batch in head for record in batch])
    DetectionService.from_store(
        tmp_path / "store", initial_graph=prefix, params=PARAMS, screening=SCREENING
    )
    service = DetectionService.from_store(
        tmp_path / "store",
        params=PARAMS,
        screening=SCREENING,
        engine="auto",
        config=make_config(len(records)),
        clock=SimulatedClock(),
    )
    replay_with_parity(service, tail, oracle)
    service.drain()

    # Every recheck committed a delta of the records since the previous
    # one; replaying that chain onto the bootstrap snapshot is the same
    # merge, and must reproduce the live graph.
    stored = DetectionStore.open(tmp_path / "store").load_graph()
    assert sorted(stored.edges()) == sorted(service.online.graph.edges())
    assert canonical_result(oracle.detect(cold_rebuild(stored))) == canonical_result(
        service.result
    )
