"""Workload inputs: one seeded marketplace stream and the store built from it.

The stream is the shuffled edge list of a ``datagen.atscale`` marketplace
with dense planted worker x target blocks.  The seed fixes both the
marketplace and the shuffle, so the same seed gives the same inputs.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import RICDParams
from repro.datagen.atscale import AtScaleConfig, generate_at_scale
from repro.graph import BipartiteGraph
from repro.graph.indexed import IndexedGraph

#: 1/320 of the paper's Taobao proportions: ~270k click events.
SCALE = 1 / 320

#: Thresholds sized to the atscale marketplace (targets stay ordinary,
#: 8-12 clicks per worker-target edge clear T_click), as in the serve benches.
PARAMS = RICDParams(k1=10, k2=10, t_hot=500.0, t_click=5.0)

#: Share of the stream committed to the store before a warm workload.
PREFIX_SHARE = 0.97


@dataclass
class Stream:
    """One marketplace as a shuffled event stream of string ids."""

    users: list
    items: list
    clicks: list
    planted_users: list
    planted_items: list
    ordinary_users: list
    ordinary_items: list

    def __len__(self) -> int:
        return len(self.users)

    def records(self, start: int = 0, stop: "int | None" = None) -> list:
        return list(zip(self.users[start:stop], self.items[start:stop], self.clicks[start:stop]))

    @property
    def prefix_len(self) -> int:
        return int(len(self) * PREFIX_SHARE)


def make_stream(seed: int) -> Stream:
    """Generate the marketplace for ``seed`` at :data:`SCALE` and shuffle its edges."""
    arrays = generate_at_scale(AtScaleConfig(scale=SCALE, seed=seed, target_clicks=(8, 12)))
    rng = np.random.default_rng([seed, 1])
    order = rng.permutation(arrays.n_edges)
    workers = np.concatenate(arrays.worker_rows)
    targets = np.concatenate(arrays.target_columns)
    organic = rng.choice(int(workers.min()), size=len(workers), replace=False)
    plain_items = np.setdiff1d(rng.choice(arrays.n_items, size=4 * len(targets)), targets)
    return Stream(
        users=[f"u{row}" for row in arrays.user_idx[order].tolist()],
        items=[f"i{column}" for column in arrays.item_idx[order].tolist()],
        clicks=arrays.clicks[order].tolist(),
        planted_users=[f"u{row}" for row in workers.tolist()],
        planted_items=[f"i{column}" for column in targets.tolist()],
        ordinary_users=[f"u{row}" for row in organic.tolist()],
        ordinary_items=[f"i{column}" for column in plain_items[: len(targets)].tolist()],
    )


def graph_of(records) -> BipartiteGraph:
    """The click graph of ``records``, built array-side then lazily wrapped."""
    users = sorted({user for user, _, _ in records})
    items = sorted({item for _, item, _ in records})
    user_index = {user: row for row, user in enumerate(users)}
    item_index = {item: column for column, item in enumerate(items)}
    snapshot = IndexedGraph.from_arrays(
        users,
        items,
        np.fromiter((user_index[user] for user, _, _ in records), np.int64, len(records)),
        np.fromiter((item_index[item] for _, item, _ in records), np.int64, len(records)),
        np.fromiter((clicks for _, _, clicks in records), np.int64, len(records)),
    )
    return BipartiteGraph.from_indexed(snapshot)


def build_store(stream: Stream, root: Path) -> int:
    """Commit the stream's prefix to a fresh store at ``root``; returns its head."""
    from repro.serve import DetectionService

    if root.exists():
        shutil.rmtree(root)
    service = DetectionService.from_store(
        root, initial_graph=graph_of(stream.records(0, stream.prefix_len)), params=PARAMS
    )
    return service.store_version

