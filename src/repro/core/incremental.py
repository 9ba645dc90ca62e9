"""Incremental (online) detection — the paper's stated future work.

Section VIII: "it is important to study how to add an incremental data
processing module to this framework so that it can be applied online to
perform the detection in dynamic graphs ... the earlier these attacks are
detected in real time, the more losses can be reduced."

:class:`IncrementalRICD` implements that module over one live graph:

1. click batches are appended to the live graph — the initial graph's
   frozen array snapshot plus a pending buffer of records, folded into
   the snapshot by one vectorized merge when the next recheck reads it;
2. every user/item touched by a batch is marked dirty — the dirty sets
   only measure how stale the served result is (the serving layer's
   scheduler reads their size and age);
3. on demand (or automatically every ``recheck_batches`` batches), one
   batch :meth:`~repro.core.framework.RICDDetector.detect` runs over the
   whole live graph and its result replaces the served one.

So the served result equals a one-shot batch detect after *every*
recheck, not only at checkpoints.  A neighbourhood-restricted pass would
save nothing here: on every stream measured, the two-hop neighbourhood
of a recheck's dirty nodes held 99% or more of the graph's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Hashable, Iterable

from .. import obs
from ..config import RICDParams, ScreeningParams
from ..errors import ReproError
from ..graph.bipartite import BipartiteGraph
# Unused here; the perfbench tracer wraps this module attribute by name.
from ..graph.builders import seed_expansion  # noqa: F401
from ..resilience.faults import inject
from .framework import RICDDetector
from .groups import DetectionResult

__all__ = ["ClickBatch", "IncrementalRICD"]

Node = Hashable


@dataclass(frozen=True)
class ClickBatch:
    """One batch of new click records ``(user, item, clicks)``."""

    records: tuple[tuple[Node, Node, int], ...]

    @staticmethod
    def of(records: Iterable[tuple[Node, Node, int]]) -> "ClickBatch":
        """Build a batch from any iterable of records."""
        return ClickBatch(records=tuple(records))

    def __len__(self) -> int:
        return len(self.records)


class IncrementalRICD:
    """Online RICD over a stream of click batches.

    Examples
    --------
    >>> from repro.datagen import tiny_scenario
    >>> from repro.config import RICDParams
    >>> scenario = tiny_scenario()
    >>> online = IncrementalRICD(
    ...     scenario.graph, params=RICDParams(k1=4, k2=4), recheck_batches=1
    ... )
    >>> batch = ClickBatch.of([("fresh_user", "i0", 2)])
    >>> result = online.ingest(batch)
    >>> isinstance(result, type(online.current_result))
    True
    """

    def __init__(
        self,
        initial_graph: BipartiteGraph,
        params: RICDParams | None = None,
        screening: ScreeningParams | None = None,
        recheck_batches: int | None = 10,
        max_group_users: int | None = 18,
        engine: str = "auto",
        time_source: Callable[[], float] | None = None,
        *,
        initial_result: DetectionResult | None = None,
    ):
        """``recheck_batches=None`` disables the built-in every-N-batches
        cadence entirely: rechecks then happen only when a caller invokes
        :meth:`recheck` — the mode the streaming service uses, where a
        bounded-staleness scheduler owns the cadence decision.

        ``time_source`` (a ``() -> float`` clock read, e.g. the serving
        layer's :meth:`~repro.serve.clock.Clock.now`) lets the detector
        stamp when its dirty set *started* accumulating, exposed as
        :attr:`dirty_since` / :meth:`dirty_age` — the signal behind the
        scheduler's ``max_age`` staleness bound.  Without one, ages read
        as zero and only size/batch bounds can fire.

        The live graph lazily wraps ``initial_graph.indexed()`` (see
        :meth:`BipartiteGraph.from_indexed`), cold start and warm start
        alike: the snapshot is frozen, so ingest never mutates the
        caller's graph, and a graph that arrives warm (from a store) keeps
        its memoized snapshot.  ``initial_result`` skips the bootstrap
        full pass by installing a (persisted) result as the starting
        state; the caller asserts it matches the graph."""
        if recheck_batches is not None and recheck_batches < 1:
            raise ValueError(f"recheck_batches must be >= 1, got {recheck_batches}")
        self._graph = BipartiteGraph.from_indexed(initial_graph.indexed())
        self._detector = RICDDetector(
            params=params or RICDParams(),
            screening=screening or ScreeningParams(),
            max_group_users=max_group_users,
            engine=engine,
        )
        self._recheck_batches = recheck_batches
        self._time_source = time_source
        self._dirty_since: float | None = None
        self._dirty_users: set[Node] = set()
        self._dirty_items: set[Node] = set()
        self._batches_since_recheck = 0
        self._store = None
        self._pending_records: list[tuple[Node, Node, int]] = []
        self._pending_destructive = False
        if initial_result is not None:
            self._result = initial_result
        else:
            # Bootstrap with one full pass so `current_result` is
            # meaningful from the start.
            self._result = self._detector.detect(self._graph)

    @classmethod
    def from_store(
        cls,
        store,
        params: RICDParams | None = None,
        screening: ScreeningParams | None = None,
        recheck_batches: int | None = None,
        max_group_users: int | None = 18,
        engine: str = "auto",
        time_source: Callable[[], float] | None = None,
    ) -> "IncrementalRICD":
        """Resume from the latest checkpoint of a detection store.

        ``store`` is an open :class:`~repro.store.DetectionStore` (or a
        path to one).  The head snapshot becomes the live graph's backing
        truth in O(1) — no per-edge rebuild loop, ingested clicks only
        join its pending buffer — so resume latency is independent of
        graph size.  The snapshot doubles as the memoized array view, so
        the first ``indexed()`` access is a cache hit.  The
        persisted result becomes the starting state — degraded/stale
        provenance intact, no bootstrap pass — and persisted thresholds
        are rehydrated into the detector's memo so the first resolution
        is a ``detect.threshold_cache_hits``.  Parameters default to the
        values persisted with the head version, so a resumed stream keeps
        detecting with the configuration it was persisted under.
        """
        if isinstance(store, (str, Path)):
            from ..store import DetectionStore

            store = DetectionStore.open(store)
        stored = store.load_thresholds()
        stored_input = stored_resolved = stored_screening = None
        if stored is not None:
            stored_input, stored_resolved, stored_screening = stored
        if params is None:
            params = stored_input
        if screening is None:
            screening = stored_screening
        online = cls(
            store.load_graph(),
            params=params,
            screening=screening,
            recheck_batches=recheck_batches,
            max_group_users=max_group_users,
            engine=engine,
            time_source=time_source,
            initial_result=store.load_result(),
        )
        if stored_resolved is not None and online._detector.params == stored_input:
            online._detector._thresholds().rehydrate(
                online.graph, stored_input, stored_resolved
            )
        online.attach_store(store)
        return online

    def attach_store(self, store) -> None:
        """Persist every subsequent recheck's state into ``store``.

        Successful and stale rechecks alike commit a new store version —
        a delta of the records ingested since the last persist (or a full
        snapshot after destructive cleanup, which deltas cannot express)
        plus the resolved thresholds, fixpoint memos and the result with
        its provenance flags.  A store write that fails (fault injection,
        disk trouble) is absorbed: the version is aborted, the catalog
        stays on the previous version, and the records stay pending for
        the next recheck — the stream never dies to its own persistence.
        """
        self._store = store
        self._pending_records = []
        self._pending_destructive = False

    @property
    def store(self):
        """The attached :class:`~repro.store.DetectionStore`, or ``None``."""
        return self._store

    def persist_checkpoint(self) -> int | None:
        """Make the store head a full-snapshot (compaction) point.

        The service calls this at checkpoints.  When state is already
        persisted at the head (the usual case — the checkpoint's
        ``recheck_full`` committed it), the head's delta chain is folded
        into a base snapshot in place; pending or destructive changes
        commit a fresh snapshot version instead.  Either way later
        resumes load the checkpoint directly, without delta replay.
        Returns the snapshot's version, or ``None`` when no store is
        attached or the write was absorbed.
        """
        if self._store is None:
            return None
        if self._store.head is None or self._pending_records or self._pending_destructive:
            return self._persist(snapshot=True)
        try:
            with obs.span("store_persist"):
                return self._store.compact()
        except ReproError:
            obs.count("store.persist_failures")
            return None

    def _persist(self, snapshot: bool = False) -> int | None:
        if self._store is None:
            return None
        store = self._store
        version = store.begin_version()
        try:
            with obs.span("store_persist"):
                if snapshot or store.head is None or self._pending_destructive:
                    store.put_snapshot(self._graph)
                else:
                    store.put_delta(
                        [
                            (str(user), str(item), clicks)
                            for user, item, clicks in self._pending_records
                        ]
                    )
                resolved = self._detector.resolve_thresholds(self._graph)
                from ..store import memos_to_json

                store.put_thresholds(
                    self._detector.params,
                    resolved,
                    self._detector.screening,
                    memos=memos_to_json(self._graph.indexed().derived),
                )
                store.put_result(self._result)
                store.commit()
        except ReproError:
            store.abort()
            obs.count("store.persist_failures")
            return None
        self._pending_records = []
        self._pending_destructive = False
        return version

    @property
    def graph(self) -> BipartiteGraph:
        """The live graph (treat as read-only)."""
        return self._graph

    @property
    def current_result(self) -> DetectionResult:
        """The most recent detection state."""
        return self._result

    @property
    def dirty_size(self) -> int:
        """Number of nodes awaiting a recheck."""
        return len(self._dirty_users) + len(self._dirty_items)

    @property
    def batches_since_recheck(self) -> int:
        """Batches ingested since the last (attempted) recheck."""
        return self._batches_since_recheck

    @property
    def dirty_since(self) -> float | None:
        """Clock time the dirty set started accumulating, or ``None``.

        Stamped from ``time_source`` when the dirty set transitions
        from empty to non-empty; cleared when a recheck covers it.  Always
        ``None`` without a time source.
        """
        return self._dirty_since

    def dirty_age(self, now: float) -> float:
        """Clock-seconds the oldest un-rechecked mark has waited (0 if clean)."""
        if self._dirty_since is None:
            return 0.0
        return max(0.0, now - self._dirty_since)

    def _mark_dirty(self, users: Iterable[Node], items: Iterable[Node]) -> None:
        """Mark the endpoints dirty, stamping when staleness began."""
        if (
            self._dirty_since is None
            and self._time_source is not None
            and not self._dirty_users
            and not self._dirty_items
        ):
            self._dirty_since = self._time_source()
        self._dirty_users.update(users)
        self._dirty_items.update(items)

    def ingest(self, batch: ClickBatch) -> DetectionResult:
        """Append one batch to the live graph; recheck when due.

        The graph buffers the records (see :meth:`BipartiteGraph.add_clicks`)
        and the touched nodes are marked dirty in one pass per side.
        Returns the (possibly refreshed) current result.
        """
        records = batch.records
        if records:
            self._graph.add_clicks(records)
            self._mark_dirty(map(itemgetter(0), records), map(itemgetter(1), records))
        if self._store is not None:
            self._pending_records.extend(records)
        self._batches_since_recheck += 1
        if (
            self._recheck_batches is not None
            and self._batches_since_recheck >= self._recheck_batches
        ):
            self.recheck()
        return self._result

    def apply_cleanup(
        self, edges: Iterable[tuple[Node, Node, int]]
    ) -> DetectionResult:
        """Remove (or reduce) click records and recheck right away.

        The post-detection half of the online loop: once the platform
        confirms a group, its attributed fake edges (see
        :func:`repro.core.screening.collect_fake_edges`) are subtracted
        from the live graph.  Counts are clamped at zero; the touched
        nodes are marked dirty and a recheck runs immediately, so cleaned
        groups leave the current result right away.
        """
        for user, item, clicks in edges:
            current = self._graph.get_click(user, item)
            if current:
                remaining = current - clicks
                if remaining > 0:
                    self._graph.set_click(user, item, remaining)
                else:
                    # A fully cleaned edge must *leave* the adjacency, not
                    # linger at weight zero: zombie edges inflate Avg_cnt
                    # (Eq. 4's denominator) and item degrees, skewing the
                    # re-derived thresholds away from a freshly built
                    # graph's.  The parity test pins this.
                    self._graph.remove_edge(user, item)
            self._mark_dirty((user,), (item,))
        if self._store is not None:
            # Deltas are append-only click records; removals force the
            # next persisted version to be a full snapshot.
            self._pending_destructive = True
        return self.recheck()

    def recheck(self) -> DetectionResult:
        """Re-run detection over the live graph if anything is dirty.

        With nothing dirty the served result is already current, so the
        only work is retrying a persist that a store fault absorbed.
        """
        if not self._dirty_users and not self._dirty_items:
            self._batches_since_recheck = 0
            if self._pending_records or self._pending_destructive:
                # A previous persist was absorbed (store fault): the
                # detection state is current but the store is behind.
                # Retry so the backlog lands as soon as pressure is off.
                self._persist()
            return self._result
        return self.recheck_full()

    def recheck_full(self) -> DetectionResult:
        """Run the detection pass now, even when nothing is dirty.

        The pass is one batch :meth:`RICDDetector.detect` over the live
        graph, so the refreshed state equals a one-shot batch run on the
        same graph.  The streaming service calls this at checkpoints.

        Resilience: a pass that dies with a framework error keeps the
        *previous* result — marked ``stale`` so callers know it predates
        the dirty batches — and retains the dirty sets, so the next
        recheck (or the next due batch) runs again.  A stream never loses
        its detection state to one failed pass.
        """
        try:
            inject("recheck")
            result = self._detector.detect(self._graph)
        except ReproError:
            obs.count("resilience.stale_rechecks")
            self._result.stale = True
            # Dirty sets are retained: the failed pass covered nothing.
            self._batches_since_recheck = 0
            # The stale state still persists (graph advanced, result kept
            # with its stale flag), so a resume reproduces exactly what
            # this process would keep serving.
            self._persist()
            return self._result
        self._result = result
        self._dirty_users.clear()
        self._dirty_items.clear()
        self._dirty_since = None
        self._batches_since_recheck = 0
        self._persist()
        return self._result
