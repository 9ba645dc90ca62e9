"""The weighted user-item bipartite click graph.

:class:`BipartiteGraph` stores the paper's ``TaoBao_UI_Clicks`` relation as
two mirrored dict-of-dict adjacency maps, one per partition.  The
representation was chosen over a matrix because every detection algorithm
in the paper *mutates* the graph by deleting nodes (CorePruning and
SquarePruning both "remove a vertex and all its adjacent edges"), and hash
maps give O(degree) deletion, O(1) edge lookup and cheap neighbour-set
intersection — the three operations Algorithm 3 is built from.

Users and items live in separate namespaces: the same identifier may appear
on both sides without clashing, as in the paper's tables where user ids and
item ids are independent integer sequences.

**Lazy array backing (the live-service mode).**  A graph built by
:meth:`from_indexed` does not loop over the edge arrays: the frozen
:class:`~repro.graph.indexed.IndexedGraph` snapshot *is* the graph, plus
a pending buffer of the click records appended since.  The online
detector wraps every live graph this way, cold start and warm start
alike.  The invariant every read path rests on:

    the snapshot with the pending buffer folded in holds **every** node
    and edge; a materialized per-vertex dict is only a read cache of it.

Appends (:meth:`add_clicks`, :meth:`add_click`, :meth:`set_click`
increases, :meth:`add_user`/:meth:`add_item`) are validated, join the
pending buffer in call order and bump :attr:`version`; they touch no
adjacency dict.  Every read folds the buffer first, with one vectorized
:meth:`~repro.graph.indexed.IndexedGraph.apply_delta` merge that also
refreshes the cached dicts of the vertices it touched, so no read ever
observes a pending record.  Destructive writes (removals, click
decreases) fold and then flatten the snapshot into complete dict
adjacency (:meth:`_materialize`), after which the graph is an ordinary
eager dict graph.  Folding, hydration and materialization are pure cache
moves: they never bump :attr:`version` and never change any observable
value or iteration order (each vertex iterates its edges in the order
they were first recorded, as a dict graph does), which the
lazy-vs-eager equivalence suite pins under random operation
interleavings.

An eager graph keeps the same buffer for its memoized snapshot: appends
update the dicts and buffer the same records, and the next
:meth:`indexed` call folds them instead of rebuilding.  In both modes a
buffer longer than the snapshot's edge count folds at once, so the
buffer never outgrows the graph it extends.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Iterable, Iterator, Mapping

from .. import obs
from ..errors import DuplicateNodeError, NodeNotFoundError
from .indexed import IDLE, IndexedGraph, record_columns

__all__ = ["BipartiteGraph"]

Node = Hashable


def _dict_adjacency(snapshot: IndexedGraph) -> "tuple[dict, dict]":
    """Complete ``(users, items)`` dict adjacency of ``snapshot``.

    Nodes in array order, each vertex's edges in the order first recorded
    — exactly the dicts an eager graph fed the same clicks holds.
    """
    users, items = snapshot.users, snapshot.items
    users_map: dict[Node, dict[Node, int]] = {user: {} for user in users}
    items_map: dict[Node, dict[Node, int]] = {item: {} for item in items}
    rows, columns, weights = snapshot.recorded_edges()
    for row, column, weight in zip(rows.tolist(), columns.tolist(), weights.tolist()):
        user, item = users[row], items[column]
        users_map[user][item] = weight
        items_map[item][user] = weight
    return users_map, items_map


class BipartiteGraph:
    """A mutable weighted bipartite graph of user→item click counts.

    Edges carry a positive integer click count ``p``; adding clicks to an
    existing edge accumulates.  All mutation keeps the two adjacency maps
    mirrored, so ``user_neighbors``/``item_neighbors`` are always
    consistent views of the same edge set.

    Examples
    --------
    >>> g = BipartiteGraph()
    >>> g.add_click("u1", "i1", 3)
    >>> g.add_click("u1", "i2")
    >>> g.user_degree("u1"), g.user_total_clicks("u1")
    (2, 4)
    >>> g.remove_item("i1")
    >>> g.user_degree("u1")
    1
    """

    __slots__ = (
        "_users",
        "_items",
        "_total_clicks",
        "_num_edges",
        "_version",
        "_indexed",
        "_pending",
        "_pending_len",
        "_lazy",
        "__weakref__",
    )

    def __init__(self) -> None:
        self._users: dict[Node, dict[Node, int]] = {}
        self._items: dict[Node, dict[Node, int]] = {}
        self._total_clicks: int = 0
        #: Edge count of the dict adjacency (a lazy graph reads its snapshot's).
        self._num_edges: int = 0
        self._version: int = 0
        #: The memoized array snapshot; in lazy mode, the backing truth.
        self._indexed: "IndexedGraph | None" = None
        #: ``(users, items, clicks)`` record columns appended since
        #: ``_indexed`` was taken, and their total record count.
        self._pending: list[tuple[list, list, list]] = []
        self._pending_len: int = 0
        #: Whether ``_indexed`` plus ``_pending`` is the truth and the
        #: dicts only a per-vertex read cache (see the module docstring).
        self._lazy: bool = False

    @classmethod
    def from_indexed(
        cls, snapshot: IndexedGraph, lazy: bool = True
    ) -> "BipartiteGraph":
        """Rebuild a mutable graph around a frozen snapshot.

        The inverse of :meth:`indexed`: the mutation version is pinned to
        ``snapshot.version`` and the snapshot itself is installed as the
        memoized array view — so the first :meth:`indexed` call is a cache
        *hit* (no ``graph.indexed.misses``), keeping every version-keyed
        consumer cache (thresholds, fixpoint memos) attachable to the
        restored state.

        With ``lazy=True`` (the default) this returns in O(1): the
        snapshot becomes the backing truth, appends buffer against it and
        per-vertex dict adjacency materializes only as a read cache (see
        the module docstring).  ``lazy=False`` fills both adjacency maps
        eagerly from the edge arrays — the twin the equivalence suite
        compares against.
        """
        graph = cls()
        graph._version = snapshot.version
        graph._indexed = snapshot
        graph._total_clicks = snapshot.total_clicks
        if lazy:
            graph._lazy = True
        else:
            graph._users, graph._items = _dict_adjacency(snapshot)
            graph._num_edges = snapshot.num_edges
        return graph

    # ------------------------------------------------------------------
    # Snapshot, pending buffer and hydration
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter; bumps on every structural change.

        Consumers holding derived data (the :meth:`indexed` snapshot, the
        detector's threshold cache) compare versions instead of graphs to
        decide whether their view is still current.  Each appended click
        record counts once, whether buffered or written to dicts.
        """
        return self._version

    def _mutated(self) -> None:
        """Record a destructive change, dropping the memoized snapshot."""
        self._version += 1
        self._indexed = None
        self._pending = []
        self._pending_len = 0

    def _record(self, users: list, items: list, clicks: list) -> None:
        """Count appended records in :attr:`version` and buffer them.

        Recording only starts once a snapshot exists — with nothing to
        maintain, an eager graph's first :meth:`indexed` call builds as
        usual.  A buffer longer than the snapshot's edge count folds now.
        """
        self._version += len(users)
        if self._indexed is None:
            return
        self._pending.append((users, items, clicks))
        self._pending_len += len(users)
        if self._pending_len > self._indexed.num_edges:
            self._fold()

    def _fold(self) -> IndexedGraph:
        """Merge the pending buffer into the snapshot (a pure cache move)."""
        snapshot = self._indexed
        if not self._pending:
            return snapshot
        users, items, clicks = (list(chain.from_iterable(column)) for column in zip(*self._pending))
        self._pending = []
        self._pending_len = 0
        obs.count("graph.indexed.delta_builds")
        with obs.span("indexed_delta"):
            snapshot = snapshot.apply_delta(users, items, clicks, self._version)
        self._indexed = snapshot
        if self._lazy:
            # Cached dicts of touched vertices are refreshed in place, so
            # views handed out earlier stay live, as on a dict graph.
            for user in self._users.keys() & set(users) if self._users else ():
                self._hydrate_user(user, snapshot.user_index[user])
            for item in self._items.keys() & set(items) if self._items else ():
                self._hydrate_item(item, snapshot.item_index[item])
        return snapshot

    def _view(self) -> "IndexedGraph | None":
        """A lazy graph's folded snapshot; ``None`` for an eager graph."""
        return self._fold() if self._lazy else None

    def _hydrate_user(self, user: Node, row: int) -> dict[Node, int]:
        """(Re)fill one user's cached adjacency dict from the snapshot."""
        snapshot = self._indexed
        columns, weights = snapshot.recorded_row(row)
        adjacency = self._users.setdefault(user, {})
        adjacency.clear()
        adjacency.update(zip(map(snapshot.items.__getitem__, columns.tolist()), weights.tolist()))
        obs.count("graph.lazy.user_hydrations")
        return adjacency

    def _hydrate_item(self, item: Node, column: int) -> dict[Node, int]:
        """(Re)fill one item's cached adjacency dict from the snapshot."""
        snapshot = self._indexed
        rows, weights = snapshot.recorded_column(column)
        adjacency = self._items.setdefault(item, {})
        adjacency.clear()
        adjacency.update(zip(map(snapshot.users.__getitem__, rows.tolist()), weights.tolist()))
        obs.count("graph.lazy.item_hydrations")
        return adjacency

    def _materialize(self) -> None:
        """Flatten the lazy backing into complete dict adjacency.

        A pure cache move — no observable value changes, the version does
        not bump — that re-establishes eager mode; the folded snapshot
        stays memoized.  Destructive writes call this (per-vertex
        tombstones would tax every subsequent read).
        """
        if not self._lazy:
            return
        obs.count("graph.lazy.materializations")
        snapshot = self._fold()
        users_map, items_map = _dict_adjacency(snapshot)
        # Cached dicts are exact; keep their objects so views stay live.
        users_map.update(self._users)
        items_map.update(self._items)
        self._users, self._items = users_map, items_map
        self._num_edges = snapshot.num_edges
        self._lazy = False

    def _adjacency(self) -> "tuple[dict, dict]":
        """Complete ``(users, items)`` dict adjacency, without materializing."""
        snapshot = self._view()
        if snapshot is None:
            return self._users, self._items
        return _dict_adjacency(snapshot)

    def indexed(self) -> IndexedGraph:
        """The memoized :class:`~repro.graph.indexed.IndexedGraph` snapshot.

        The snapshot is built on first access and reused until the graph
        mutates.  Appends (new nodes, new edges, click increments) are
        *maintained incrementally*: the buffered records are merged into
        the previous snapshot by one vectorized merge — counted as a cache
        hit plus ``graph.indexed.delta_builds``, never as a from-scratch
        miss — so append-mostly workloads (stream ingestion, rechecks)
        keep their array views warm.  Destructive mutation (removals,
        click decreases) still invalidates and rebuilds.
        """
        if self._indexed is not None:
            obs.count("graph.indexed.hits")
            return self._fold()
        obs.count("graph.indexed.misses")
        with obs.span("indexed_build"):
            snapshot = IndexedGraph.from_graph(self)
        self._indexed = snapshot
        return snapshot

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _register(self, user: Node = IDLE, item: Node = IDLE) -> None:
        """Add one idle node (the caller checked it is absent)."""
        if not self._lazy:
            if user is not IDLE:
                self._users[user] = {}
            else:
                self._items[item] = {}
        self._record([user], [item], [0])

    def add_user(self, user: Node) -> None:
        """Register ``user`` with no edges.  No-op if already present."""
        if not self.has_user(user):
            self._register(user=user)

    def add_item(self, item: Node) -> None:
        """Register ``item`` with no edges.  No-op if already present."""
        if not self.has_item(item):
            self._register(item=item)

    def add_user_strict(self, user: Node) -> None:
        """Register ``user``; raise :class:`DuplicateNodeError` if present."""
        if self.has_user(user):
            raise DuplicateNodeError(user, "user")
        self._register(user=user)

    def add_item_strict(self, item: Node) -> None:
        """Register ``item``; raise :class:`DuplicateNodeError` if present."""
        if self.has_item(item):
            raise DuplicateNodeError(item, "item")
        self._register(item=item)

    def has_user(self, user: Node) -> bool:
        """Whether ``user`` is in the user partition."""
        snapshot = self._view()
        return user in (self._users if snapshot is None else snapshot.user_index)

    def has_item(self, item: Node) -> bool:
        """Whether ``item`` is in the item partition."""
        snapshot = self._view()
        return item in (self._items if snapshot is None else snapshot.item_index)

    def remove_user(self, user: Node) -> None:
        """Delete ``user`` and all its incident edges."""
        if not self.has_user(user):
            raise NodeNotFoundError(user, "user")
        self._materialize()
        adjacency = self._users.pop(user)
        for item, clicks in adjacency.items():
            del self._items[item][user]
            self._total_clicks -= clicks
        self._num_edges -= len(adjacency)
        self._mutated()

    def remove_item(self, item: Node) -> None:
        """Delete ``item`` and all its incident edges."""
        if not self.has_item(item):
            raise NodeNotFoundError(item, "item")
        self._materialize()
        adjacency = self._items.pop(item)
        for user, clicks in adjacency.items():
            del self._users[user][item]
            self._total_clicks -= clicks
        self._num_edges -= len(adjacency)
        self._mutated()

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------
    def add_click(self, user: Node, item: Node, clicks: int = 1) -> None:
        """Record that ``user`` clicked ``item`` ``clicks`` more times.

        Creates the endpoints if needed.  ``clicks`` must be positive.
        """
        if clicks <= 0:
            raise ValueError(f"clicks must be positive, got {clicks}")
        if not self._lazy:
            self._write(user, item, clicks)
        self._total_clicks += clicks
        self._record([user], [item], [clicks])

    def add_clicks(self, records: Iterable[tuple[Node, Node, int]]) -> None:
        """Record a batch of ``(user, item, clicks)`` click records.

        The same as :meth:`add_click` per record in order, but validated up
        front: a batch holding a non-positive count raises before any
        record lands.  A lazy graph only appends the batch to its pending
        buffer; an eager one updates its dicts in one pass and buffers the
        same records for its memoized snapshot.  :attr:`version` advances
        by the number of records.
        """
        users, items, clicks = record_columns(records)
        if not users:
            return
        lowest = min(clicks)
        if lowest <= 0:
            raise ValueError(f"clicks must be positive, got {lowest}")
        if not self._lazy:
            for user, item, count in zip(users, items, clicks):
                self._write(user, item, count)
        self._total_clicks += sum(clicks)
        self._record(users, items, clicks)

    def _write(self, user: Node, item: Node, clicks: int) -> None:
        """Add ``clicks`` to one edge of the dict adjacency (eager mode)."""
        user_adj = self._users.get(user)
        if user_adj is None:
            user_adj = self._users[user] = {}
        item_adj = self._items.get(item)
        if item_adj is None:
            item_adj = self._items[item] = {}
        previous = user_adj.get(item, 0)
        if not previous:
            self._num_edges += 1
        user_adj[item] = item_adj[user] = previous + clicks

    def set_click(self, user: Node, item: Node, clicks: int) -> None:
        """Set the edge weight exactly; ``clicks = 0`` deletes the edge.

        A write that leaves the weight unchanged (``clicks`` equal to the
        current count, including setting an absent edge to 0) is a no-op:
        the mutation :attr:`version` does not bump, so threshold caches
        and fixpoint memos keyed to it stay valid.  Consequently a
        zero-weight set never creates endpoints — deleting a non-existent
        edge is nothing happening, not a node registration; use
        :meth:`add_user`/:meth:`add_item` to register idle nodes.  An
        increase is an append of the difference, exactly like
        :meth:`add_click`; a decrease is destructive.
        """
        if clicks < 0:
            raise ValueError(f"clicks must be >= 0, got {clicks}")
        current = self.get_click(user, item)
        if clicks == current:
            # No-op write: nothing changed, so memoized snapshots and
            # every version-keyed consumer cache stay valid.
            return
        if clicks > current:
            self.add_click(user, item, clicks - current)
            return
        # current > 0 here, so both endpoints exist.
        self._materialize()
        user_adj, item_adj = self._users[user], self._items[item]
        if clicks:
            user_adj[item] = item_adj[user] = clicks
        else:
            del user_adj[item]
            del item_adj[user]
            self._num_edges -= 1
        self._total_clicks += clicks - current
        self._mutated()

    def remove_edge(self, user: Node, item: Node) -> None:
        """Delete the edge between ``user`` and ``item`` if present."""
        self.set_click(user, item, 0)

    def has_edge(self, user: Node, item: Node) -> bool:
        """Whether ``user`` has clicked ``item`` at least once."""
        return self.get_click(user, item) > 0

    def get_click(self, user: Node, item: Node, default: int = 0) -> int:
        """Click count on edge ``(user, item)``, or ``default`` if absent."""
        snapshot = self._view()
        adjacency = self._users.get(user)
        if adjacency is not None:
            return adjacency.get(item, default)
        if snapshot is not None:
            row = snapshot.user_index.get(user)
            column = snapshot.item_index.get(item)
            if row is not None and column is not None:
                weight = snapshot.edge_weight(row, column)
                if weight:
                    return weight
        return default

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def users(self) -> Iterator[Node]:
        """Iterate over user ids."""
        snapshot = self._view()
        return iter(self._users if snapshot is None else snapshot.users)

    def items(self) -> Iterator[Node]:
        """Iterate over item ids."""
        snapshot = self._view()
        return iter(self._items if snapshot is None else snapshot.items)

    def edges(self) -> Iterator[tuple[Node, Node, int]]:
        """Iterate over ``(user, item, clicks)`` triples."""
        snapshot = self._view()
        if snapshot is None:
            for user, adjacency in self._users.items():
                for item, clicks in adjacency.items():
                    yield user, item, clicks
            return
        indptr = snapshot.csr_arrays()[0].tolist()
        _, columns, weights = snapshot.recorded_edges(by_user=True)
        columns, weights, items = columns.tolist(), weights.tolist(), snapshot.items
        for row, user in enumerate(snapshot.users):
            adjacency = self._users.get(user)
            if adjacency is not None:
                for item, clicks in adjacency.items():
                    yield user, item, clicks
                continue
            for position in range(indptr[row], indptr[row + 1]):
                yield user, items[columns[position]], weights[position]

    def user_neighbors(self, user: Node) -> Mapping[Node, int]:
        """Read-only view of ``{item: clicks}`` for ``user``.

        On a lazily-backed graph this materializes the one requested
        vertex (copy-on-read) so repeated neighbourhood scans pay the
        array→dict conversion once.
        """
        snapshot = self._view()
        adjacency = self._users.get(user)
        if adjacency is not None:
            return adjacency
        if snapshot is not None:
            row = snapshot.user_index.get(user)
            if row is not None:
                return self._hydrate_user(user, row)
        raise NodeNotFoundError(user, "user")

    def item_neighbors(self, item: Node) -> Mapping[Node, int]:
        """Read-only view of ``{user: clicks}`` for ``item``."""
        snapshot = self._view()
        adjacency = self._items.get(item)
        if adjacency is not None:
            return adjacency
        if snapshot is not None:
            column = snapshot.item_index.get(item)
            if column is not None:
                return self._hydrate_item(item, column)
        raise NodeNotFoundError(item, "item")

    def _user_row(self, user: Node):
        """``(columns, weights)`` of ``user`` in a lazy graph's snapshot."""
        row = self._indexed.user_index.get(user)
        if row is None:
            raise NodeNotFoundError(user, "user")
        return self._indexed.row_slice(row)

    def _item_column(self, item: Node):
        """``(rows, weights)`` of ``item`` in a lazy graph's snapshot."""
        column = self._indexed.item_index.get(item)
        if column is None:
            raise NodeNotFoundError(item, "item")
        return self._indexed.column_slice(column)

    def _user_adjacency(self, user: Node) -> dict[Node, int]:
        adjacency = self._users.get(user)
        if adjacency is None:
            raise NodeNotFoundError(user, "user")
        return adjacency

    def _item_adjacency(self, item: Node) -> dict[Node, int]:
        adjacency = self._items.get(item)
        if adjacency is None:
            raise NodeNotFoundError(item, "item")
        return adjacency

    def user_degree(self, user: Node) -> int:
        """Number of distinct items clicked by ``user``."""
        if self._view() is None:
            return len(self._user_adjacency(user))
        return len(self._user_row(user)[0])

    def item_degree(self, item: Node) -> int:
        """Number of distinct users who clicked ``item``."""
        if self._view() is None:
            return len(self._item_adjacency(item))
        return len(self._item_column(item)[0])

    def user_total_clicks(self, user: Node) -> int:
        """Sum of click counts on all of ``user``'s edges."""
        if self._view() is None:
            return sum(self._user_adjacency(user).values())
        return int(self._user_row(user)[1].sum())

    def item_total_clicks(self, item: Node) -> int:
        """Sum of click counts on all of ``item``'s edges (Table III's *Total_click*)."""
        if self._view() is None:
            return sum(self._item_adjacency(item).values())
        return int(self._item_column(item)[1].sum())

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        snapshot = self._view()
        return len(self._users) if snapshot is None else snapshot.num_users

    @property
    def num_items(self) -> int:
        """Number of item nodes."""
        snapshot = self._view()
        return len(self._items) if snapshot is None else snapshot.num_items

    @property
    def num_edges(self) -> int:
        """Number of (user, item) click records — *Edge* in Table I (O(1))."""
        snapshot = self._view()
        return self._num_edges if snapshot is None else snapshot.num_edges

    @property
    def total_clicks(self) -> int:
        """Sum of all click counts — *Total_click* in Table I."""
        return self._total_clicks

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "BipartiteGraph":
        """Deep copy of nodes and edges (node ids are shared, not copied).

        A lazily-backed graph copies in O(1): the clone wraps the same
        frozen (hence shareable) folded snapshot, keeping the pinned
        version and the memoized array view — so copying a warm graph
        does not throw its warmth away.  Eager graphs copy their dicts
        (fresh version, no memo).
        """
        snapshot = self._view()
        if snapshot is not None:
            return BipartiteGraph.from_indexed(snapshot)
        clone = BipartiteGraph()
        clone._users = {user: dict(adj) for user, adj in self._users.items()}
        clone._items = {item: dict(adj) for item, adj in self._items.items()}
        clone._total_clicks = self._total_clicks
        clone._num_edges = self._num_edges
        return clone

    def subgraph(
        self, users: Iterable[Node] | None = None, items: Iterable[Node] | None = None
    ) -> "BipartiteGraph":
        """Induced subgraph on the given node subsets.

        ``None`` for either side means "keep that whole side".  Unknown ids
        are ignored, which lets callers pass detector output (which may
        reference nodes already pruned away) without pre-filtering.
        """
        keep_users = (
            list(self.users())
            if users is None
            else {user for user in users if self.has_user(user)}
        )
        keep_items = (
            None if items is None else {item for item in items if self.has_item(item)}
        )
        result = BipartiteGraph()
        for user in keep_users:
            result.add_user(user)
            for item, clicks in self.user_neighbors(user).items():
                if keep_items is None or item in keep_items:
                    result.add_click(user, item, clicks)
        if keep_items is None:
            for item in self.items():
                result.add_item(item)
        else:
            for item in keep_items:
                result.add_item(item)
        return result

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the edge data only; memoized snapshots stay local.

        Workers of the parallel evaluation harness rebuild (and re-memoize)
        their own :meth:`indexed` snapshot on first use, so shipping the
        numpy arrays with every scenario would only inflate the pickle.
        A lazily-backed graph pickles the complete adjacency its snapshot
        holds (it unpickles eager) and stays lazy itself.
        """
        users, items = self._adjacency()
        return {
            "_users": users,
            "_items": items,
            "_total_clicks": self._total_clicks,
            "_version": self._version,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self._users = state["_users"]
        self._items = state["_items"]
        self._total_clicks = state["_total_clicks"]
        self._version = state.get("_version", 0)
        self._num_edges = sum(len(adjacency) for adjacency in self._users.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self._adjacency() == other._adjacency()

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("BipartiteGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(users={self.num_users}, items={self.num_items}, "
            f"edges={self.num_edges}, clicks={self.total_clicks})"
        )

    def __len__(self) -> int:
        """Total node count across both partitions."""
        return self.num_users + self.num_items
