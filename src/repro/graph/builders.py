"""Constructors that build a :class:`BipartiteGraph` from other shapes.

Mirrors the ``GraphGenerator`` routine of Algorithm 2: a full table can be
turned into a graph (``TableToBiGraph``), or — when the business department
supplies known abnormal *seed* nodes — only the neighbourhood reachable
from those seeds is materialised (``MaxBiGraph``), which is how the paper
prunes the 90M-edge production graph before extraction.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Sequence

from ..errors import ClickTableError
from .bipartite import BipartiteGraph

__all__ = ["from_click_records", "from_edge_list", "seed_expansion"]

Node = Hashable


def from_click_records(records: Iterable[tuple[Node, Node, int]]) -> BipartiteGraph:
    """Build a graph from ``(user_id, item_id, click)`` records.

    This is the paper's ``TableToBiGraph``: each record is one row of the
    ``TaoBao_UI_Clicks`` table.  Repeated (user, item) rows accumulate.

    Raises
    ------
    ClickTableError
        If a record has a non-positive click count.
    """
    graph = BipartiteGraph()
    for row_number, (user, item, clicks) in enumerate(records, start=1):
        if clicks <= 0:
            raise ClickTableError(
                f"click count must be positive, got {clicks} for ({user!r}, {item!r})",
                line_number=row_number,
            )
        graph.add_click(user, item, clicks)
    return graph


def from_edge_list(edges: Iterable[tuple[Node, Node]]) -> BipartiteGraph:
    """Build a graph from unweighted ``(user, item)`` pairs (1 click each)."""
    graph = BipartiteGraph()
    for user, item in edges:
        graph.add_click(user, item, 1)
    return graph


def seed_expansion(
    graph: BipartiteGraph,
    seed_users: Sequence[Node] = (),
    seed_items: Sequence[Node] = (),
    hops: int = 2,
) -> BipartiteGraph:
    """Induced subgraph reachable within ``hops`` edges of any seed node.

    Implements ``MaxBiGraph(node)`` from Algorithm 2: given known abnormal
    users/items from the business department, keep only their graph
    neighbourhood so the extraction algorithm runs on a small graph.  Two
    hops from a seed user covers the seed's items plus all co-clicking
    users — exactly the candidate pool for an attack group containing the
    seed.

    Unknown seed ids are silently skipped (production seed lists routinely
    reference accounts already purged from the click table).

    Parameters
    ----------
    graph:
        The full click graph.
    seed_users, seed_items:
        Known abnormal node ids.
    hops:
        BFS radius; each user→item or item→user step costs one hop.

    Returns
    -------
    BipartiteGraph
        Induced subgraph on all nodes within ``hops`` of a seed.  Empty
        when no valid seed was given.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    # BFS over the node-typed frontier.  Entries are ("user"|"item", node).
    frontier: deque[tuple[str, Node, int]] = deque()
    seen_users: set[Node] = set()
    seen_items: set[Node] = set()
    for user in seed_users:
        if graph.has_user(user) and user not in seen_users:
            seen_users.add(user)
            frontier.append(("user", user, 0))
    for item in seed_items:
        if graph.has_item(item) and item not in seen_items:
            seen_items.add(item)
            frontier.append(("item", item, 0))

    while frontier:
        side, node, depth = frontier.popleft()
        if depth >= hops:
            continue
        if side == "user":
            for item in graph.user_neighbors(node):
                if item not in seen_items:
                    seen_items.add(item)
                    frontier.append(("item", item, depth + 1))
        else:
            for user in graph.item_neighbors(node):
                if user not in seen_users:
                    seen_users.add(user)
                    frontier.append(("user", user, depth + 1))

    return graph.subgraph(seen_users, seen_items)
