"""Property-based tests of the BipartiteGraph invariants (hypothesis)."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import BipartiteGraph, connected_components, from_click_records

# Click records over a small id universe so collisions (accumulation) and
# shared neighbourhoods actually occur.
records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8).map(lambda n: f"u{n}"),
        st.integers(min_value=0, max_value=8).map(lambda n: f"i{n}"),
        st.integers(min_value=1, max_value=20),
    ),
    max_size=60,
)


@given(records)
def test_total_clicks_equals_record_sum(rows):
    graph = from_click_records(rows)
    assert graph.total_clicks == sum(clicks for _u, _i, clicks in rows)


@given(records)
def test_adjacency_mirrors_are_consistent(rows):
    graph = from_click_records(rows)
    for user, item, clicks in graph.edges():
        assert graph.item_neighbors(item)[user] == clicks
    assert graph.num_edges == sum(graph.item_degree(i) for i in graph.items())


@given(records)
def test_degree_totals_match_both_sides(rows):
    graph = from_click_records(rows)
    user_total = sum(graph.user_total_clicks(u) for u in graph.users())
    item_total = sum(graph.item_total_clicks(i) for i in graph.items())
    assert user_total == item_total == graph.total_clicks


@given(records)
def test_copy_equals_original(rows):
    graph = from_click_records(rows)
    assert graph.copy() == graph


@given(records, st.randoms(use_true_random=False))
def test_removal_keeps_mirrors_consistent(rows, rng):
    graph = from_click_records(rows)
    users = sorted(graph.users())
    items = sorted(graph.items())
    for user in users:
        if rng.random() < 0.5:
            graph.remove_user(user)
    for item in items:
        if graph.has_item(item) and rng.random() < 0.5:
            graph.remove_item(item)
    # After arbitrary removals every edge must still be mirrored and the
    # click accounting intact.
    recomputed = sum(clicks for _u, _i, clicks in graph.edges())
    assert recomputed == graph.total_clicks
    for user, item, clicks in graph.edges():
        assert graph.item_neighbors(item)[user] == clicks


@given(records)
@settings(max_examples=50)
def test_components_partition_the_graph(rows):
    graph = from_click_records(rows)
    components = connected_components(graph)
    seen_users = [u for users, _items in components for u in users]
    seen_items = [i for _users, items in components for i in items]
    assert sorted(seen_users) == sorted(graph.users())
    assert sorted(seen_items) == sorted(graph.items())
    # Disjointness.
    assert len(seen_users) == len(set(seen_users))
    assert len(seen_items) == len(set(seen_items))


@given(records)
@settings(max_examples=50)
def test_subgraph_is_subset(rows):
    graph = from_click_records(rows)
    keep_users = {u for u in graph.users() if str(u) < "u5"}
    sub = graph.subgraph(keep_users, None)
    for user, item, clicks in sub.edges():
        assert graph.get_click(user, item) == clicks
    assert set(sub.users()) == keep_users


# Edge writes over the same small universe; clicks 0 deletes via set_click.
edge_writes = st.lists(
    st.one_of(
        st.tuples(st.just("add_click"), records.map(lambda rows: rows[:1])),
        st.tuples(st.just("add_clicks"), records),
        st.tuples(
            st.just("set_click"),
            st.integers(0, 8).map(lambda n: f"u{n}"),
            st.integers(0, 8).map(lambda n: f"i{n}"),
            st.integers(0, 5),
        ),
        st.tuples(st.just("remove_user"), st.integers(0, 8).map(lambda n: f"u{n}")),
        st.tuples(st.just("remove_item"), st.integers(0, 8).map(lambda n: f"i{n}")),
        st.tuples(st.just("materialize"), st.just(None)),
    ),
    max_size=25,
)


@given(records, edge_writes, st.booleans())
@settings(deadline=None)
def test_num_edges_counter_matches_adjacency(rows, writes, lazy):
    """``num_edges`` is an O(1) counter; it always equals the dict scan."""
    graph = from_click_records(rows)
    if lazy:
        graph = BipartiteGraph.from_indexed(graph.indexed())
    for name, *args in writes:
        if name == "add_click":
            for user, item, clicks in args[0]:
                graph.add_click(user, item, clicks)
        elif name == "add_clicks":
            graph.add_clicks(args[0])
        elif name == "set_click":
            graph.set_click(*args)
        elif name == "materialize":
            graph._materialize()
        elif graph.has_user(args[0]) if name == "remove_user" else graph.has_item(args[0]):
            getattr(graph, name)(args[0])
        if not graph._lazy:
            assert graph.num_edges == sum(len(adj) for adj in graph._users.values())
    assert graph.num_edges == sum(1 for _ in graph.edges())
    clone = pickle.loads(pickle.dumps(graph))
    assert clone.num_edges == sum(len(adj) for adj in clone._users.values())
