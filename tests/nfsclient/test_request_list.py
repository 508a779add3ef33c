"""Tests for the stock sorted-list index and its cost accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.nfsclient import NfsPageRequest, SortedListIndex
from repro.nfsclient.request_list import Fenwick
from repro.units import PAGE_SIZE


def make_req(page, fileid=1):
    return NfsPageRequest(fileid, page, 0, PAGE_SIZE, created_at=0)


# --- Fenwick tree ------------------------------------------------------------


def test_fenwick_rank_and_membership():
    fw = Fenwick(size=16)
    for idx in (3, 7, 11):
        fw.add(idx)
    assert fw.count == 3
    assert fw.rank(0) == 0
    assert fw.rank(4) == 1
    assert fw.rank(8) == 2
    assert fw.rank(100) == 3
    assert fw.contains(7)
    assert not fw.contains(6)
    fw.discard(7)
    assert fw.rank(8) == 1
    for absent in (7, 6, 12, 100, -1, -2):
        with pytest.raises(SimulationError):
            fw.discard(absent)
    assert fw.count == 2 and fw.rank(100) == 2


def test_fenwick_grows_on_demand():
    fw = Fenwick(size=4)
    fw.add(1000)
    assert fw.contains(1000)
    assert fw.rank(1001) == 1
    fw.add(2)
    assert fw.rank(1000) == 1


@given(st.sets(st.integers(min_value=0, max_value=500), max_size=60))
@settings(max_examples=60, deadline=None)
def test_fenwick_matches_naive_ranks(indices):
    fw = Fenwick(size=8)
    ordered = sorted(indices)
    for idx in indices:
        fw.add(idx)
    for probe in list(indices) + [0, 250, 501]:
        naive = sum(1 for i in ordered if i < probe)
        assert fw.rank(probe) == naive


@given(
    st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_fenwick_matches_naive_ranks_after_discards(indices, data):
    # Discarding the highest pages leaves the highest page ever added
    # above every occupied one; ranks past it and below it stay exact.
    fw = Fenwick(size=8)
    for idx in indices:
        fw.add(idx)
    ordered = sorted(indices)
    gone = ordered[-data.draw(st.integers(1, len(ordered))):]
    for idx in gone:
        fw.discard(idx)
    kept = ordered[: len(ordered) - len(gone)]
    for probe in ordered + [0, 250, 501, 1000]:
        assert fw.rank(probe) == sum(1 for i in kept if i < probe)


# --- SortedListIndex ----------------------------------------------------------


def test_sequential_insert_walks_whole_list():
    """The Fig. 3 pathology: each append scans every existing node."""
    index = SortedListIndex(node_cost_ns=10)
    for page in range(100):
        found, find_cost = index.find(1, page)
        assert found is None
        # A miss past the tail visits all existing nodes.
        assert find_cost == 10 * page
        insert_cost = index.insert(make_req(page))
        assert insert_cost == 10 * page
    assert len(index) == 100


def test_find_hit_cost_is_rank_plus_one():
    index = SortedListIndex(node_cost_ns=10)
    reqs = [make_req(p) for p in (2, 5, 9)]
    for req in reqs:
        index.insert(req)
    found, cost = index.find(1, 5)
    assert found is reqs[1]
    assert cost == 10 * 2  # walks nodes 2 and 5
    found, cost = index.find(1, 2)
    assert cost == 10 * 1


def test_miss_in_middle_stops_at_successor():
    index = SortedListIndex(node_cost_ns=10)
    for page in (1, 10, 20):
        index.insert(make_req(page))
    found, cost = index.find(1, 5)
    assert found is None
    assert cost == 10 * 2  # walks node 1 then stops at node 10


def test_remove_is_constant_cost():
    index = SortedListIndex(node_cost_ns=10)
    reqs = [make_req(p) for p in range(50)]
    for req in reqs:
        index.insert(req)
    assert index.remove(reqs[25]) == 10
    found, _ = index.find(1, 25)
    assert found is None
    assert len(index) == 49


def test_per_inode_lists_are_independent():
    index = SortedListIndex(node_cost_ns=10)
    for page in range(20):
        index.insert(make_req(page, fileid=1))
    # A different inode's list is empty: zero walk cost.
    found, cost = index.find(2, 5)
    assert found is None
    assert cost == 0
    index.insert(make_req(5, fileid=2))
    found, cost = index.find(2, 5)
    assert found is not None
    assert cost == 10


def test_duplicate_insert_rejected():
    index = SortedListIndex(node_cost_ns=10)
    index.insert(make_req(3))
    with pytest.raises(SimulationError):
        index.insert(make_req(3))


def test_remove_unknown_rejected():
    index = SortedListIndex(node_cost_ns=10)
    with pytest.raises(SimulationError):
        index.remove(make_req(3))


def test_remove_unindexed_request_from_a_live_list_rejected():
    index = SortedListIndex(node_cost_ns=10)
    indexed = make_req(3)
    index.insert(indexed)
    # A page the inode's list does not hold, and a second request for a
    # held page: neither is indexed, and neither disturbs the list.
    for stranger in (make_req(4), make_req(3)):
        with pytest.raises(SimulationError):
            index.remove(stranger)
    assert len(index) == 1
    assert index.find(1, 3) == (indexed, 10)
    assert index.remove(indexed) == 10
    assert len(index) == 0


def test_peek_is_pythonic_lookup():
    index = SortedListIndex(node_cost_ns=10)
    req = make_req(7)
    index.insert(req)
    assert index.peek(1, 7) is req
    assert index.peek(1, 8) is None
    assert index.peek(9, 7) is None


@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "remove", "find"]),
                  st.integers(min_value=0, max_value=300)),
        max_size=120,
    )
)
@settings(max_examples=50, deadline=None)
def test_index_matches_reference_dict(ops):
    """The index agrees with a naive model under arbitrary op sequences,
    and the charged find cost always equals the sorted-walk length."""
    index = SortedListIndex(node_cost_ns=1)
    reference = {}
    for op, page in ops:
        if op == "insert" and page not in reference:
            req = make_req(page)
            reference[page] = req
            index.insert(req)
        elif op == "remove" and page in reference:
            index.remove(reference.pop(page))
        elif op == "find":
            found, cost = index.find(1, page)
            assert found is reference.get(page)
            keys = sorted(reference)
            below = sum(1 for k in keys if k < page)
            expected = below + 1 if (page in reference or below < len(keys)) else len(keys)
            assert cost == expected
    assert len(index) == len(reference)
