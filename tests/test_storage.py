"""Relations, indexes, and partitioning."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewivm.errors import UnregisteredIndexError
from skewivm.metrics import Counters
from skewivm.storage import Relation, iceil, key_degrees, strict_partition


def make_rel(name="R", schema=("A", "B")):
    return Relation(name, schema, Counters())


def test_insert_then_cancel():
    r = make_rel()
    r.add({("a", "b"): 1})
    assert r.size == 1 and r.get(("a", "b")) == 1
    r.add({("a", "b"): -1})
    assert r.size == 0 and r.get(("a", "b")) == 0


def test_views_allow_transient_negative():
    v = make_rel()
    v.add({("a", "b"): -2})
    assert v.get(("a", "b")) == -2
    v.add({("a", "b"): 2})
    assert v.size == 0


def test_index_scan_examples():
    r = make_rel()
    pos = r.positions(["A"])
    r.register_index(pos)
    for t in [("a1", "b1"), ("a1", "b2"), ("a2", "b1")]:
        r.add({t: 1})
    assert sorted(row for row, _ in r.scan(pos, ("a1",))) == [("a1", "b1"), ("a1", "b2")]
    assert r.count(pos, ("a1",)) == 2
    assert list(r.scan(pos, ("zz",))) == []
    assert r.count(pos, ("zz",)) == 0
    # full-schema scan degenerates to a point lookup
    assert list(r.scan((0, 1), ("a1", "b2"))) == [(("a1", "b2"), 1)]


def test_unregistered_index():
    r = make_rel()
    r.add({("a", "b"): 1})
    with pytest.raises(UnregisteredIndexError):
        list(r.scan((1,), ("b",)))


def test_register_index_backfills_existing_entries():
    r = make_rel()
    r.add({("a", "b"): 1})
    r.register_index((1,))
    assert r.count((1,), ("b",)) == 1


def _layout(r):
    return (list(r.entries.items()),
            {pos: [(key, list(bucket)) for key, bucket in index.items()]
             for pos, index in r.indexes.items()})


def test_load_replaces_the_content_in_bulk():
    r = make_rel(schema=("A", "B"))
    r.register_index((0,))
    r.register_index((1,))
    r.add({("old", 9): 1})
    entries, indexes = r.entries, dict(r.indexes)
    get = r.entries.get  # as a bound join kernel holds it
    before = r.counters.storage_ops
    r.load({("b", 1): 2, ("a", 1): 1, ("c", 2): 3, ("b", 2): -1})
    # the dicts are the same objects, refilled
    assert r.entries is entries
    assert all(r.indexes[pos] is index for pos, index in indexes.items())
    assert get(("c", 2)) == 3 and get(("old", 9)) is None
    # rows, keys and buckets in the order of the loaded entries
    assert _layout(r) == (
        [(("b", 1), 2), (("a", 1), 1), (("c", 2), 3), (("b", 2), -1)],
        {(0,): [(("b",), [("b", 1), ("b", 2)]), (("a",), [("a", 1)]), (("c",), [("c", 2)])],
         (1,): [((1,), [("b", 1), ("a", 1)]), ((2,), [("c", 2), ("b", 2)])]})
    # one op per row, plus one per row and index
    assert r.counters.storage_ops - before == 4 * (1 + 2)
    assert r.indexes == r.rebuilt_indexes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       st.integers(-2, 3).filter(bool), max_size=30))
def test_load_equals_one_add_per_nonzero_row(rows):
    """``load`` of nonzero rows leaves what a cleared relation would hold
    after adding them one at a time, in order, and counts as many ops."""
    loaded, added = make_rel(), make_rel()
    for r in (loaded, added):
        r.register_index((1,))
        r.add({(9, 9): 1})
    loaded_ops, added_ops = loaded.counters.storage_ops, added.counters.storage_ops
    loaded.load(rows)
    added.clear()
    for row, m in rows.items():
        added.add({row: m})
    assert _layout(loaded) == _layout(added)
    assert loaded.counters.storage_ops - loaded_ops == added.counters.storage_ops - added_ops


def test_degrees_are_index_bucket_sizes_in_key_order():
    # the key index keeps a key where its first row came; the entries drop
    # a deleted row, so counting over them puts that key later
    r = make_rel()
    r.register_index((0,))
    for row in ((1, 10), (2, 20), (1, 11)):
        r.add({row: 1})
    r.add({(1, 10): -1})
    assert list(r.degrees((0,)).items()) == [((1,), 1), ((2,), 1)]
    assert list(key_degrees(r.entries, (0,)).items()) == [((2,), 1), ((1,), 1)]
    # no index on the whole schema: one per row, in entry order
    assert r.degrees((0, 1)) == {(2, 20): 1, (1, 11): 1}
    assert r.degrees((1, 0)) == {(20, 2): 1, (11, 1): 1}


def test_strict_partition_threshold():
    r = make_rel(schema=("A", "B"))
    pos = r.positions(["B"])
    for i in range(4):
        r.add({(f"x{i}", "hot"): 1})
    r.add({("y", "cold"): 1})
    degrees = key_degrees(r.entries, pos)
    assert degrees == {("hot",): 4, ("cold",): 1}
    before = r.counters.storage_ops
    assert strict_partition(degrees, 2) == {("cold",): 1}
    # strictly fewer than theta tuples: a key of degree theta is heavy
    assert strict_partition(degrees, 4) == {("cold",): 1}
    assert strict_partition(degrees, 4.5) == {("hot",): 1, ("cold",): 1}
    assert strict_partition(degrees, 1) == {}
    assert r.counters.storage_ops == before  # the degrees came counted


def test_strict_partition_keeps_degree_order():
    # after a delete, the key index keeps "b" in its place, while the
    # entries first show "a": the key set follows the degrees' order
    r = make_rel(schema=("A", "B"))
    pos = r.positions(["B"])
    r.register_index(pos)
    rows = [("x0", "hot"), ("y", "b"), ("x1", "hot"), ("z", "a"), ("w", "b"), ("x2", "hot"),
            ("v", "a")]
    for row in rows:
        r.add({row: 1})
    r.add({("y", "b"): -1})
    degrees = r.degrees(pos)
    assert list(key_degrees(r.entries, pos)) == [("hot",), ("a",), ("b",)]
    assert list(strict_partition(degrees, 3)) == [("b",), ("a",)]
    assert list(strict_partition(degrees, 4)) == [("hot",), ("b",), ("a",)]
    # keyed on the whole schema (no index): every degree is 1, and the keys
    # come in entry order
    whole = r.degrees((1, 0))
    assert strict_partition(whole, 1) == {}
    assert list(strict_partition(whole, 2)) == [(b, a) for a, b in r.entries]


def test_strict_partition_heavy_key_count_bound():
    rng = random.Random(5)
    r = make_rel(schema=("A", "B"))
    pos = r.positions(["B"])
    n = 200
    for i in range(n):
        r.add({(i, rng.randrange(20)): 1})
    n = r.size
    degrees = key_degrees(r.entries, pos)
    for eps in (0.0, 0.5, 1.0):
        theta = n ** eps
        light = strict_partition(degrees, theta)
        assert set(light.values()) <= {1}
        assert all(degrees[key] < theta for key in light)
        heavy_keys = degrees.keys() - light.keys()
        assert all(degrees[key] >= theta for key in heavy_keys)
        assert len(heavy_keys) <= math.ceil(n / theta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 3)),
                max_size=60))
def test_index_consistency_fuzz(ops):
    """After any op sequence, rebuilding every index from the entries gives
    back exactly the live index structures."""
    r = make_rel(schema=("A", "B"))
    r.register_index((0,))
    r.register_index((1,))
    for a, b, m in ops:
        if m == 0:
            continue
        r.add({(a, b): m})
    rebuilt = r.rebuilt_indexes()
    live = {pos: {k: dict(v) for k, v in idx.items()} for pos, idx in r.indexes.items()}
    want = {pos: {k: dict(v) for k, v in idx.items()} for pos, idx in rebuilt.items()}
    assert live == want


def test_exists_semantics_via_membership():
    # membership is a nonzero get, or a count on the whole schema, one op each
    r = make_rel()
    r.add({("a", "b"): 4})
    before = r.counters.storage_ops
    assert r.get(("a", "b")) != 0 and r.get(("a", "c")) == 0
    assert r.count((0, 1), ("a", "b")) == 1 and r.count((0, 1), ("a", "c")) == 0
    assert r.counters.storage_ops - before == 4


def test_iceil_boundaries():
    assert iceil(3.0) == 3
    assert iceil(3.0000000001) == 3  # float noise above an integer
    assert iceil(2.5) == 3
    assert iceil(0.5) == 1
