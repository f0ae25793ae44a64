"""Relations, indexes, and partitioning."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewivm.errors import ArityMismatchError, RejectedDeleteError, UnregisteredIndexError
from skewivm.metrics import Counters
from skewivm.storage import Relation, iceil, key_degrees, strict_partition


def make_rel(name="R", schema=("A", "B"), base=False):
    return Relation(name, schema, Counters(), base=base)


def test_insert_then_cancel():
    r = make_rel(base=True)
    r.delta(("a", "b"), 1)
    assert r.size == 1 and r.get(("a", "b")) == 1
    r.delta(("a", "b"), -1)
    assert r.size == 0 and r.get(("a", "b")) == 0


def test_base_rejects_negative_result():
    r = make_rel(base=True)
    r.delta(("a", "b"), 1)
    with pytest.raises(RejectedDeleteError):
        r.delta(("a", "b"), -2)
    assert r.get(("a", "b")) == 1  # unchanged


def test_views_allow_transient_negative():
    v = make_rel(base=False)
    v.delta(("a", "b"), -2)
    assert v.get(("a", "b")) == -2
    v.delta(("a", "b"), 2)
    assert v.size == 0


def test_arity_mismatch():
    r = make_rel()
    with pytest.raises(ArityMismatchError):
        r.delta(("a",), 1)


def test_index_scan_examples():
    r = make_rel()
    pos = r.positions(["A"])
    r.register_index(pos)
    for t in [("a1", "b1"), ("a1", "b2"), ("a2", "b1")]:
        r.delta(t, 1)
    assert sorted(row for row, _ in r.scan(pos, ("a1",))) == [("a1", "b1"), ("a1", "b2")]
    assert r.count(pos, ("a1",)) == 2
    assert list(r.scan(pos, ("zz",))) == []
    assert r.count(pos, ("zz",)) == 0
    # full-schema scan degenerates to a point lookup
    assert list(r.scan((0, 1), ("a1", "b2"))) == [(("a1", "b2"), 1)]


def test_unregistered_index():
    r = make_rel()
    r.delta(("a", "b"), 1)
    with pytest.raises(UnregisteredIndexError):
        list(r.scan((1,), ("b",)))


def test_register_index_backfills_existing_entries():
    r = make_rel()
    r.delta(("a", "b"), 1)
    r.register_index((1,))
    assert r.count((1,), ("b",)) == 1


def test_strict_partition_threshold():
    r = make_rel(schema=("A", "B"))
    pos = r.positions(["B"])
    for i in range(4):
        r.delta((f"x{i}", "hot"), 1)
    r.delta(("y", "cold"), 1)
    degrees = key_degrees(r.entries, pos)
    assert degrees == {("hot",): 4, ("cold",): 1}
    before = r.counters.storage_ops
    light = strict_partition(r, pos, 2, degrees)
    assert light == {("y", "cold"): 1}
    assert r.counters.storage_ops - before == r.size  # one pass; degrees came given
    everything = strict_partition(r, pos, 100, degrees)
    assert everything == dict(r.entries)


def test_strict_partition_heavy_key_count_bound():
    rng = random.Random(5)
    r = make_rel(schema=("A", "B"))
    pos = r.positions(["B"])
    n = 200
    for i in range(n):
        r.delta((i, rng.randrange(20)), 1)
    n = r.size
    degrees = key_degrees(r.entries, pos)
    for eps in (0.0, 0.5, 1.0):
        theta = n ** eps
        light = strict_partition(r, pos, theta, degrees)
        heavy_keys = {row[1] for row in r.entries} - {row[1] for row in light}
        assert len(heavy_keys) <= math.ceil(n / theta) if theta else True


@settings(max_examples=60, deadline=None)
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
        try:
            r.delta((a, b), m)
        except RejectedDeleteError:
            pass
    rebuilt = r.rebuilt_indexes()
    live = {pos: {k: dict(v) for k, v in idx.items()} for pos, idx in r.indexes.items()}
    want = {pos: {k: dict(v) for k, v in idx.items()} for pos, idx in rebuilt.items()}
    assert live == want


def test_exists_semantics_via_membership():
    r = make_rel()
    r.delta(("a", "b"), 4)
    assert (("a", "b") in r) is True
    assert (("a", "c") in r) is False


def test_iceil_boundaries():
    assert iceil(3.0) == 3
    assert iceil(3.0000000001) == 3  # float noise above an integer
    assert iceil(2.5) == 3
    assert iceil(0.5) == 1
