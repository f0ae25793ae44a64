"""Preprocessing in bulk: the same state, counts and orders as a per-row
build, and the same input validation."""

from __future__ import annotations

import itertools
import random
import zlib
from collections import namedtuple

import pytest

from skewivm import engine
from skewivm.engine import preprocess
from skewivm.errors import ArityMismatchError, EngineError, InvalidMultiplicityError
from skewivm.oracle import brute_force_eval
from skewivm.query import parse_query
from skewivm.storage import Relation, projection

from conftest import EPS_GRID, SUITE, light_part, parse

# a self-join, and keys that are the whole schema of a relation, in schema
# order and permuted (R(B,A) keyed on (A,B)); semi's S(B) is one too
EXTRA = {
    "self-join": "Q(A,C) = R(A,B), R(B,C).",
    "whole-key": "Q(C) = R(B,A), S(A,B,C).",
    "whole-key-self-join": "Q(C) = R(A,B), R(B,A), S(A,B,C).",
}


# -- the per-row reference build --------------------------------------------


def _per_row_load(self, entries):
    """``Relation.load`` one row at a time, each row counted and indexed
    on its own."""
    self.clear()
    for row, m in entries.items():
        if m == 0:
            continue
        self.counters.storage_ops += 1 + len(self.keyed)
        self.entries[row] = m
        for key_of, index in self.keyed:
            index.setdefault(key_of(row), {})[row] = None


def _counted_degrees(self, positions):
    """Distinct rows per key, counted over the entries in their order."""
    key_of = projection(positions)
    degrees = {}
    for row in self.entries:
        key = key_of(row)
        degrees[key] = degrees.get(key, 0) + 1
    return degrees


def _filtered_start_rows(node):
    """The rows a fold starts from: a light leaf's occurrence entries whose
    key is in the part's key set, filtered row by row and grouped stably
    in key set order, one op per key plus one per row unless the key is the
    whole schema; any other node's entries, one op each."""
    rel, part = node.content, node.part
    if part is None:
        rel.counters.storage_ops += len(rel.entries)
        return list(rel.entries.items())
    rank = {key: i for i, key in enumerate(part.content.entries)}
    rows = sorted(((row, m) for row, m in rel.entries.items() if part.key_of(row) in rank),
                  key=lambda entry: rank[part.key_of(entry[0])])
    per_row = len(part.key_positions) < len(rel.schema)
    rel.counters.storage_ops += len(rank) + per_row * len(rows)
    return rows


def _reference_build(monkeypatch, q, db, eps, mode):
    with monkeypatch.context() as patched:
        patched.setattr(Relation, "load", _per_row_load)
        patched.setattr(Relation, "degrees", _counted_degrees)
        patched.setattr(engine, "start_rows", _filtered_start_rows)
        return preprocess(q, db, eps, mode=mode)


def _layout(state) -> dict:
    """Every relation of ``state`` by name: its entries and, per index, its
    keys and buckets, all in their dict order.  A light leaf's content is
    its occurrence relation, whose rows it reads through its part's key set
    L, and both are here."""
    rels = [*state.atom_rels.values(), *(n.content for n in state.dag.nodes)]
    for triple in state.triples:
        rels.append(triple.h_content)
        rels.extend(lp.content for lp in triple.light_parts)
    return {rel.name: (list(rel.entries.items()),
                       [(pos, [(key, list(bucket)) for key, bucket in index.items()])
                        for pos, index in rel.indexes.items()])
            for rel in rels}


def _skewed_db(q, rng: random.Random, rows: int = 30) -> dict:
    """Per relation, interleaved: ``rows`` tuples of zeros but a fresh first
    value, as many of zeros but a fresh last value, and as many drawn from
    1-30.  So the all-zero key of every partition that leaves out a first or
    last position is heavy up to eps 0.5, and most other keys are light."""
    fresh = itertools.count(100)
    db = {}
    for sym in q.symbols():
        zeros = (0,) * (len(q.occurrences(sym)[0].schema) - 1)
        rel = db[sym] = {}
        for _ in range(rows):
            rel[(next(fresh),) + zeros] = rng.randint(1, 3)
            rel[zeros + (next(fresh),)] = rng.randint(1, 3)
            rel[tuple(rng.randrange(1, 31) for _ in range(len(zeros) + 1))] = rng.randint(1, 3)
    return db


CASES = [(name, SUITE[name]) for name in sorted(SUITE)] + sorted(EXTRA.items())


@pytest.mark.parametrize("mode", ("dynamic", "static"))
@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("name,text", CASES, ids=[name for name, _ in CASES])
def test_bulk_preprocessing_equals_the_per_row_build(name, text, eps, mode, monkeypatch):
    q = parse_query(text)
    rng = random.Random(zlib.crc32(f"{name}:{eps}".encode()))
    db = _skewed_db(q, rng)
    ref = _reference_build(monkeypatch, q, db, eps, mode)
    st = preprocess(q, db, eps, mode=mode)
    assert st.counters.storage_ops == ref.counters.storage_ops
    assert st.fingerprint() == ref.fingerprint()
    assert _layout(st) == _layout(ref)
    for leaf in (n for n in st.dag.nodes if n.is_leaf):
        assert type(leaf.content) is Relation, leaf.name
        assert leaf.part is None or leaf.content is leaf.part.occurrence, leaf.name
    if eps < 1 and st.triples:
        # some key is heavy, so the light part lacks some base rows
        assert any(light_part(lp).size < len(lp.base.entries)
                   for triple in st.triples for lp in triple.light_parts)


# -- validation -----------------------------------------------------------


@pytest.mark.parametrize("mult", (0, -1))
def test_preprocess_rejects_nonpositive_multiplicities(mult):
    with pytest.raises(EngineError, match=r"R: nonpositive input multiplicity for \(3, 4\)"):
        preprocess(parse("chain2"), {"R": {(1, 2): 1, (3, 4): mult}, "S": {}}, 0.5)


class Count(int):
    """A multiplicity type that is an ``int`` but not a ``bool``."""


def test_preprocess_accepts_int_subclass_multiplicities_and_tuple_subclass_rows():
    Row = namedtuple("Row", "a b")
    q = parse("chain2")
    plain = {"R": {(1, 2): 2, (3, 2): 1}, "S": {(2, 5): 1}}
    odd = {"R": {Row(1, 2): Count(2), (3, 2): 1}, "S": {Row(2, 5): 1}}
    st = preprocess(q, odd, 0.5, mode="dynamic")
    ref = preprocess(q, plain, 0.5, mode="dynamic")
    # a namedtuple equals the plain tuple of its values, so the contents are
    # equal as maps (``fingerprint`` sorts by repr, which differs)
    assert {name: dict(entries) for name, (entries, _) in _layout(st).items()} == \
        {name: dict(entries) for name, (entries, _) in _layout(ref).items()}
    assert st.counters.storage_ops == ref.counters.storage_ops
    assert st.result_multiset() == brute_force_eval(q, plain)


@pytest.mark.parametrize("rows,error,first_bad", [
    ({(1, 2): 1, (1,): 1, (5, 6): 1.5, (7, 8): 0}, ArityMismatchError, r"\(1,\)"),
    ({(1, 2): 1, (5, 6): 1.5, (1,): 1, (7, 8): 0}, InvalidMultiplicityError, r"\(5, 6\)"),
    ({(1, 2): 1, (7, 8): 0, (5, 6): 1.5, (1,): 1}, EngineError, r"\(7, 8\)"),
], ids=("arity", "multiplicity", "nonpositive"))
def test_preprocess_names_the_first_bad_row_in_iteration_order(rows, error, first_bad):
    with pytest.raises(error, match=first_bad):
        preprocess(parse("chain2"), {"R": rows, "S": {}}, 0.5)
