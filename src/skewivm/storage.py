"""Multiset relations with prefix indexes and heavy/light partitioning.

A :class:`Relation` stores tuple -> nonzero multiplicity entries in a hash
map and keeps, for every registered proper sub-schema, an index from
sub-tuple keys to the matching entries.  All primitives are constant time
(amortized) and each one bumps the owning :class:`~skewivm.metrics.Counters`
by exactly one, which is what the counter-based complexity tests measure.
Several routines count the same primitives in bulk: a generated join fold
(:func:`skewivm.viewtree.run_join`) tallies its reads and adds them once
per fold, and :meth:`Relation.add` writes a delta of any number of rows in
one call, one op per row plus one per index for each entry it creates or
removes.  The engine writes H with it.  On the update path every other
write is generated code, ``add`` specialised to the relation's indexes: a
view takes its deltas from its leaf's trigger
(:func:`skewivm.viewtree.trigger_source`), and a base relation and a later
self-join occurrence's relation take an update's row from the symbol's
update pass (:func:`skewivm.viewtree.pass_source`), which also reads
key-index buckets directly and keeps each light part's key set.  An index
registered after the code is compiled would not be maintained
(``check_invariants(deep=True)`` compares every index with
:meth:`Relation.rebuilt_indexes`).  No write checks anything; the engine's
input boundary has already checked every row's arity and multiplicity.
:meth:`Relation.load`, the one bulk writer of a whole content (base
relations, light parts' key sets, materialized views, H), writes all rows
with one ``dict.update``, fills each index in one pass and adds ``rows *
(1 + indexes)`` ops at once.

A light part is a set of keys over its base relation, not a copy of rows.
Preprocessing and majors read key degrees as the bucket sizes of a key
index (:meth:`Relation.degrees`) and take a strict light part's rows
(:func:`strict_partition`) as a transient copy of the entries less the
heavy keys' buckets.  Every bulk routine keeps the order of entries, index
keys and buckets that one-row writes in the same order would give;
enumeration order depends on it.

Base relations only ever hold strictly positive multiplicities; views may
go negative transiently while a delta propagates.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping

from .errors import UnregisteredIndexError
from .metrics import Counters

Value = Any
Row = tuple


def projection(positions: tuple[int, ...]):
    """Row -> tuple of the values at ``positions``.  Contiguous positions
    (none and one included, where ``itemgetter`` of indexes would fail or
    return a bare value) become a slice."""
    lo = positions[0] if positions else 0
    if positions == tuple(range(lo, lo + len(positions))):
        return itemgetter(slice(lo, lo + len(positions)))
    return itemgetter(*positions)


def whole_row(positions: tuple[int, ...], key: Row) -> Row:
    """The row whose projection on ``positions``, which cover its schema
    in some order, is ``key``."""
    if positions == tuple(range(len(positions))):
        return key
    return tuple(v for _, v in sorted(zip(positions, key)))


class Relation:
    """A multiset of fixed-arity tuples with registered prefix indexes."""

    __slots__ = ("name", "schema", "entries", "indexes", "keyed", "counters")

    def __init__(self, name: str, schema: tuple[str, ...], counters: Counters):
        self.name = name
        self.schema = schema
        self.entries: dict[Row, int] = {}
        # positions tuple -> {key tuple -> {row -> None}}
        self.indexes: dict[tuple[int, ...], dict[Row, dict[Row, None]]] = {}
        # (row -> key projection, index) per registered index, for writes
        self.keyed: list[tuple[Any, dict[Row, dict[Row, None]]]] = []
        self.counters = counters

    # -- schema helpers ----------------------------------------------------

    def positions(self, variables: Iterable[str]) -> tuple[int, ...]:
        """Positions of `variables` in schema order."""
        want = set(variables)
        return tuple(i for i, v in enumerate(self.schema) if v in want)

    def register_index(self, positions: tuple[int, ...]) -> None:
        if not positions or len(positions) == len(self.schema):
            return  # full-schema and empty lookups go through `entries`
        if positions in self.indexes:
            return
        key_of = projection(positions)
        index: dict[Row, dict[Row, None]] = {}
        _fill(index, key_of, self.entries)
        self.indexes[positions] = index
        self.keyed.append((key_of, index))

    # -- primitives --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.entries)

    def get(self, row: Row) -> int:
        self.counters.storage_ops += 1
        return self.entries.get(row, 0)

    def add(self, delta: dict[Row, int]) -> None:
        """Write ``delta``, ``row -> nonzero multiplicity``, in one call: one
        op per row, plus one per index for each entry created or removed.
        Unchecked: a view may go negative."""
        entries, keyed = self.entries, self.keyed
        get = entries.get
        moved = 0  # entries created or removed
        for row, m in delta.items():
            old = get(row)
            if old is None:
                entries[row] = m
                for key_of, index in keyed:
                    index.setdefault(key_of(row), {})[row] = None
            elif old + m:
                entries[row] = old + m
                continue
            else:
                del entries[row]
                for key_of, index in keyed:
                    key = key_of(row)
                    bucket = index[key]
                    del bucket[row]
                    if not bucket:
                        del index[key]
            moved += 1
        self.counters.storage_ops += len(delta) + moved * len(keyed)

    def scan(self, positions: tuple[int, ...], key: Row) -> Iterator[tuple[Row, int]]:
        """Yield each entry whose projection on ``positions`` equals ``key``."""
        if not positions:
            for row, m in self.entries.items():
                self.counters.storage_ops += 1
                yield row, m
            return
        if len(positions) == len(self.schema):
            self.counters.storage_ops += 1
            row = whole_row(positions, key)
            m = self.entries.get(row, 0)
            if m:
                yield row, m
            return
        index = self.indexes.get(positions)
        if index is None:
            raise UnregisteredIndexError(f"{self.name}: no index on positions {positions}")
        self.counters.storage_ops += 1
        for row in index.get(key, ()):
            self.counters.storage_ops += 1
            yield row, self.entries[row]

    def count(self, positions: tuple[int, ...], key: Row) -> int:
        """|sigma_{positions=key}| in constant time, for a nonempty
        ``positions``."""
        self.counters.storage_ops += 1
        if len(positions) == len(self.schema):
            return 1 if whole_row(positions, key) in self.entries else 0
        index = self.indexes.get(positions)
        if index is None:
            raise UnregisteredIndexError(f"{self.name}: no index on positions {positions}")
        bucket = index.get(key)
        return len(bucket) if bucket else 0

    # -- bulk --------------------------------------------------------------

    def clear(self) -> None:
        self.entries.clear()
        for index in self.indexes.values():
            index.clear()

    def load(self, entries: Mapping[Row, int]) -> None:
        """Replace the whole content with ``entries``, ``row -> nonzero
        multiplicity``, in their order, in one call: one op per row plus one per registered
        index, as that many :meth:`add` insertions would count.  The rows
        are written with one ``dict.update`` and each index is filled in one
        pass, keys and buckets in row order.  The ``entries`` and index
        dicts are cleared and refilled, never replaced, so join plans bound
        to them stay valid.  Base loads, light parts' key sets, materialized
        views and H all take their content this way."""
        self.clear()
        self.entries.update(entries)
        self.counters.storage_ops += len(entries) * (1 + len(self.keyed))
        for key_of, index in self.keyed:
            _fill(index, key_of, entries)

    def degrees(self, positions: tuple[int, ...]) -> dict[Row, int]:
        """Number of distinct rows per key on ``positions``, read as the
        bucket sizes of the key index, in its key order; where the key is
        the whole schema, so that no index exists, one per row, by
        :func:`key_degrees`.  Counts no ops; the caller counts its pass."""
        index = self.indexes.get(positions)
        if index is None:
            return key_degrees(self.entries, positions)
        return dict(zip(index, map(len, index.values())))

    def rebuilt_indexes(self) -> dict[tuple[int, ...], dict[Row, dict[Row, None]]]:
        """Fresh index structures recomputed from `entries` (test oracle)."""
        out: dict[tuple[int, ...], dict[Row, dict[Row, None]]] = {}
        for positions in self.indexes:
            index: dict[Row, dict[Row, None]] = {}
            for row in self.entries:
                index.setdefault(tuple(row[p] for p in positions), {})[row] = None
            out[positions] = index
        return out


def _fill(index: dict[Row, dict[Row, None]], key_of, rows: Iterable[Row]) -> None:
    """Add each of ``rows``, in order, to its key's bucket of ``index``."""
    get = index.get
    for row in rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            index[key] = {row: None}
        else:
            bucket[row] = None


def key_degrees(rows: Iterable[Row], positions: tuple[int, ...]) -> dict[Row, int]:
    """Number of distinct ``rows`` per key, the projection on ``positions``.
    Counts no ops; a caller that reads a relation counts them itself."""
    key_of = projection(positions)
    degrees: dict[Row, int] = {}
    for row in rows:
        key = key_of(row)
        degrees[key] = degrees.get(key, 0) + 1
    return degrees


def strict_partition(rel: Relation, positions: tuple[int, ...], theta: float,
                     degrees: dict[Row, int]) -> dict[Row, int]:
    """Entries of the strict light part of ``rel`` on ``positions``, given
    ``degrees``, the number of distinct rows of ``rel`` per key (see
    :meth:`Relation.degrees`).

    A key is light iff strictly fewer than ``theta`` distinct tuples of
    ``rel`` carry it; the returned dict holds exactly those tuples with their
    multiplicities, in ``rel``'s entry order: a copy of the entries less the
    rows of each heavy key's index bucket.  A relation with no index on
    ``positions`` (the key is its whole schema) is filtered row by row.
    Counted as one pass over ``rel``, one op per entry; the caller counts
    the pass that gave ``degrees``.  Used at preprocessing time and by the
    rebuild a major falls back to, which reuse the degrees of their own
    pass, take the light keys from the rows and fold the views that start
    at a light leaf from them; no relation keeps the copy.
    """
    entries = rel.entries
    rel.counters.storage_ops += len(entries)
    index = rel.indexes.get(positions)
    if index is None:
        key_of = projection(positions)
        return {row: m for row, m in entries.items() if degrees[key_of(row)] < theta}
    light = entries.copy()
    for key, degree in degrees.items():
        if degree >= theta:
            for row in index[key]:
                del light[row]
    return light


def iceil(x: float) -> int:
    """Ceiling with a guard against float noise just above an integer."""
    return math.ceil(x - 1e-9)
