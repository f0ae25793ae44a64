"""Multiset relations with prefix indexes and heavy/light partitioning.

A :class:`Relation` stores tuple -> nonzero multiplicity entries in a hash
map and keeps, for every registered proper sub-schema, an index from
sub-tuple keys to the matching entries.  All primitives are constant time
(amortized) and each one bumps the owning :class:`~skewivm.metrics.Counters`
by exactly one, which is what the counter-based complexity tests measure.
Three routines count the same primitives in bulk.  The join fold of
:func:`skewivm.viewtree.run_join` runs a kernel generated for its plan's
shape, which reads entries and index buckets directly, tallies its steps'
ops in one local (one op per lookup, one per bucket fetch plus one per
scanned row, one per entry of a cross product) and adds it, once per fold,
to the counters of its start relation, which a state's relations share.
:meth:`Relation.add`, the one incremental writer, writes a delta of any
number of rows in one call: one op per row, plus one per index for each
entry it creates or removes.  It checks nothing; the engine's input
boundary (``preprocess`` and ``EngineState.on_update``) has already checked
every row's arity and multiplicity.
:meth:`Relation.load`, the one bulk writer of a whole content (base
relations, light parts, materialized views, H), writes all rows with one
``dict.update``, fills each index in one pass and adds ``rows * (1 +
indexes)`` ops at once.

Preprocessing and majors read key degrees as the bucket sizes of a key
index (:meth:`Relation.degrees`) and take a strict light part
(:func:`strict_partition`) as a copy of the entries less the heavy keys'
buckets.  Every bulk routine keeps the order of entries, index keys and
buckets that one-row writes in the same order would give; enumeration order
depends on it.

Base relations only ever hold strictly positive multiplicities, because
``on_update`` rejects a delete that would leave one nonpositive before it
writes anything; views may go negative transiently while a delta
propagates.
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
            m = self.entries.get(key, 0)
            if m:
                yield key, m
            return
        index = self.indexes.get(positions)
        if index is None:
            raise UnregisteredIndexError(f"{self.name}: no index on positions {positions}")
        self.counters.storage_ops += 1
        for row in index.get(key, ()):
            self.counters.storage_ops += 1
            yield row, self.entries[row]

    def count(self, positions: tuple[int, ...], key: Row) -> int:
        """|sigma_{positions=key}| in constant time; ``positions`` is never
        empty (the engine counts by a light part's key)."""
        self.counters.storage_ops += 1
        if len(positions) == len(self.schema):
            return 1 if key in self.entries else 0
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
        to them stay valid.  Base loads, light parts, materialized views and
        H all take their content this way."""
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
    rebuild a major falls back to, which reuses the degrees of its own
    pass.
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
