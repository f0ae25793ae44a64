"""Primitive-operation accounting.

The complexity claims of the engine are RAM-model operation counts, so the
observable we track is the number of storage primitives (dictionary lookups,
inserts, deletes and index-scan steps), not wall-clock time.  Every primitive
in :mod:`skewivm.storage` increments ``storage_ops`` exactly once.  Three
routines count the same primitives in bulk.  The join fold of
:func:`skewivm.viewtree.run_join` is a kernel generated per plan shape: it
tallies its steps' ops in one local (one per lookup, one per index-bucket
fetch plus one per row it yields, one per entry of a full scan) and adds
it, once per fold, to the ``Counters`` of its start relation, in a state
the one ``Counters`` every relation counts on.
:meth:`skewivm.storage.Relation.add` writes a delta of any size in one call
(one per row, plus one per index for each entry it creates or removes).
An update's trigger (:func:`skewivm.viewtree.trigger_source`) runs the
same folds and writes for every view above a leaf and adds their ops once,
and a symbol's update pass (:func:`skewivm.viewtree.pass_source`) counts
its one-row writes and its reads of roots and key buckets as the
primitives would, in one sum per pass.  So the totals do not depend on
which path did the work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Counters:
    """Mutable operation counters owned by one engine state."""

    storage_ops: int = 0
    last_update_ops: int = 0
    max_update_ops: int = 0
    last_next_ops: int = 0
    max_next_ops: int = 0
    major_rebalances: int = 0
    minor_rebalances: int = 0
    updates: int = 0
    cumulative_update_ops: int = 0

    def snapshot(self) -> "Counters":
        """Consistent copy of the current counter values."""
        return Counters(**vars(self))

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    def record_update(self, ops: int) -> None:
        self.updates += 1
        self.last_update_ops = ops
        self.max_update_ops = max(self.max_update_ops, ops)
        self.cumulative_update_ops += ops

    def record_next(self, ops: int) -> None:
        self.last_next_ops = ops
        self.max_next_ops = max(self.max_next_ops, ops)

    @property
    def amortized_update_ops(self) -> float:
        return self.cumulative_update_ops / self.updates if self.updates else 0.0


@dataclass
class BenchRow:
    """One line of the ``bench`` CSV output."""

    n: int
    epsilon: float
    max_per_update_ops: int
    amortized_ops: float
    max_delay_ops: int
    majors: int
    minors: int
    field_order = ("n", "epsilon", "max_per_update_ops", "amortized_ops",
                   "max_delay_ops", "majors", "minors")

    def as_csv(self) -> str:
        return ",".join(str(getattr(self, f)) for f in self.field_order)
