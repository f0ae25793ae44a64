"""Synthetic skew benchmark: counter-based scaling measurements.

The generator sends a constant fraction of each relation's tuples to a
single *celebrity* value on the join keys and spreads the rest over a pool
of about half the tuple count, so both the heavy and the light regime are
exercised at every size.  Private (non-join) positions take fresh values so
the database grows by one distinct tuple per insert.
"""

from __future__ import annotations

import random

from .engine import preprocess
from .metrics import BenchRow, Counters
from .query import ConjunctiveQuery

CELEBRITY_SHARE = 0.25
DELAY_SAMPLE_NEXTS = 2000


def skewed_trace(q: ConjunctiveQuery, n: int, seed: int) -> list[tuple[str, tuple, int]]:
    """A deterministic insert sequence of ~n distinct tuples, skewed on the
    join variables (variables occurring in more than one atom)."""
    rng = random.Random(seed)
    join_vars = {v for v in q.variables if len(q.atoms_of[v]) > 1}
    atoms = list(q.atoms)
    quota = max(1, n // len(atoms))
    pool = max(4, quota // 2)
    celebrity = -1  # reserved value outside the uniform pool
    trace: list[tuple[str, tuple, int]] = []
    fresh = 0
    for atom in atoms:
        for _ in range(quota):
            if rng.random() < CELEBRITY_SHARE:
                key_val = celebrity
            else:
                key_val = rng.randrange(pool)
            row = []
            for v in atom.schema:
                if v in join_vars:
                    row.append(key_val)
                else:
                    fresh += 1
                    row.append(pool + fresh)
            trace.append((atom.symbol, tuple(row), 1))
    rng.shuffle(trace)
    return trace


def run_point(q: ConjunctiveQuery, n: int, epsilon: float, seed: int) -> BenchRow:
    """Replay a skewed trace of ~n inserts from the empty database and
    measure amortized/max per-update ops plus the per-next delay counter
    over a prefix of the enumeration."""
    counters = Counters()
    state = preprocess(q, {sym: {} for sym in q.symbols()}, epsilon,
                       mode="dynamic", counters=counters)
    trace = skewed_trace(q, n, seed)
    for symbol, row, mult in trace:
        state.on_update(symbol, row, mult)
    it = state.enumerate_result()
    for _ in range(DELAY_SAMPLE_NEXTS):
        if it.next() is None:
            break
    return BenchRow(
        n=state.N,
        epsilon=epsilon,
        max_per_update_ops=counters.max_update_ops,
        amortized_ops=round(counters.amortized_update_ops, 2),
        max_delay_ops=counters.max_next_ops,
        majors=counters.major_rebalances,
        minors=counters.minor_rebalances,
    )

