"""Seeded workload generator for the benchmark.

A workload is a query, an epsilon, a preloaded database and a script of
operations: single-tuple updates and reads of a fixed number of rows.  Every
input comes from ``random.Random(seed)``; nothing depends on a clock, so
one seed always gives the same database and the same script.

Join keys follow a power law.  The preload does not sample it: each key
gets a fixed share of each relation, ``n * prod(p_v(rank_v))`` with Zipf
weights ``p_v(k) ~ 1 / k**exponent`` over the key ranks, rounded by largest
remainder.  The other columns and the multiplicities of the database are
drawn by a generator with a fixed seed.  ``seed`` relabels every value and
draws the script, so the database is the same for every seed up to the
names of its values: its structure, and with it the operation counts of
set-up and of a first read (a single sample per run), does not move between
seeds.  A single celebrity key, as in
``skewivm.bench.skewed_trace``, would give grounding only one heavy bucket.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

Row = tuple
Multiset = dict[Row, int]

_ATOM = re.compile(r"(\w+)\(([^)]*)\)")


def parse_atoms(query: str) -> tuple[tuple[str, ...], list[tuple[str, tuple[str, ...]]]]:
    """Head variables and body atoms ``[(symbol, variables)]`` of a query
    written ``Q(vars) = R(vars), ...``.  Kept apart from the engine's parser
    so that the reference does not share code with the engine."""
    found = [(sym, tuple(v.strip() for v in args.split(",")))
             for sym, args in _ATOM.findall(query)]
    return found[0][1], found[1:]


@dataclass(frozen=True)
class Spec:
    """Shape of one workload.  Sizes count tuples per relation."""

    query: str
    epsilon: float
    preload: int  # tuples per relation before the script starts
    key_counts: dict  # join variable -> number of distinct key values
    exponent: float  # Zipf exponent of every join variable
    pool: int  # distinct values of each non-join column
    kind: str  # "grow": inserts only; "churn": a delete, then an insert
    updates: int  # updates in the script
    read_every: int  # updates between two reads
    read_rows: int  # rows asked of each read
    setup_calls: int  # back-to-back preprocess calls per round
    final: int = 0  # "grow" only: tuples per relation at the end
    trend: float = 0.0  # "churn" only: share of inserts on the trending key
    trend_every: int = 0  # updates before the trend moves to another key


WORKLOADS = {
    "grow-chain2-e1": Spec(
        query="Q(A,C) = R(A,B), S(B,C).",
        epsilon=1.0,
        preload=256, final=2048,
        key_counts={"B": 256}, exponent=1.0, pool=512,
        kind="grow", updates=3584, read_every=256, read_rows=80, setup_calls=8,
    ),
    "churn-fc4-e05": Spec(
        query="Q(A,C,F) = R(A,B,C), S(A,B,D), T(A,E,F), U(A,E,G).",
        epsilon=0.5,
        preload=2048,
        key_counts={"A": 16, "B": 32, "E": 32}, exponent=1.0, pool=16,
        kind="churn", updates=4000, read_every=100, read_rows=32, setup_calls=2,
        trend=0.5, trend_every=1000,
    ),
    "read-chain2-e025": Spec(
        query="Q(A,C) = R(A,B), S(B,C).",
        epsilon=0.25,
        preload=4096,
        key_counts={"B": 512}, exponent=1.0, pool=2048,
        kind="churn", updates=1024, read_every=128, read_rows=256, setup_calls=4,
    ),
}


def smoke(spec: Spec) -> Spec:
    """The same workload at a size the whole-result check can afford."""
    scale = 16
    return replace(
        spec,
        preload=max(8, spec.preload // scale),
        final=spec.final // scale,
        key_counts={v: max(2, k // scale) for v, k in spec.key_counts.items()},
        pool=max(8, spec.pool // scale),
        updates=max(8, spec.updates // scale),
        read_every=max(1, spec.read_every // scale),
        trend_every=max(1, spec.trend_every // scale),
        setup_calls=min(2, spec.setup_calls),
    )


def zipf_shares(n: int, sizes: list[int], exponent: float) -> dict[tuple, int]:
    """Exactly ``n`` tuples spread over the key-rank grid ``sizes`` in
    proportion to the product of per-variable Zipf weights."""
    weights = [[1.0 / (k + 1) ** exponent for k in range(size)] for size in sizes]
    totals = [sum(w) for w in weights]
    cells = [()]
    for w, total in zip(weights, totals):
        cells = [c + (k,) for c in cells for k in range(len(w))]
    exact = {}
    for c in cells:
        share = n
        for var, k in enumerate(c):
            share *= weights[var][k] / totals[var]
        exact[c] = share
    counts = {c: int(x) for c, x in exact.items()}
    left = n - sum(counts.values())
    by_remainder = sorted(cells, key=lambda c: (counts[c] - exact[c], c))
    for c in by_remainder[:left]:
        counts[c] += 1
    return {c: m for c, m in counts.items() if m}


class Generator:
    """Draws the database and script of one workload from one seed."""

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)  # labels and script
        self.shape = random.Random(0)  # the database, up to labels
        self.head, self.atoms = parse_atoms(spec.query)
        occurrences: dict[str, int] = {}
        for _, schema in self.atoms:
            for v in schema:
                occurrences[v] = occurrences.get(v, 0) + 1
        self.join_vars = {v for v, c in occurrences.items() if c > 1}
        # relabel key ranks: the seed decides which value is the celebrity
        self.labels = {}
        for v in sorted(self.join_vars):
            values = list(range(spec.key_counts[v]))
            self.rng.shuffle(values)
            self.labels[v] = values
        self.pool_labels = list(range(spec.pool))
        self.rng.shuffle(self.pool_labels)
        self.cum = {v: _cumulative(spec.key_counts[v], spec.exponent)
                    for v in self.join_vars}
        self.live: dict[str, list[Row]] = {}  # live rows, for uniform deletes
        self.where: dict[str, dict[Row, int]] = {}  # row -> index in live
        self.db: dict[str, Multiset] = {}

    def _row(self, sym: str, schema: tuple[str, ...], ranks: dict,
             rng: random.Random) -> Row:
        """A tuple new to ``sym`` with the given join keys; the other
        columns come from the value pool, drawn by ``rng``."""
        rel = self.db[sym]
        pool = self.spec.pool
        labels = self.pool_labels
        while True:
            row = tuple(self.labels[v][ranks[v]] if v in self.join_vars
                        else _label(labels, rng.randrange(pool)) for v in schema)
            if row not in rel:
                return row
            pool += 1  # a crowded key widens its pool rather than loop

    def _insert(self, sym: str, row: Row, mult: int) -> None:
        self.db[sym][row] = mult
        self.where[sym][row] = len(self.live[sym])
        self.live[sym].append(row)

    def _remove(self, sym: str, row: Row) -> int:
        live, where = self.live[sym], self.where[sym]
        i = where.pop(row)
        last = live.pop()
        if i < len(live):
            live[i] = last
            where[last] = i
        return self.db[sym].pop(row)

    def build(self) -> tuple[dict[str, Multiset], list[tuple]]:
        """The preloaded database and the script.  Script entries are
        ``("u", symbol, row, mult)`` or ``("r", rows)``."""
        spec = self.spec
        stream: list[tuple[str, Row]] = []
        for sym, schema in self.atoms:
            self.db[sym] = {}
            self.live[sym] = []
            self.where[sym] = {}
            keys = [v for v in schema if v in self.join_vars]
            sizes = [spec.key_counts[v] for v in keys]
            total = spec.final if spec.kind == "grow" else spec.preload
            shares = zipf_shares(total, sizes, spec.exponent)
            later = []
            for cell, count in sorted(shares.items()):
                ranks = dict(zip(keys, cell))
                first = count * spec.preload // total
                for i in range(count):
                    row = self._row(sym, schema, ranks, self.shape)
                    if i < first:
                        self._insert(sym, row, self.shape.choice((1, 1, 1, 2)))
                    else:
                        self.db[sym][row] = 0  # reserved for the stream
                        later.append(row)
            for row in later:
                del self.db[sym][row]
            stream.extend((sym, row) for row in later)
        preload = {sym: dict(rel) for sym, rel in self.db.items()}
        self.rng.shuffle(stream)

        script: list[tuple] = []
        cooling: list[Row] = []  # rows of the key that trended last
        for i in range(spec.updates):
            phase = i // spec.trend_every if spec.trend else 0
            if spec.kind == "grow":
                sym, row = stream[i]
                script.append(("u", sym, row, 1))
                self._insert(sym, row, 1)
            elif i % 2 == 0:
                if spec.trend and i % spec.trend_every == 0 and phase:
                    cooling = self._trending_rows(phase - 1)
                sym, row, mult = self._delete(cooling)
                script.append(("u", sym, row, -mult))
            else:
                if self.rng.random() < spec.trend:
                    sym, schema = self.atoms[0]
                    ranks = self._trending_ranks(phase)
                else:
                    sym, schema = self.atoms[self.rng.randrange(len(self.atoms))]
                    ranks = self._draw_ranks(schema)
                row = self._row(sym, schema, ranks, self.rng)
                script.append(("u", sym, row, 1))
                self._insert(sym, row, 1)
            if (i + 1) % spec.read_every == 0:
                script.append(("r", spec.read_rows))
        return preload, script

    # A trending key of the first relation takes a share of the inserts for
    # ``trend_every`` updates, so it outgrows the light part and is evicted.
    # In the next phase it takes a larger share of the deletes, so it falls
    # back under the heavy floor and returns.  N stays put either way.

    def _trending_ranks(self, phase: int) -> dict:
        keys = [v for v in self.atoms[0][1] if v in self.join_vars]
        return {v: (1 + phase if v == keys[0] else 0) % self.spec.key_counts[v]
                for v in keys}

    def _trending_rows(self, phase: int) -> list[Row]:
        sym, schema = self.atoms[0]
        want = {schema.index(v): self.labels[v][k]
                for v, k in self._trending_ranks(phase).items()}
        return [row for row in self.live[sym]
                if all(row[p] == val for p, val in want.items())]

    def _delete(self, cooling: list[Row]) -> tuple[str, Row, int]:
        """Removes one live tuple: with the cooling share one of ``cooling``,
        otherwise one chosen uniformly over all relations."""
        sym = self.atoms[0][0]
        while cooling and self.rng.random() < min(1.0, 1.4 * self.spec.trend):
            row = cooling.pop(self.rng.randrange(len(cooling)))
            if row in self.where[sym]:
                return sym, row, self._remove(sym, row)
        total = sum(len(rows) for rows in self.live.values())
        pick = self.rng.randrange(total)
        for sym, rows in self.live.items():
            if pick < len(rows):
                row = rows[pick]
                return sym, row, self._remove(sym, row)
            pick -= len(rows)
        raise AssertionError("no live tuple to delete")

    def _draw_ranks(self, schema: tuple[str, ...]) -> dict:
        return {v: self.rng.choices(range(len(self.cum[v])), cum_weights=self.cum[v])[0]
                for v in schema if v in self.join_vars}


def _label(labels: list[int], k: int) -> int:
    """The seed's name for pool value ``k``; values past the pool keep theirs."""
    return labels[k] if k < len(labels) else k


def _cumulative(size: int, exponent: float) -> list[float]:
    out, acc = [], 0.0
    for k in range(size):
        acc += 1.0 / (k + 1) ** exponent
        out.append(acc)
    return out


def generate(spec: Spec, seed: int) -> tuple[dict[str, Multiset], list[tuple]]:
    """``(preload, script)`` of ``spec`` for ``seed``."""
    return Generator(spec, seed).build()
