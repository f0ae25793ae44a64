"""Shared test helpers: the query suite, random query/database generators,
and a trace runner for dynamic tests."""

from __future__ import annotations

import random

import pytest

from skewivm.query import Atom, ConjunctiveQuery, parse_query

SUITE = {
    "chain2": "Q(A,C) = R(A,B), S(B,C).",
    "semi": "Q(A) = R(A,B), S(B).",
    "fc3": "Q(A,D,E) = R(A,B,C), S(A,B,D), T(A,E).",
    "fc4": "Q(A,C,F) = R(A,B,C), S(A,B,D), T(A,E,F), U(A,E,G).",
    "deep4": "Q(C,D,E,F) = R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G).",
    "star3": "Q(Y0,Y1,Y2) = R0(X,Y0), R1(X,Y1), R2(X,Y2).",
}

EPS_GRID = (0.0, 0.25, 0.5, 1.0)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def rand_db(q: ConjunctiveQuery, rng: random.Random, per_rel: int = 40,
            dom: int = 10, max_mult: int = 3) -> dict:
    db = {}
    for sym in q.symbols():
        arity = len(q.occurrences(sym)[0].schema)
        rel = {}
        for _ in range(per_rel):
            rel[tuple(rng.randrange(dom) for _ in range(arity))] = rng.randint(1, max_mult)
        db[sym] = rel
    return db


def random_hierarchical_query(rng: random.Random, max_atoms: int = 5,
                              max_vars: int = 7,
                              allow_repeats: bool = True) -> ConjunctiveQuery:
    """A random hierarchical query built from a random variable forest:
    every atom's schema is a full root path, which makes the atom-set
    containment structure a tree by construction."""
    while True:
        n_vars = rng.randint(1, max_vars)
        names = [f"V{i}" for i in range(n_vars)]
        parent: dict[str, str | None] = {}
        for i, v in enumerate(names):
            parent[v] = rng.choice([None] + names[:i]) if i else None
        kids = {v: [w for w in names if parent[w] == v] for v in names}
        leaves = [v for v in names if not kids[v]]
        if len(leaves) > max_atoms:
            continue

        def path(v: str) -> tuple[str, ...]:
            out = [v]
            while parent[out[-1]] is not None:
                out.append(parent[out[-1]])
            return tuple(reversed(out))

        anchors = list(leaves)
        extras = max_atoms - len(anchors)
        for _ in range(rng.randint(0, extras)):
            anchors.append(rng.choice(names))
        atoms = []
        occ: dict[str, int] = {}
        arity_of: dict[str, int] = {}
        for i, v in enumerate(anchors):
            schema = path(v)
            sym = f"R{i}"
            if allow_repeats and i > 0 and rng.random() < 0.15:
                # a repeated relation symbol keeps one arity everywhere
                same = [s for s, ar in arity_of.items() if ar == len(schema)]
                if same:
                    sym = rng.choice(same)
            atoms.append(Atom(sym, schema, occ.setdefault(sym, 0)))
            occ[sym] += 1
            arity_of[sym] = len(schema)
        free = tuple(v for v in names if rng.random() < 0.5)
        return ConjunctiveQuery("Q", free, tuple(atoms))


def random_any_query(rng: random.Random, max_atoms: int = 4,
                     max_vars: int = 6) -> ConjunctiveQuery:
    """Arbitrary (usually non-hierarchical) query for classifier agreement."""
    n_vars = rng.randint(1, max_vars)
    names = [f"V{i}" for i in range(n_vars)]
    atoms = []
    for i in range(rng.randint(1, max_atoms)):
        k = rng.randint(1, n_vars)
        schema = tuple(rng.sample(names, k))
        atoms.append(Atom(f"R{i}", schema, 0))
    covered = set().union(*(a.schema for a in atoms))
    free = tuple(v for v in names if v in covered and rng.random() < 0.5)
    return ConjunctiveQuery("Q", free, tuple(atoms))


def run_trace(state, q: ConjunctiveQuery, rng: random.Random, steps: int,
              dom: int = 6, insert_p: float = 0.7, on_step=None,
              hot: float = 0.0) -> None:
    """Random single-tuple trace: ``insert_p`` inserts, the rest deletes of
    existing tuples.  A share ``hot`` of the inserts falls on one hot key:
    every value is -1 but that of the atom's variable in the fewest atoms,
    drawn from a domain wide enough that the key's degree keeps growing and
    crosses the relaxed light bound."""
    live: dict[str, list] = {s: [] for s in q.symbols()}
    for step in range(steps):
        sym = rng.choice(q.symbols())
        schema = q.occurrences(sym)[0].schema
        arity = len(schema)
        if rng.random() < insert_p or not live[sym]:
            if hot and rng.random() < hot:
                lowest = min(schema, key=lambda v: len(q.atoms_of[v]))
                row = tuple(rng.randrange(dom, 100 * dom) if v == lowest else -1
                            for v in schema)
            else:
                row = tuple(rng.randrange(dom) for _ in range(arity))
            state.on_update(sym, row, rng.randint(1, 2))
            if row not in live[sym]:
                live[sym].append(row)
        else:
            row = rng.choice(live[sym])
            cur = state.base[sym].entries.get(row, 0)
            if cur <= 0:
                live[sym].remove(row)
                continue
            state.on_update(sym, row, -1)
            if cur == 1:
                live[sym].remove(row)
        if on_step is not None:
            on_step(step)


def parse(name: str) -> ConjunctiveQuery:
    return parse_query(SUITE[name])
