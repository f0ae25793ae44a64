"""Shared test helpers: the query suite, random query/database generators,
and a trace runner for dynamic tests."""

from __future__ import annotations

import random
from types import MethodType

import pytest

from skewivm.metrics import Counters
from skewivm.query import Atom, ConjunctiveQuery, parse_query
from skewivm.storage import Relation, iceil, projection

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


def fingerprint(st) -> dict:
    """Exact content map of engine state ``st`` for state-equality
    comparisons: M, N, every H, key set and view."""
    out: dict = {"M": st.M, "N": st.N}
    for triple in st.triples:
        out[triple.h_content.name] = _freeze(triple.h_content.entries)
        for lp in triple.light_parts:
            out[lp.content.name] = _freeze(lp.content.entries)
    for node in st.dag.nodes:
        out[node.name] = _freeze(node.content.entries)
    return out


def _freeze(entries: dict) -> tuple:
    return tuple(sorted(entries.items(), key=repr))


def part_key(lp, row):
    """The key of ``row``, a row of light part ``lp``'s atom, in the part."""
    return projection(lp.key_positions)(row)


def light_part(lp):
    """The rows of light part ``lp`` as a relation of their own: the rows
    of its occurrence relation whose key is in its key set L, in entry
    order, indexed as the occurrence relation is and on the part's key.
    Building it counts nothing; its reads count on the state's counters."""
    rel = Relation(lp.name, lp.atom.schema, Counters())
    for positions in (lp.key_positions, *lp.occurrence.indexes):
        rel.register_index(positions)
    key_of = projection(lp.key_positions)
    rel.load({row: m for row, m in lp.occurrence.entries.items()
              if key_of(row) in lp.content.entries})
    rel.counters = lp.occurrence.counters
    return rel


def leaf_rows(node):
    """The rows leaf ``node`` contributes, as a relation: its content, or a
    light leaf's part's rows (:func:`light_part`), not the whole occurrence
    relation that is its content."""
    return node.content if node.part is None else light_part(node.part)


def reference_run_join(plan, children, start_rows):
    """The join fold written over the storage primitives (``Relation.get``
    and the ``Relation.scan`` generator), each counting one op on the
    relation it reads, a light leaf's rows read as :func:`light_part`
    gives them: what a generated kernel must return and count."""
    out: dict[tuple, int] = {}
    rows = [(row, m) for row, m in start_rows]
    for step in plan.steps:
        child = children[step.child_index]
        rel = leaf_rows(child)
        next_rows = []
        if step.mode == "lookup":
            for row, m in rows:
                cm = rel.get(tuple(row[p] for p in step.acc_positions))
                if cm:
                    next_rows.append((row, m * cm))
        else:
            for row, m in rows:
                key = tuple(row[p] for p in step.acc_positions)
                for crow, cm in rel.scan(step.child_positions, key):
                    next_rows.append(
                        (row + tuple(crow[p] for p in step.new_positions), m * cm))
        rows = next_rows
    for row, m in rows:
        key = tuple(row[p] for p in plan.out_positions)
        new = out.get(key, 0) + m
        if new:
            out[key] = new
        elif key in out:
            del out[key]
    return out


def reference_update_pass(st, symbol, row, mult, bounds):
    """The update pass of ``symbol`` as it was written before it was
    generated (see :func:`skewivm.viewtree.pass_source`), applying
    ``{row: mult}`` to ``st``: the light-path test over ``Relation.count``
    of the base and ``Relation.get`` of the key set L, writes by
    ``Relation.add`` (L's a key at a time), root reads by ``Relation.get``
    and the minor checks against thresholds recomputed from ``M``.  It calls the
    layers the generated pass calls through the state
    (``_light_path_conditions``, ``_apply``, ``_update_ind_tree``, the H
    changes and ``_minor_rebalancing``), at the same points."""
    routes = [(atom.name, st.atom_rels[atom.name],
               [(triple, lp) for triple in st.triples for lp in triple.light_parts
                if lp.atom.name == atom.name])
              for atom in st.query.occurrences(symbol)]
    rel = st.base[symbol]

    fresh = []  # per pair, whether the key is new to the base

    def conditions(row):
        pre = []
        for _, _, pairs in routes:
            for _, lp in pairs:
                key = part_key(lp, row)
                fresh.append(lp.base.count(lp.key_positions, key) == 0)
                in_light = lp.content.get(key) > 0
                pre.append(fresh[-1] or in_light)
        return pre

    light = iter(st._light_path_conditions(conditions, row))
    new = iter(fresh)
    rel.add({row: mult})
    for leaf_name, occurrence_rel, pairs in routes:
        # a later self-join occurrence turns new just before its own pass:
        # each pass sees earlier occurrences new, later ones old
        if occurrence_rel is not rel:
            occurrence_rel.add({row: mult})
        _update_trees(st, leaf_name, pairs, row, mult,
                      [(next(light), next(new)) for _ in pairs])
    if bounds is not None:
        _minor_checks(st, routes, row)


def _update_trees(st, leaf_name, pairs, row, mult, light):
    """One occurrence's pass, after its relation took the update: propagate
    it through every view above the leaf, All roots included, then per
    pair the All transition, on the light path (``light``, per pair, with
    whether the key is new to the base) L's change and the light part's
    propagation, and last H's change, settled once.  A key new to the
    base enters L; a delete that leaves the base without the key, read by
    one count, takes it out."""
    delta = {row: mult}
    keys, before = [], []
    for triple, lp in pairs:
        key = part_key(lp, row)
        keys.append(key)
        before.append(triple.all_root.content.get(key))
    st._apply(st.dag, leaf_name, delta)
    for (triple, lp), key, count, (on_light, fresh) in zip(pairs, keys, before, light):
        d_all = st._update_ind_tree(triple.all_root, key, count)
        d_light = 0
        if on_light:
            if fresh:
                lp.content.add({key: 1})
            elif mult < 0 and lp.base.count(lp.key_positions, key) == 0:
                lp.content.add({key: -1})
            d_light = _light_pass(st, triple, lp, delta, key)
        _settle_h(st, triple, key, d_all, d_light)


def _light_pass(st, triple, lp, delta, key):
    """Propagate a change the light part has taken, its occurrence
    relation written and L up to date; returns the L root's support
    transition at ``key``."""
    before = triple.light_root.content.get(key)
    st._apply(st.dag, lp.name, delta)
    return st._update_ind_tree(triple.light_root, key, before)


def _settle_h(st, triple, key, d_all, d_light):
    """Write and propagate H's change at ``key`` from L's transition if it
    has one, else from All's."""
    d_h = (st._h_light_change(triple, key, d_light) if d_light
           else st._h_all_change(triple, key, d_all))
    if d_h:
        st._apply(st.dag, triple.support_name, d_h)


def _minor_checks(st, routes, row):
    """Migrate each pair's key that crossed a relaxed degree bound."""
    m_eps = float(st.M) ** st.epsilon
    evict_at = iceil(1.5 * m_eps)
    reinsert_below = iceil(0.5 * m_eps)
    for _, _, pairs in routes:
        for triple, lp in pairs:
            key = part_key(lp, row)
            # the light part's degree at one op, as a count of a light copy
            # was: one get of L, then the key's degree in the part's rows
            in_light = lp.content.get(key) and light_part(lp).degrees(lp.key_positions)[key]
            if in_light == 0 and 0 < lp.base.count(lp.key_positions, key) < reinsert_below:
                st._minor_rebalancing(triple, lp, key, insert=True)
            elif in_light >= evict_at:
                st._minor_rebalancing(triple, lp, key, insert=False)


def reference_move_key(self, triple, lp, key, insert):
    """``EngineState._move_key`` over the reference light pass: L takes or
    drops the key, then its base tuples propagate one at a time."""
    lp.content.add({key: 1 if insert else -1})
    for row, base_mult in list(lp.base.scan(lp.key_positions, key)):
        delta = {row: base_mult if insert else -base_mult}
        _settle_h(self, triple, key, 0, _light_pass(self, triple, lp, delta, key))


def use_reference_pass(st):
    """Make ``st`` update through :func:`reference_update_pass` and move
    keys through :func:`reference_move_key`."""
    st._passes = {sym: (lambda state, row, mult, bounds, sym=sym:
                        reference_update_pass(state, sym, row, mult, bounds))
                  for sym in st.base}
    st._move_key = MethodType(reference_move_key, st)


def _odometer(slots, outs, ctx):
    """Roll the product of ``slots`` forward until every slot has a current
    output: an exhausted slot is reopened under ``ctx`` and the slot before
    it advances.  False once the first slot is exhausted."""
    while None in outs:
        hole = outs.index(None)
        if hole == 0:
            return False
        slot = slots[hole]
        slot.open(ctx)
        outs[hole] = slot.next()
        outs[hole - 1] = slots[hole - 1].next()
    return True


def _product_row(slots, outs, row, schema, out_schema):
    """The product tuple of ``row`` and the slots' current outputs, laid
    out by ``schema``, projected onto ``out_schema``, with the product of
    their multiplicities; then advance the last slot."""
    m = 1
    for t, mult in outs:
        row += t
        m *= mult
    outs[-1] = slots[-1].next()
    return (tuple(row[schema.index(v)] for v in out_schema), m)


def _reopen_children(it):
    """(Re)open the product slots under the current view row and position
    each at its first output."""
    if it.current is None:
        it.child_outs = None
        return
    it.child_ctx = ctx = it._ctx + it.current[0]
    for ch in it.children:
        ch.open(ctx)
    it.child_outs = [ch.next() for ch in it.children]


def reference_start(it, ctx):
    """The open of a covering or product node's iterator as it was before
    its cursor was generated (see :func:`skewivm.enumeration.cursor_source`):
    the range read by the ``Relation.scan`` generator, one row ahead, and
    a product's slots opened under its first row."""
    node, info = it.node, it.node.enum
    key = tuple(ctx[info.scope.index(node.schema[p])] for p in info.range_positions)
    it._range = node.content.scan(info.range_positions, key)
    it.current = next(it._range, None)
    if not info.covering:
        _reopen_children(it)


def reference_step(it):
    """One ``next()`` of a covering or product node's iterator, interpreted:
    a covering node returns its current row's output and reads the next
    row from the scan; a product node rolls its odometer, composes the row
    and the slots' outputs, and moves the row on once the slots are
    exhausted."""
    node, info = it.node, it.node.enum
    if info.covering:
        if it.current is None:
            return None
        row, m = it.current
        it.current = next(it._range, None)
        return (tuple(row[node.schema.index(v)] for v in info.out_schema), m)
    while it.current is not None:
        if _odometer(it.children, it.child_outs, it.child_ctx):
            schema = sum((n.enum.out_schema for n in info.slots), node.schema)
            return _product_row(it.children, it.child_outs, it.current[0],
                                schema, info.out_schema)
        it.current = next(it._range, None)
        _reopen_children(it)
    return None


def reference_heavy(node):
    """A grounded node's read of H under a context, by ``Relation.scan``."""
    info = node.enum
    h = node.children[info.heavy_idx].content
    positions = h.positions(set(info.ctx_order) & set(h.schema))

    def heavy(ctx):
        key = tuple(ctx[info.ctx_order.index(h.schema[p])] for p in positions)
        return [row for row, _ in h.scan(positions, key)]

    return heavy


def reference_result_step(head_vars):
    """A result iterator's ``next()`` as the odometer over its components."""
    def step(it):
        outs = list(it._outs)
        schema = sum((c.out_schema for c in it.components), ())
        out = (_product_row(it.components, outs, (), schema, head_vars)
               if _odometer(it.components, outs, ()) else None)
        it._outs = tuple(outs)
        return out

    return step


def use_reference_cursor(st):
    """Make every iterator over ``st`` enumerate through the interpreted
    cursor: each annotated node's ``start``, ``step`` and ``heavy``, and the
    state's result step."""
    for tree in st.trees:
        for node in tree.nodes:
            info = node.enum
            if info is not None:
                info.start, info.step = reference_start, reference_step
                if info.heavy_idx is not None:
                    info.heavy = reference_heavy(node)
    st.result_step = reference_result_step(st.query.head_vars)
