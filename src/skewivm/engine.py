"""Engine state: preprocessing, single-tuple updates, and rebalancing.

The maintained object is a tuple (epsilon, threshold base M, result view
trees, indicator triples).  The trees share their views: they are interned
into one DAG (:class:`ViewDag`) that holds each distinct view once, and a
leaf delta reaches every view above the leaf in one pass.  Preprocessing at database size N fixes
M = 2N + 1 and partitions with threshold M^epsilon; updates keep the size
invariant floor(M/4) <= N < M by doubling or halving M with a *major*
rebalancing, and keep the relaxed partition conditions per key by migrating
single keys between light and heavy with *minor* rebalancing.  A major
brings every light part to its strict partition at the new threshold: one
counted degree pass over each base relation and its light part finds the
keys whose side differs, which move through the same per-tuple path as a
minor; it rebuilds the partition-dependent views from scratch only when
moving would cost more than the paper's preprocessing bound.

A single engine state is strictly single-threaded: updates take exclusive
access, and any open iterator is invalidated by a generation counter.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from . import enumeration
from .errors import (
    ArityMismatchError,
    EngineError,
    InvalidMultiplicityError,
    InvariantViolationError,
    MissingRelationError,
    NotHierarchicalError,
    RejectedDeleteError,
    UnhashableValueError,
)
from .metrics import Counters
from .query import ConjunctiveQuery, connected_components, hierarchy_violation, parse_query
from .storage import Relation, iceil, key_degrees, strict_partition
from .vorder import VariableOrder, canonical_vo, dynamic_width, static_width
from .viewtree import (
    HEAVY_REF,
    LIGHT,
    IndicatorTriple,
    JoinPlan,
    LightPart,
    ViewNode,
    delta_plan,
    forest_dot,
    intern,
    make_context,
    materialize_node,
    run_join,
    tau,
    tree_to_dict,
)

Row = tuple
Multiset = dict[Row, int]
# one occurrence of a symbol: its leaf name, its relation, and the (triple,
# light part) pairs that partition it
Route = tuple[str, Relation, tuple[tuple[IndicatorTriple, LightPart], ...]]


class ViewTree:
    """One rooted tree of the interned forest: its root, its nodes in
    postorder and its leaves by leaf name.  Its nodes may be shared with
    other trees, which hold the same views."""

    def __init__(self, root: ViewNode, tag: str):
        self.root = root
        self.tag = tag
        # children before their parent, the order views are computed in
        self.nodes = root.postorder()
        self.leaves: dict[str, ViewNode] = {}
        for node in self.nodes:
            if node.is_leaf:
                if node.leaf_name in self.leaves:
                    raise InvariantViolationError(
                        f"duplicate leaf {node.leaf_name} in tree {tag}")
                self.leaves[node.leaf_name] = node


class ViewDag:
    """The interned forest as one DAG: every distinct node once, named
    ``name@tag`` after the first tree that holds it, and per leaf name the
    steps that carry a delta from that leaf to every view above it, across
    all trees.

    A tree holds a leaf name once, so a view has at most one child above a
    given leaf and the views above a leaf form a tree; its steps list each
    view after the child its delta arrives from.  A step is ``(view, delta
    plan of that child, index of the step that wrote the child's delta, or
    -1 for the leaf)``, so each view's delta is computed once and read by
    every parent."""

    def __init__(self, trees: list[ViewTree]):
        self.nodes: list[ViewNode] = []  # children before their parents
        self._parents: dict[int, list[tuple[ViewNode, int]]] = {}
        seen: set[int] = set()
        for tree in trees:
            for node in tree.nodes:
                if id(node) not in seen:
                    seen.add(id(node))
                    node.name = f"{node.name}@{tree.tag}"
                    self.nodes.append(node)
                    for i, child in enumerate(node.children):
                        self._parents.setdefault(id(child), []).append((node, i))
        self.views = [node for node in self.nodes if not node.is_leaf]
        # the views in postorder, split by what they read: base relations
        # only, light parts but no H, and H
        self.stages: tuple[list[ViewNode], ...] = ([], [], [])
        reads: dict[int, set[str]] = {}
        for node in self.nodes:
            if node.is_leaf:
                reads[id(node)] = {node.kind}
            else:
                kinds = reads[id(node)] = set().union(*(reads[id(c)] for c in node.children))
                self.stages[2 if HEAVY_REF in kinds else 1 if LIGHT in kinds else 0].append(node)
        self.leaf_paths: dict[str, list[tuple[ViewNode, JoinPlan, int]]] = {}

    def resolve_paths(self, plans: dict[tuple[int, int], JoinPlan]) -> None:
        """Fill ``leaf_paths`` from the delta plans, keyed by (id of the
        view, index of the child the delta arrives from)."""
        for leaf in self.nodes:
            if not leaf.is_leaf:
                continue
            steps: list[tuple[ViewNode, JoinPlan, int]] = []
            stack = [(leaf, -1)]
            while stack:
                node, src = stack.pop()
                for parent, i in self._parents.get(id(node), ()):
                    steps.append((parent, plans[id(parent), i], src))
                    stack.append((parent, len(steps) - 1))
            self.leaf_paths[leaf.leaf_name] = steps


@dataclass
class Component:
    """Trees and enumeration schema of one connected component."""

    head_vars: tuple[str, ...]
    trees: list[ViewTree]
    triples: list[IndicatorTriple]

    @property
    def roots(self) -> list[ViewNode]:
        return [t.root for t in self.trees]


class EngineState:
    """One maintained database + query; see :func:`preprocess`."""

    def __init__(self, query: ConjunctiveQuery, epsilon: float, mode: str,
                 counters: Counters | None = None):
        if not _is_number(epsilon):
            raise EngineError(f"epsilon {epsilon!r} is not a number")
        if not 0.0 <= epsilon <= 1.0:
            raise EngineError(f"epsilon {epsilon} outside [0, 1]")
        if mode not in ("static", "dynamic"):
            raise EngineError(f"unknown mode {mode!r}")
        pair = hierarchy_violation(query)
        if pair is not None:
            raise NotHierarchicalError(pair)
        self.query = query
        self.epsilon = epsilon
        self.mode = mode
        self.counters = counters or Counters()
        self.generation = 0
        self.M = 0
        self.N = 0
        self.vo: VariableOrder | None = None
        self.components: list[Component] = []
        self.trees: list[ViewTree] = []
        self.triples: list[IndicatorTriple] = []
        # the result trees, then each triple's All and L trees
        self.forest: list[ViewTree] = []
        self.dag: ViewDag | None = None
        self.base: dict[str, Relation] = {}
        # atom name -> the relation its ATOM leaves read: the base relation
        # for a symbol's first occurrence, one relation of its own for each
        # later occurrence of a self-join
        self.atom_rels: dict[str, Relation] = {}
        # symbol -> one route per occurrence of it, in query order
        self._routes: dict[str, tuple[Route, ...]] = {}
        # (static width w, dynamic width delta), computed at the first major
        self._widths: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self, db: dict[str, Multiset], m_override: int | None) -> None:
        q = self.query
        if m_override is not None and not _is_int(m_override):
            raise EngineError(f"threshold base {m_override!r} is not an int")
        if not isinstance(db, Mapping):
            raise EngineError(f"database {type(db).__name__} is not a mapping")
        for sym in q.symbols():
            if sym not in db:
                raise MissingRelationError(sym)
            if not isinstance(db[sym], Mapping):
                raise EngineError(f"{sym}: {type(db[sym]).__name__} is not a "
                                  f"mapping of rows to multiplicities")
        self.vo = canonical_vo(q)
        comps = connected_components(q)

        # one node per distinct view: the result trees are interned first,
        # so their names, kinds and plans are the ones a shared view keeps
        table: dict = {}
        tree_counter = itertools.count()
        for comp, root in zip(comps, self.vo.roots):
            ctx = make_context(q, self.vo, q.free, self.mode)
            trees = []
            for r in tau(ctx, root):
                tag = f"t{next(tree_counter)}"
                trees.append(ViewTree(intern(r, table), tag))
            for triple in ctx.triples:
                tag = f"I{triple.var}"
                triple.all_root = intern(triple.all_root, table)
                triple.light_root = intern(triple.light_root, table)
                triple.all_tree = ViewTree(triple.all_root, f"{tag}a")
                triple.light_tree = ViewTree(triple.light_root, f"{tag}l")
            self.components.append(Component(comp.head_vars, trees, ctx.triples))
            self.trees.extend(trees)
            self.triples.extend(ctx.triples)
        self.forest = list(self.trees)
        for triple in self.triples:
            self.forest.extend([triple.all_tree, triple.light_tree])
        self.dag = ViewDag(self.forest)

        self._attach_relations(db)
        self._register_plans()
        # at eps = 1 every degree is at most N < M, the threshold, so no key
        # is ever heavy and no tree grounds a bucket
        buckets = self.epsilon < 1
        for comp in self.components:
            for tree in comp.trees:
                enumeration.annotate(tree.root, self.query.free, buckets=buckets)

        self.N = sum(len(db[sym]) for sym in q.symbols())
        self.M = m_override if m_override is not None else 2 * self.N + 1
        if not (self.M // 4 <= self.N < self.M):
            raise EngineError(f"threshold base {self.M} violates the size "
                              f"invariant for N={self.N}")
        self._materialize(self.dag.stages[0])
        self._repartition([(lp, d) for _, lp, d, _ in self._unsettled_parts()])

    def _attach_relations(self, db: dict[str, Multiset]) -> None:
        """Create the base relations, light parts and H supports, give every
        leaf the one of them it reads and every view a relation of its own."""
        counters = self.counters
        symbols = self.query.symbols()
        for sym in symbols:
            arity = len(self.query.occurrences(sym)[0].schema)
            for row, m in db[sym].items():
                # the common case inline; any other row gets the full checks,
                # which accept int subclasses and tuple subclasses too
                if not (type(m) is int and m > 0 and type(row) is tuple
                        and len(row) == arity):
                    _check_multiplicity(sym, row, m)
                    _check_row(sym, row, arity)
                    if m <= 0:
                        raise EngineError(f"{sym}: nonpositive input multiplicity for {row}")
        for sym in symbols:
            first, *later = self.query.occurrences(sym)
            rel = Relation(sym, first.schema, counters)
            rel.load(db[sym])  # no index yet: one op per row, as a delta
            self.base[sym] = rel
            self.atom_rels[first.name] = rel
            for atom in later:
                self.atom_rels[atom.name] = Relation(atom.name, atom.schema, counters)
                self.atom_rels[atom.name].load(rel.entries)
        sources = dict(self.atom_rels)
        pairs: dict[str, list[tuple[IndicatorTriple, LightPart]]] = {}
        for triple in self.triples:
            triple.h_content = Relation(triple.h_name, triple.keys, counters)
            sources[triple.support_name] = triple.h_content
            for lp in triple.light_parts:
                lp.content = Relation(lp.name, lp.atom.schema, counters)
                lp.content.register_index(lp.key_positions)
                lp.base = self.base[lp.atom.symbol]
                lp.base.register_index(lp.key_positions)
                pairs.setdefault(lp.atom.name, []).append((triple, lp))
                sources[lp.name] = lp.content
        for sym in symbols:
            self._routes[sym] = tuple(
                (atom.name, self.atom_rels[atom.name], tuple(pairs.get(atom.name, ())))
                for atom in self.query.occurrences(sym))
        for node in self.dag.nodes:
            node.content = (sources[node.leaf_name] if node.is_leaf
                            else Relation(node.name, node.schema, counters))

    def _register_plans(self) -> None:
        """Register the indexes every distinct view's materialization plan
        scans and bind the plan to its children's relations; in dynamic
        mode, also build its delta plans once, register and bind theirs,
        and resolve the DAG's per-leaf propagation steps."""
        delta_plans: dict[tuple[int, int], JoinPlan] = {}
        for node in self.dag.views:
            self._bind_plan(node, node.plan)
            if self.mode == "dynamic":
                for i in range(len(node.children)):
                    dplan = delta_plans[id(node), i] = delta_plan(node, i)
                    self._bind_plan(node, dplan)
        if self.mode == "dynamic":
            self.dag.resolve_paths(delta_plans)

    @staticmethod
    def _bind_plan(node: ViewNode, plan: JoinPlan) -> None:
        for step in plan.steps:
            if step.mode == "scan":
                node.children[step.child_index].content.register_index(step.child_positions)
        plan.bind(node.children)

    # -- loading + materialization ------------------------------------

    def _theta(self) -> float:
        return float(self.M) ** self.epsilon

    def _unsettled_parts(self) -> Iterator[tuple[IndicatorTriple, LightPart, dict, dict]]:
        """Each light part that may differ from its strict partition at the
        current threshold, with the key degrees of its base relation and of
        itself (:meth:`Relation.degrees`: the bucket sizes of the key index
        both hold, in its key order), counted as one pass over each, one op
        per entry.  A part that already holds every tuple of a base relation
        smaller than the threshold is skipped in O(1): every key is light,
        so the part is its own strict partition.  (At preprocessing a light
        part is still empty, so only a part of an empty relation is skipped,
        and the pass reads the base relation alone.)"""
        theta = self._theta()
        for triple in self.triples:
            for lp in triple.light_parts:
                rel, light = lp.base, lp.content
                if len(rel.entries) >= theta or len(light.entries) != len(rel.entries):
                    self.counters.storage_ops += len(rel.entries) + len(light.entries)
                    yield (triple, lp, rel.degrees(lp.key_positions),
                           light.degrees(lp.key_positions))

    def _repartition(self, parts: list[tuple[LightPart, dict]]) -> None:
        """Load each of ``parts``, a light part with its base relation's key
        degrees, with its strict partition, and recompute from the leaves
        every view that reads a light part or H, H in between.  The views
        over base relations alone do not depend on the partition and stay
        as they are."""
        theta = self._theta()
        for lp, degrees in parts:
            lp.content.load(strict_partition(lp.base, lp.key_positions, theta, degrees))
        self._materialize(self.dag.stages[1])
        for triple in self.triples:
            self._rebuild_h(triple)
        self._materialize(self.dag.stages[2])

    def _materialize(self, views: list[ViewNode]) -> None:
        for node in views:
            materialize_node(node, node.plan)

    def _rebuild_h(self, triple: IndicatorTriple) -> None:
        light_support = triple.light_root.content.entries
        triple.h_content.load({k: 1 for k in triple.all_root.content.entries
                               if k not in light_support})

    # ------------------------------------------------------------------
    # updates (dynamic mode)
    # ------------------------------------------------------------------

    def on_update(self, symbol: str, row: Row, mult: int) -> None:
        """Process one single-tuple update end to end: delta propagation,
        indicator maintenance, then major/minor rebalancing as needed."""
        if self.mode != "dynamic":
            raise EngineError("static engine state cannot process updates")
        rel = self.base.get(symbol)
        if rel is None:
            raise MissingRelationError(symbol)
        _check_multiplicity(symbol, row, mult)
        _check_row(symbol, row, len(rel.schema))
        try:
            hash(row)
        except TypeError:
            raise UnhashableValueError(
                f"{symbol}: {row!r} holds an unhashable value") from None
        if mult == 0:
            return
        old = rel.get(row)
        if old + mult < 0:
            raise RejectedDeleteError(
                f"{symbol}: delete of {row} by {mult} exceeds multiplicity {old}")
        ops_before = self.counters.storage_ops
        self.generation += 1

        routes = self._routes[symbol]
        pre = self._light_path_conditions(routes, row)
        rel.add({row: mult})
        if old == 0:
            self.N += 1
        elif old + mult == 0:
            self.N -= 1

        for (leaf_name, occurrence_rel, pairs), light in zip(routes, pre):
            # a later self-join occurrence turns new just before its own
            # pass: each pass sees earlier occurrences new, later ones old
            if occurrence_rel is not rel:
                occurrence_rel.add({row: mult})
            self._update_trees(leaf_name, pairs, row, mult, light)

        if self.N == self.M:
            self.M *= 2
            self._major_rebalancing()
        elif self.N < self.M // 4:
            self.M = self.M // 2 - 1
            self._major_rebalancing()
        else:
            self._minor_checks(routes, row)
        self.counters.record_update(self.counters.storage_ops - ops_before)

    def _light_path_conditions(self, routes: tuple[Route, ...], row: Row) -> list[list[bool]]:
        """Pre-update evaluation of the light-path test per governed part,
        per route and pair: the update belongs to the light part when its
        key is new to the relation or already present in the light part."""
        pre = []
        for _, _, pairs in routes:
            light = []
            for _, lp in pairs:
                key = lp.key_of(row)
                fresh = lp.base.count(lp.key_positions, key) == 0
                in_light = lp.content.count(lp.key_positions, key) > 0
                light.append(fresh or in_light)
            pre.append(light)
        return pre

    def _update_trees(self, leaf_name: str, pairs: tuple, row: Row, mult: int,
                      light: list[bool]) -> None:
        """One occurrence's pass of the update algorithm, after the
        occurrence's relation took the update: propagate it through every
        view above the occurrence's leaf, All roots included, then per
        affected triple, on the light path (``light``, per pair), the light
        part's change, and last the triple's H change, settled once from
        both passes.  No view above a light part reads its triple's H, so
        the light pass does not depend on when H changes."""
        delta = {row: mult}
        keys, before = [], []
        for triple, lp in pairs:
            key = lp.key_of(row)
            keys.append(key)
            before.append(triple.all_root.content.get(key))
        self._apply(self.dag, leaf_name, delta)
        for (triple, lp), key, count, on_light in zip(pairs, keys, before, light):
            d_all = self._update_ind_tree(triple.all_root, key, count)
            d_light = 0
            if on_light:
                lp.content.add(delta)
                d_light = self._light_pass(triple, lp, delta, key)
            self._settle_h(triple, key, d_all, d_light)

    def _light_pass(self, triple: IndicatorTriple, lp: LightPart,
                    delta: Multiset, key: Row) -> int:
        """Propagate a change the light part has taken through every view
        above it, the L root included; returns the L root's support
        transition at ``key`` (+1/-1/0)."""
        before = triple.light_root.content.get(key)
        self._apply(self.dag, lp.name, delta)
        return self._update_ind_tree(triple.light_root, key, before)

    def _apply(self, dag: ViewDag, leaf_name: str, delta: Multiset) -> list[Multiset]:
        """Propagate ``delta``, nonempty, from the leaf through every view
        above it, writing each view's delta into its relation in one call;
        returns the deltas in the order of ``dag.leaf_paths[leaf_name]``
        (empty where a delta died out, and no step at all for an unknown
        leaf).  The caller has already written ``delta`` into the relation
        the leaf reads."""
        out: list[Multiset] = []
        append = out.append
        for node, plan, src in dag.leaf_paths.get(leaf_name, ()):
            current = delta if src < 0 else out[src]
            if current:
                current = run_join(plan, node.children, current.items())
                if current:
                    node.content.add(current)
            append(current)
        return out

    def _update_ind_tree(self, root: ViewNode, key: Row, before: int) -> int:
        """+1/-1 when an indicator root's support of ``key`` appeared/
        disappeared since it held ``before`` there, else 0.  The root may
        be shared with result trees, so the caller reads ``before``, then
        propagates the leaf delta through the whole DAG once."""
        after = root.content.get(key)
        if before == 0 and after > 0:
            return 1
        if before > 0 and after == 0:
            return -1
        return 0

    # H = the support of All outside the support of L, as a set ({key: 1});
    # the two maintenance entry points mirror the two children of the heavy
    # indicator's defining join.  Each takes a support transition (+1/-1/0)
    # of All or L at ``key`` and returns the delta it made to H.

    def _settle_h(self, triple: IndicatorTriple, key: Row, d_all: int, d_light: int) -> None:
        """Write and propagate H's change at ``key`` once both of its
        triple's passes are done: from L's transition if it has one, else
        from All's.  L's support lies inside All's, and where every light
        part holds a key (all of its base tuples) L and All agree on it, so
        when L's support changes All's changes the same way or not at all:
        a key that enters (or leaves) All and L in one update never touches
        H."""
        d_h = (self._h_light_change(triple, key, d_light) if d_light
               else self._h_all_change(triple, key, d_all))
        if d_h:
            self._apply(self.dag, triple.support_name, d_h)

    def _h_all_change(self, triple: IndicatorTriple, key: Row, d_all: int) -> Multiset:
        if d_all == 0 or triple.light_root.content.get(key) != 0:
            return {}
        d_h = {key: d_all}
        triple.h_content.add(d_h)
        return d_h

    def _h_light_change(self, triple: IndicatorTriple, key: Row, d_light: int) -> Multiset:
        # a key entering L leaves H if H has it; one leaving L enters H if
        # All has it
        holder = triple.h_content if d_light > 0 else triple.all_root.content
        if holder.get(key) == 0:
            return {}
        d_h = {key: -d_light}
        triple.h_content.add(d_h)
        return d_h

    # -- rebalancing -----------------------------------------------------

    def _major_rebalancing(self) -> None:
        """Bring every light part to its strict partition at the new
        threshold, which also settles the keys minor rebalancing left in the
        relaxed band.  A light part holds all of a key's base tuples or none,
        so the degree pass of :meth:`_unsettled_parts` gives every key's
        side, and the keys whose side differs are inserted or evicted one
        tuple at a time, at O(M^(delta*eps)) each, in key index order (the
        base relation's for keys entering the light part, the part's own
        for keys leaving it): the order in which keys first came in and
        stayed.  When the k tuples to move would cost more than a rebuild,
        k * M^(delta*eps) > M^(1+(w-1)*eps), the light parts are loaded and
        the views that depend on them recomputed instead.  The All trees do
        not depend on the partition and stay as they are.  A part skipped by
        :meth:`_unsettled_parts` costs nothing (at eps=1 every part is, and
        a major costs no ops)."""
        self.counters.major_rebalances += 1
        theta = self._theta()
        parts, moves = [], []
        tuples = 0
        for triple, lp, degrees, light_degrees in self._unsettled_parts():
            parts.append((lp, degrees))
            for key, degree in degrees.items():
                if degree < theta and key not in light_degrees:
                    moves.append((triple, lp, key, True))
                    tuples += degree
            for key, degree in light_degrees.items():
                if degrees[key] >= theta:
                    moves.append((triple, lp, key, False))
                    tuples += degree
        if self._widths is None:
            self._widths = (static_width(self.query), dynamic_width(self.query))
        w, delta = self._widths
        eps = self.epsilon
        if tuples * self.M ** (delta * eps) > self.M ** (1 + (w - 1) * eps):
            self._repartition(parts)
            return
        for move in moves:
            self._move_key(*move)

    def _minor_checks(self, routes: tuple[Route, ...], row: Row) -> None:
        m_eps = self._theta()
        evict_at = iceil(1.5 * m_eps)
        reinsert_below = iceil(0.5 * m_eps)
        for _, _, pairs in routes:
            for triple, lp in pairs:
                key = lp.key_of(row)
                in_light = lp.content.count(lp.key_positions, key)
                if in_light == 0 and 0 < lp.base.count(lp.key_positions, key) < reinsert_below:
                    self._minor_rebalancing(triple, lp, key, insert=True)
                elif in_light >= evict_at:
                    self._minor_rebalancing(triple, lp, key, insert=False)

    def _minor_rebalancing(self, triple: IndicatorTriple, lp: LightPart,
                           key: Row, insert: bool) -> None:
        """Migrate one key that crossed its relaxed degree bound."""
        self.counters.minor_rebalances += 1
        self._move_key(triple, lp, key, insert)

    def _move_key(self, triple: IndicatorTriple, lp: LightPart,
                  key: Row, insert: bool) -> None:
        """Move every base tuple matching ``key`` into or out of the light
        part, one signed single-tuple delta at a time."""
        rows = list(lp.base.scan(lp.key_positions, key))
        for row, base_mult in rows:
            delta = {row: base_mult if insert else -base_mult}
            lp.content.add(delta)
            self._settle_h(triple, key, 0, self._light_pass(triple, lp, delta, key))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def enumerate_result(self) -> enumeration.ResultIterator:
        return enumeration.ResultIterator(self)

    def result_multiset(self) -> Multiset:
        """The enumerated result as a map; raises
        :class:`InvariantViolationError` if a tuple is emitted twice."""
        out: Multiset = {}
        for row, m in self.enumerate_result():
            if row in out:
                raise InvariantViolationError(f"result tuple {row} emitted twice")
            out[row] = m
        return out

    def db_snapshot(self) -> dict[str, Multiset]:
        return {sym: dict(rel.entries) for sym, rel in self.base.items()}

    # ------------------------------------------------------------------
    # invariants + state comparison (used by tests and --verify)
    # ------------------------------------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Raise :class:`InvariantViolationError` unless the size invariant,
        the relaxed partition conditions and every H support hold, every H
        entry is 1 (with ``deep``, also every view's content)."""
        if self.mode == "dynamic" and not self.M // 4 <= self.N < self.M:
            raise InvariantViolationError(
                f"size invariant broken: M={self.M} N={self.N}")
        m_eps = self._theta()
        light_cap = iceil(1.5 * m_eps)
        heavy_floor = 0.5 * m_eps
        for triple in self.triples:
            for lp in triple.light_parts:
                light_keys = key_degrees(lp.content.entries, lp.key_positions)
                base_keys = key_degrees(lp.base.entries, lp.key_positions)
                for key, deg in light_keys.items():
                    if deg >= light_cap:
                        raise InvariantViolationError(
                            f"{lp.name}: light key {key} has degree {deg} >= {light_cap}")
                    if key not in base_keys:
                        raise InvariantViolationError(
                            f"{lp.name}: light key {key} not in base")
                for key, deg in base_keys.items():
                    if key not in light_keys and deg < heavy_floor:
                        raise InvariantViolationError(
                            f"{lp.name}: heavy key {key} has base degree {deg} < {heavy_floor}")
            all_supp = set(triple.all_root.content.entries)
            light_supp = set(triple.light_root.content.entries)
            h_supp = set(triple.h_content.entries)
            if h_supp != all_supp - light_supp:
                raise InvariantViolationError(f"{triple.h_name}: support mismatch")
            if any(m != 1 for m in triple.h_content.entries.values()):
                raise InvariantViolationError(f"{triple.h_name}: an entry is not 1")
        if deep:
            self._check_contents()

    def _check_contents(self) -> None:
        """Every later self-join occurrence's relation equals its base
        relation, and every view equals its from-children recomputation."""
        for atom in self.query.atoms:
            if self.atom_rels[atom.name].entries != self.base[atom.symbol].entries:
                raise InvariantViolationError(
                    f"{atom.name}: occurrence relation diverged from {atom.symbol}")
        for node in self.dag.views:
            plan = node.plan
            outer = node.children[plan.start_index]
            expected = run_join(plan, node.children,
                                list(outer.content.entries.items()))
            if node.content.entries != expected:
                raise InvariantViolationError(
                    f"{node.name}: content diverged from recomputation")

    def fingerprint(self) -> dict:
        """Exact content map for state-equality comparisons."""
        out: dict = {"M": self.M, "N": self.N}
        for triple in self.triples:
            out[triple.h_content.name] = _freeze(triple.h_content.entries)
            for lp in triple.light_parts:
                out[lp.content.name] = _freeze(lp.content.entries)
        for node in self.dag.nodes:
            out[node.name] = _freeze(node.content.entries)
        return out

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------

    def plan_json(self) -> list[dict]:
        out = []
        for ci, comp in enumerate(self.components):
            out.append({
                "component": ci,
                "head_vars": list(comp.head_vars),
                "trees": [tree_to_dict(t.root) for t in comp.trees],
                "indicators": [
                    {"var": tr.var, "keys": list(tr.keys),
                     "all": tree_to_dict(tr.all_root),
                     "light": tree_to_dict(tr.light_root),
                     "heavy": tr.h_name}
                    for tr in comp.triples
                ],
            })
        return out

    def view_counts(self) -> dict[str, int]:
        """View positions summed over the result, All and L trees, and the
        distinct views of the DAG that holds them."""
        return {"positions": sum(1 for tree in self.forest
                                 for node in tree.nodes if not node.is_leaf),
                "distinct": len(self.dag.views)}

    def dot(self) -> str:
        named = [(t.tag, t.root) for t in self.trees]
        return forest_dot(named, self.triples)


def _is_int(x: object) -> bool:
    """An ``int`` that is not a ``bool`` (an ``int`` subclass, but no
    count)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: object) -> bool:
    return _is_int(x) or isinstance(x, float)


def _check_multiplicity(symbol: str, row: Row, m: object) -> None:
    """Reject a multiplicity that is not an ``int``."""
    if not _is_int(m):
        raise InvalidMultiplicityError(
            f"{symbol}: multiplicity {m!r} of {row} is not an int")


def _check_row(symbol: str, row: object, arity: int) -> None:
    """Reject a row that is not a tuple of ``arity`` values."""
    if not isinstance(row, tuple) or len(row) != arity:
        raise ArityMismatchError(f"{symbol}: {row!r} is not a tuple of arity {arity}")


def _freeze(entries: Multiset) -> tuple:
    return tuple(sorted(entries.items(), key=repr))


def preprocess(query: ConjunctiveQuery | str, db: dict[str, Multiset],
               epsilon: float, mode: str = "dynamic",
               m_override: int | None = None,
               counters: Counters | None = None) -> EngineState:
    """Build and materialize an engine state for ``query`` over ``db``.

    ``db`` maps each relation symbol to its tuple -> multiplicity map.  The
    threshold base defaults to 2N + 1.  ``mode`` selects between the static
    trees (enumeration only) and the dynamic trees (auxiliary views for
    constant-time sibling lookups; updates allowed).
    """
    if isinstance(query, str):
        query = parse_query(query)
    state = EngineState(query, epsilon, mode, counters)
    state._build(db, m_override)
    return state
