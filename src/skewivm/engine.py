"""Engine state: preprocessing, single-tuple updates, and rebalancing.

The maintained object is a tuple (epsilon, threshold base M, result view
trees, indicator triples).  The trees share their views: they are interned
into one DAG (:class:`ViewDag`) that holds each distinct view once, and a
leaf delta reaches every view above the leaf in one pass: in dynamic mode,
each leaf's steps are compiled at preprocessing into one straight-line
*trigger* that folds every view's delta and writes it into the view's
relation.  Each relation symbol's whole update pass is compiled too, into
one straight-line *update pass* over the symbol's occurrences: the base
writes, the All and L root reads, the light-path branch with its changes
to the light parts' key sets, the H settle and the minor checks.  The
layers that tracing wraps by name (``_light_path_conditions``, ``_apply``,
``_update_ind_tree``, ``_h_all_change``, ``_h_light_change``,
``_minor_rebalancing``) stay methods that the pass calls through the state,
so each keeps its per-layer span.

A light part is its key set, a 0/1 relation over its keys; its leaves
read their occurrence's relation through it.  Preprocessing at database
size N fixes M = 2N + 1 and partitions with threshold M^epsilon; updates
keep the size invariant floor(M/4) <= N < M by doubling or halving M with
a *major* rebalancing, and keep the relaxed partition conditions per key by
moving single keys into or out of a key set with *minor* rebalancing.  A
major brings every light part to its strict partition at the new
threshold: one counted degree pass over each base relation and a read of
each key set find the keys whose side differs, which move through the
same per-tuple light step as a minor; it rebuilds the partition-dependent
views from scratch only when moving would cost more than the paper's
preprocessing bound.  At epsilon = 1 no key can be heavy: the state is the
plain view trees over the base relations, one per component, with no
indicator triple or light part (:func:`skewivm.viewtree.tau`), the full
materialization of classical IVM, and a major only sets the new M.

A single engine state is strictly single-threaded: updates take exclusive
access, and any open iterator is invalidated by a generation counter.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from . import enumeration
from .errors import (
    ArityMismatchError,
    EngineError,
    InvalidMultiplicityError,
    InvariantViolationError,
    MissingRelationError,
    RejectedDeleteError,
    UnhashableValueError,
)
from .metrics import Counters
from .query import ConjunctiveQuery, connected_components, parse_query, require_hierarchical
from .storage import Relation, iceil, key_degrees, strict_partition, whole_row
from .vorder import VariableOrder, canonical_vo, dynamic_width, static_width
from .viewtree import (
    HEAVY_REF,
    LIGHT,
    IndicatorTriple,
    JoinPlan,
    LightPart,
    Route,
    ViewNode,
    compile_pass,
    compile_trigger,
    delta_plan,
    forest_dot,
    intern,
    make_context,
    run_join,
    tau,
    tree_to_dict,
)

Row = tuple
Multiset = dict[Row, int]


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
    all trees, and in dynamic mode the trigger compiled from those steps.

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
        # leaf name -> trigger(delta), which runs the leaf's steps
        self.triggers: dict[str, Callable] = {}

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

    def compile_triggers(self, counters: Counters) -> None:
        """One trigger per leaf, over its steps in ``leaf_paths`` order (see
        :func:`skewivm.viewtree.trigger_source`), crediting ``counters``.
        Each write is unrolled over the indexes its view has now, so this
        runs once every index is registered."""
        self.triggers = {leaf_name: compile_trigger(steps, counters)
                         for leaf_name, steps in self.leaf_paths.items()}


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
        require_hierarchical(query)
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
        # symbol -> its generated update pass, and light part name -> its
        # light step (see :func:`skewivm.viewtree.pass_source`)
        self._passes: dict[str, Callable] = {}
        self._light_steps: dict[str, Callable] = {}
        # a result iterator's step, the product over the components' unions
        # (:func:`skewivm.enumeration.result_cursor`)
        self.result_step: Callable | None = None
        # (M, evict_at, reinsert_below): the relaxed partition bounds at M
        self._bounds: tuple[int, int, int] = (0, 0, 0)
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
            ctx = make_context(q, self.vo, q.free, self.mode, self.epsilon)
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
        for tree in self.trees:
            enumeration.annotate(tree.root, self.query.free)
        self.result_step = enumeration.result_cursor(
            q.head_vars, [comp.trees[0].root.enum.out_schema for comp in self.components])
        if self.mode == "dynamic":
            self.dag.compile_triggers(self.counters)

        self.N = sum(len(db[sym]) for sym in q.symbols())
        self.M = m_override if m_override is not None else 2 * self.N + 1
        if not (self.M // 4 <= self.N < self.M):
            raise EngineError(f"threshold base {self.M} violates the size "
                              f"invariant for N={self.N}")
        self._materialize(self.dag.stages[0], {})
        theta = self._theta()
        self._repartition([(lp, strict_partition(degrees, theta))
                           for _, lp, degrees in self._unsettled_parts()])
        if self.mode == "dynamic":
            self._compile_passes()

    def _attach_relations(self, db: dict[str, Multiset]) -> None:
        """Create the base relations, the light parts' key sets and the H
        supports, give every leaf the relation it reads (a light leaf its
        occurrence's relation, whose rows the folds filter by the part's
        key set) and every view a relation of its own."""
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
        for triple in self.triples:
            triple.h_content = Relation(triple.h_name, triple.keys, counters)
            sources[triple.support_name] = triple.h_content
            for lp in triple.light_parts:
                lp.content = Relation(lp.name, lp.keys, counters)
                lp.base = self.base[lp.atom.symbol]
                lp.base.register_index(lp.key_positions)
                lp.occurrence = self.atom_rels[lp.atom.name]
                sources[lp.name] = lp.occurrence
        for node in self.dag.nodes:
            node.content = (sources[node.leaf_name] if node.is_leaf
                            else Relation(node.name, node.schema, counters))

    def _register_plans(self) -> None:
        """Register the indexes every distinct view's materialization plan
        scans and bind the plan to its children's relations; in dynamic
        mode, also build its delta plans once, register the indexes theirs
        scan, and resolve the DAG's per-leaf propagation steps, which the
        triggers compile."""
        delta_plans: dict[tuple[int, int], JoinPlan] = {}
        for node in self.dag.views:
            plans = [node.plan]
            if self.mode == "dynamic":
                for i in range(len(node.children)):
                    dplan = delta_plans[id(node), i] = delta_plan(node, i)
                    plans.append(dplan)
            for plan in plans:
                for step in plan.steps:
                    if step.mode == "scan":
                        node.children[step.child_index].content.register_index(
                            step.child_positions)
            node.plan.bind(node.children)
        if self.mode == "dynamic":
            self.dag.resolve_paths(delta_plans)

    def _compile_passes(self) -> None:
        """One update pass per symbol, over its occurrences in query order,
        each with the (triple, light part) pairs that partition it, and the
        light step of every light part (:func:`skewivm.viewtree.compile_pass`).
        A pass writes the indexes its relations have now, as a trigger does,
        so this runs once every index is registered."""
        pairs: dict[str, list[tuple[IndicatorTriple, LightPart]]] = {}
        for triple in self.triples:
            for lp in triple.light_parts:
                pairs.setdefault(lp.atom.name, []).append((triple, lp))
        for sym, base in self.base.items():
            routes: list[Route] = [
                (atom.name, self.atom_rels[atom.name], tuple(pairs.get(atom.name, ())))
                for atom in self.query.occurrences(sym)]
            self._passes[sym], steps = compile_pass(self.counters, self.dag, base, routes)
            self._light_steps.update(steps)

    # -- loading + materialization ------------------------------------

    def _theta(self) -> float:
        return float(self.M) ** self.epsilon

    def _unsettled_parts(self) -> Iterator[tuple[IndicatorTriple, LightPart, dict]]:
        """Each light part, which may differ from its strict partition at
        the current threshold, with the key degrees of its base relation
        (:meth:`Relation.degrees`: the bucket sizes of its key index, in its
        key order), which give the part's own degrees of the keys in its key
        set too; the caller takes the strict key set from them
        (:func:`strict_partition`).  Counted as one pass over the base
        relation and one over the key set, one op per entry.  (At
        preprocessing the key set is still empty, so the pass reads the
        base relation alone.)"""
        for triple in self.triples:
            for lp in triple.light_parts:
                rel = lp.base
                self.counters.storage_ops += len(rel.entries) + len(lp.content.entries)
                yield triple, lp, rel.degrees(lp.key_positions)

    def _repartition(self, parts: list[tuple[LightPart, dict]]) -> None:
        """Load each of ``parts``, a light part with its strict key set
        (:func:`strict_partition`), with that key set, and recompute from
        the leaves every view that reads a light part or H, H in between.
        A view that starts from a light leaf reads its part's rows through
        the key set (:func:`start_rows`).  The views over base relations
        alone do not depend on the partition and stay as they are."""
        for lp, keys in parts:
            lp.content.load(keys)
        light: dict[ViewNode, list] = {}
        self._materialize(self.dag.stages[1], light)
        for triple in self.triples:
            self._rebuild_h(triple)
        self._materialize(self.dag.stages[2], light)

    def _materialize(self, views: list[ViewNode], light: dict[ViewNode, list]) -> None:
        """Recompute ``views`` in order.  A light leaf that several of them
        start at is read once (:func:`start_rows`): ``light`` keeps its rows
        by leaf, across the calls that share it."""
        for node in views:
            start = node.children[node.plan.start_index]
            if start.part is not None and start not in light:
                light[start] = start_rows(start)
            materialize_node(node, node.plan, light.get(start))

    def _rebuild_h(self, triple: IndicatorTriple) -> None:
        light_support = triple.light_root.content.entries
        triple.h_content.load({k: 1 for k in triple.all_root.content.entries
                               if k not in light_support})

    # ------------------------------------------------------------------
    # updates (dynamic mode)
    # ------------------------------------------------------------------

    def on_update(self, symbol: str, row: Row, mult: int) -> None:
        """Process one single-tuple update end to end: the symbol's update
        pass (delta propagation, indicator maintenance and, unless a major
        follows, the minor checks), then a major rebalancing if the size
        invariant broke."""
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

        if old == 0:
            self.N += 1
        elif old + mult == 0:
            self.N -= 1
        N, M = self.N, self.M
        if N == M or N < M // 4:
            self._passes[symbol](self, row, mult, None)
            self.M = 2 * M if N == M else M // 2 - 1
            self._major_rebalancing()
        else:
            bounds = self._bounds
            if bounds[0] != M:
                theta = self._theta()
                bounds = self._bounds = (M, iceil(1.5 * theta), iceil(0.5 * theta))
            self._passes[symbol](self, row, mult, bounds)
        self.counters.record_update(self.counters.storage_ops - ops_before)

    def _light_path_conditions(self, conditions: Callable, row: Row) -> tuple[bool, ...]:
        """Pre-update evaluation of the light-path test, by the symbol's
        generated ``conditions``, per (triple, light part) pair of each
        occurrence in query order: the update belongs to the light part
        when its key is new to the base relation or already in its key set.
        Two counted reads per pair.  The update pass calls it
        through the state, so that tracing times it as the route layer."""
        return conditions(row)

    def _apply(self, dag: ViewDag, leaf_name: str, delta: Multiset) -> list[Multiset]:
        """Propagate ``delta`` from the leaf through every view above it by
        the leaf's trigger (:meth:`ViewDag.compile_triggers`), which folds
        each view's delta and writes it into the view's relation; returns
        the deltas in the order of ``dag.leaf_paths[leaf_name]`` (empty
        where a delta died out, and no step at all for an unknown leaf).
        The caller has already written ``delta`` into the relation the leaf
        reads.  The update passes call it through the state, as they call
        every other layer that tracing times, so that it stays one call
        per leaf delta."""
        return dag.triggers.get(leaf_name, _no_steps)(delta)

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
    # of All or L at ``key`` and returns the delta it made to H, which the
    # caller propagates (see :func:`skewivm.viewtree.pass_source`).

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
        so the degree pass of :meth:`_unsettled_parts` gives the strict key
        set (:func:`strict_partition`), and the keys in which it differs
        from the current one are inserted, then evicted, one tuple at a
        time, at O(M^(delta*eps)) each, in key order (the strict set's, the
        base relation's key index order, for keys entering the light part,
        the current set's for keys leaving it): the order in which keys
        first came in and stayed.  When the k tuples to move would cost more
        than a rebuild, k * M^(delta*eps) > M^(1+(w-1)*eps), the light parts
        are loaded and the views that depend on them recomputed instead.
        The All trees do not depend on the partition and stay as they are.
        At eps=1 the state has no light part
        (:func:`skewivm.viewtree.tau`), so a major only sets the new M and
        costs no ops."""
        self.counters.major_rebalances += 1
        theta = self._theta()
        parts, moves = [], []
        tuples = 0
        for triple, lp, degrees in self._unsettled_parts():
            strict = strict_partition(degrees, theta)
            parts.append((lp, strict))
            light = lp.content.entries
            moved = [(key, True) for key in strict if key not in light]
            moved += [(key, False) for key in light if key not in strict]
            moves += [(triple, lp, key, insert) for key, insert in moved]
            tuples += sum(degrees[key] for key, _ in moved)
        if self._widths is None:
            self._widths = (static_width(self.query), dynamic_width(self.query))
        w, delta = self._widths
        eps = self.epsilon
        if tuples * self.M ** (delta * eps) > self.M ** (1 + (w - 1) * eps):
            self._repartition(parts)
            return
        for move in moves:
            self._move_key(*move)

    def _minor_rebalancing(self, triple: IndicatorTriple, lp: LightPart,
                           key: Row, insert: bool) -> None:
        """Migrate one key that crossed its relaxed degree bound."""
        self.counters.minor_rebalances += 1
        self._move_key(triple, lp, key, insert)

    def _move_key(self, triple: IndicatorTriple, lp: LightPart,
                  key: Row, insert: bool) -> None:
        """Move every base tuple matching ``key`` into or out of the light
        part: flip the key's membership of the part's key set, one op, then propagate its
        tuples one signed single-tuple delta at a time, by the light part's
        generated light step: the step an update on the light path runs,
        with no All transition."""
        step = self._light_steps[lp.name]
        if insert:
            lp.content.entries[key] = 1
        else:
            del lp.content.entries[key]
        self.counters.storage_ops += 1
        for row, base_mult in list(lp.base.scan(lp.key_positions, key)):
            step(self, row, base_mult if insert else -base_mult, key, 0)

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
    # invariants (used by tests and --verify)
    # ------------------------------------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Raise :class:`InvariantViolationError` unless the size invariant,
        the relaxed partition conditions and every H support hold, every H
        entry and each light part's key set entry is 1 and every light key is
        in the base (with ``deep``,
        also every view's content and every relation's indexes)."""
        if self.mode == "dynamic" and not self.M // 4 <= self.N < self.M:
            raise InvariantViolationError(
                f"size invariant broken: M={self.M} N={self.N}")
        m_eps = self._theta()
        light_cap = iceil(1.5 * m_eps)
        heavy_floor = 0.5 * m_eps
        for triple in self.triples:
            for lp in triple.light_parts:
                light_keys = lp.content.entries
                base_keys = key_degrees(lp.base.entries, lp.key_positions)
                for key, one in light_keys.items():
                    if one != 1:
                        raise InvariantViolationError(f"{lp.name}: an entry is not 1")
                    if key not in base_keys:
                        raise InvariantViolationError(
                            f"{lp.name}: light key {key} not in base")
                    if base_keys[key] >= light_cap:
                        raise InvariantViolationError(f"{lp.name}: light key {key} has "
                                                      f"degree {base_keys[key]} >= {light_cap}")
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
        relation, every view equals its from-children recomputation, and
        every relation's indexes equal their recomputation from its
        entries: a trigger writes the indexes a view had when it was
        compiled, so one registered later would go stale."""
        relations = [*self.atom_rels.values(), *(node.content for node in self.dag.nodes)]
        relations.extend(triple.h_content for triple in self.triples)
        for rel in {id(rel): rel for rel in relations}.values():
            if rel.indexes != rel.rebuilt_indexes():
                raise InvariantViolationError(f"{rel.name}: an index diverged from the entries")
        for atom in self.query.atoms:
            if self.atom_rels[atom.name].entries != self.base[atom.symbol].entries:
                raise InvariantViolationError(
                    f"{atom.name}: occurrence relation diverged from {atom.symbol}")
        for node in self.dag.views:
            outer = node.children[node.plan.start_index]
            expected = run_join(node.plan, node.children, start_rows(outer))
            if node.content.entries != expected:
                raise InvariantViolationError(
                    f"{node.name}: content diverged from recomputation")

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


def materialize_node(node: ViewNode, plan: JoinPlan, rows=None) -> None:
    """Recompute ``node.content`` from the children (leaves untouched) by
    :func:`run_join`, from ``rows``, the plan's outer child's
    :func:`start_rows` already read, or else from reading them."""
    if rows is None:
        rows = start_rows(node.children[plan.start_index])
    node.content.load(run_join(plan, node.children, rows))


def start_rows(node: ViewNode):
    """The ``(row, multiplicity)`` pairs a fold that starts at ``node``
    reads, counted as :meth:`Relation.scan` counts them: for a light leaf,
    its key set's buckets of the base relation's key index, in key set
    order, one op per key and one per row; for any other node, its
    entries, one op each."""
    rel, part = node.content, node.part
    if part is None:
        rel.counters.storage_ops += len(rel.entries)
        return rel.entries.items()
    keys, entries, positions = part.content.entries, part.base.entries, part.key_positions
    index = part.base.indexes.get(positions)
    if index is None:  # the key is the whole schema: one get per key
        rows = [(row, entries[row]) for key in keys for row in (whole_row(positions, key),)]
        rel.counters.storage_ops += len(keys)
    else:
        rows = [(row, entries[row]) for key in keys for row in index[key]]
        rel.counters.storage_ops += len(keys) + len(rows)
    return rows


def _no_steps(delta: Multiset) -> list[Multiset]:
    """The trigger of a leaf that no view reads."""
    return []


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
