"""Distinct-tuple enumeration with multiplicities over materialized forests.

Iterators follow the open/next/close model.  Opening a tree ranges its root
view over the tuples agreeing with the parent context; a view whose schema
already covers every free variable below it is enumerated directly; a view
with a heavy-indicator child is *grounded* into one bucket per heavy key,
and those buckets are merged by the union algorithm.
Grounding scans only the heavy keys, and a bucket starts *pending*: it is
its scope, the context followed by the heavy key, and nothing more.  It
becomes an iterator (a shallow copy that ranges the view under that scope
and opens its children) only when it starts: on its first ``next()``, or
when a lookup reads a grounded descendant through it.  The union advances
only a member whose lookup hits, and a lookup reads a pending bucket
through its scope alone, so a bucket the enumeration never reads is never
started.  A lookup does not depend on where any cursor stands: it reads a
grounded descendant through the live iterator only when that iterator is
grounded under the context the looked-up tuple itself gives, and otherwise
grounds the descendant afresh under it.  The probed iterator (for a
bucket, pending or started, the iterator that grounded it) keeps such a
descendant, keyed by plan path and context (which holds the bucket's heavy
key), until it is reopened or closed, so each is grounded once per open.

Contexts and tuples are positional.  A node's context is a tuple laid out by
``enum.ctx_order``: the scope of the view whose product slot it fills (its
parent, or the view above the pass-through views it replaces) followed by
that view's current row.
A node's *scope* (``enum.scope``) is the context it ranges its view under:
the context itself, or for a bucket the context followed by the heavy key.
A variable may occur more than once in a layout; its values agree, and every
projection reads its first occurrence.  :func:`annotate` compiles each
projection once per node into an ``itemgetter``: the range key, the output
tuple of a covering view and the product's output.  It also compiles a
lookup at the node into a *probe* (:func:`_compile_plan`): one generated
straight-line ``probe(owner, k, c, t)`` (:func:`probe_source`) that reads
the views the lookup reads, in preorder, one ``entries.get`` each at a key
written as a tuple display over the scope ``c`` and the looked-up tuple
``t``, stops at the first zero and multiplies the covering views'
multiplicities.  A grounded descendant is one call into
:meth:`TreeIter._descend`.  A probe factory is compiled once per process
per plan shape and bound per node.  Opening, advancing and looking up then
build no dicts, and a lookup is one Python call per grounded iterator it
reaches, not one per view.

A grounded node also gets a *bucket selector* (:func:`_compile_selector`)
when one of its plan's views is keyed by the heavy key and by the
looked-up tuple: an index on that view by the rest of its key.  The
candidates for ``t`` at a grounded iterator with at least 3 buckets
(:meth:`TreeIter._named`, the one routine that reads the selector) come
from the index bucket of ``t`` (1 op to fetch): a bucket whose heavy key
no row there carries reads that view at an absent key, so its term is 0.
If ``2 * rows + 1 <= buckets``, the rows are read (1 op each) and only the
buckets they name are candidates; otherwise every bucket is.  A lookup
runs the probe over the candidates.  A skipped bucket costs at least one
get, so a narrowed lookup never costs more than probing every bucket, and
any lookup at most the fetch more.  This is the intersection rule of
worst-case-optimal joins: iterate the smaller side, probe the larger.

Sibling subtrees under one view row, and the components of the result,
combine through one product routine: :func:`_odometer` restarts an exhausted
slot under the shared context and advances the slot before it, and
:func:`_product_row` composes the output tuple and multiplies the slots'
multiplicities.  A product slot skips *pass-through* views (:func:`_resolve`):
a view that is not covering, has one child, which is not the heavy
indicator, and whose schema lies within the slot's context.  Such a view is
ranged at one point and only passes its context on; at rest it is nonzero
exactly where its child has a row agreeing with the context, and a
non-covering view's own multiplicity is never read.  So the slot opens its
child (or the first descendant that is not such a view) in its place, and
no probe plan reads it either.  On fc4 these are the aux views
``V_B'(A)`` and ``V_E'(A)`` under each root.

A union emits each distinct tuple once (Durand & Strozecki's rule).  The
tuple drawn so far survives member i when member i's lookup of it is 0;
otherwise it is dropped, as member i's own cursor will reach it later, and
member i's next tuple takes its place.  The tuple that survives every member
carries the index of the member whose cursor drew it, and its total is
taken once, when it is returned: its own multiplicity plus one lookup
into each earlier member.  A later member needs none, as its survival
lookup answered 0.  With n members that all hold every tuple, a row costs
2(n-1) lookups.  The union of a grounded iterator's buckets applies the
rule to the candidates of each tuple it draws only: every other bucket's
lookup is 0, so it would neither drop the tuple nor add to its total, and
the rows come out as the unguided union gives them.  A row then costs its
fetches and about one lookup per bucket that can hold its tuple, not one
per bucket.  The union asks the selector only where the index buckets
hold few rows on average (``2 * rows / keys + 1 <= buckets``); where they
are fuller, a fetch would rarely narrow and every bucket is a candidate.
It also skips the buckets it has found exhausted since the open.  Bucket
iterators are shallow: they share view contents and own only cursor state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable

from .errors import CallBeforeOpenError, InvariantViolationError, IteratorInvalidatedError
from .storage import projection
from .viewtree import HEAVY_REF, ViewNode, _compiled

Row = tuple

# probe shape -> probe factory, compiled once per process
_PROBES: dict[tuple, Callable] = {}


class EnumInfo:
    """Static per-node facts and compiled projections used by the iterators
    (computed once)."""

    __slots__ = ("ctx_order", "scope", "out_schema", "covering", "heavy_idx",
                 "h_positions", "h_key", "range_positions", "range_key",
                 "out_of", "slots", "compose", "plan", "probe", "selector",
                 "selector_rows", "h_varying")

    def __init__(self) -> None:
        self.heavy_idx = None
        self.covering = False
        self.selector = None


def annotate(root: ViewNode, free: frozenset[str],
             ctx_order: tuple[str, ...] = (), buckets: bool = True) -> None:
    """Fill ``node.enum`` for every node reachable during enumeration and
    register the sigma-range indexes the iterators will use.  A node shared
    by several trees is annotated once; it must be reached under the same
    context layout every time.  With ``buckets`` false no heavy key can
    exist, a grounded node never holds a bucket, and no bucket selector is
    compiled (nor its index registered).  No light leaf is reached: only
    the join folds read a light leaf's rows, through its part's key set
    (see :func:`skewivm.viewtree.light_key`)."""
    if root.part is not None:
        raise InvariantViolationError(f"{root.name}: a light leaf is enumerated")
    if root.enum is not None:
        if root.enum.ctx_order != ctx_order:
            raise InvariantViolationError(
                f"{root.name}: shared view reached under contexts "
                f"{root.enum.ctx_order} and {ctx_order}")
        return
    info = EnumInfo()
    root.enum = info
    info.ctx_order = info.scope = ctx_order
    schema, ctx_vars = root.schema, set(ctx_order)
    info.range_positions = root.content.positions(ctx_vars & set(schema))

    subtree_vars = {v for n in root.postorder() for v in n.schema}
    fvars = free & subtree_vars
    info.out_schema = tuple(sorted(fvars))

    pinned = set(schema) <= (ctx_vars | fvars)
    if root.is_leaf or (fvars <= set(schema) and pinned):
        # direct enumeration needs every non-output schema variable pinned by
        # the context, otherwise projections could repeat
        if root.is_leaf and not pinned:
            raise InvariantViolationError(f"{root.name}: leaf not pinned by context")
        info.covering = True
        info.out_of = projection(tuple(schema.index(v) for v in info.out_schema))
        root.content.register_index(info.range_positions)
        info.range_key = _getter(info.scope, schema, info.range_positions)
        _compile_plan(info, root)
        return

    for i, c in enumerate(root.children):
        if c.kind == HEAVY_REF:
            info.heavy_idx = i
            info.h_positions = c.content.positions(ctx_vars & set(c.schema))
            info.h_key = _getter(ctx_order, c.schema, info.h_positions)
            c.content.register_index(info.h_positions)
            # a grounded bucket ranges over the context plus the heavy key,
            # and the grounded view itself is never ranged over the context
            info.scope = ctx_order + c.schema
            info.range_positions = root.content.positions(set(info.scope) & set(schema))
    root.content.register_index(info.range_positions)
    info.range_key = _getter(info.scope, schema, info.range_positions)
    # the product slots: each child but the heavy indicator, resolved
    # through pass-through views
    layout = info.scope + schema
    info.slots = tuple(_resolve(c, free, set(layout))
                       for i, c in enumerate(root.children) if i != info.heavy_idx)
    for n in info.slots:
        annotate(n, free, layout, buckets)
    info.compose = _compose(root.name, info.out_schema, schema,
                            [n.enum.out_schema for n in info.slots])
    views = _compile_plan(info, root)
    if info.heavy_idx is not None and buckets:
        _compile_selector(info, root.children[info.heavy_idx].schema, views)


def _resolve(node: ViewNode, free: frozenset[str], ctx_vars: set[str]) -> ViewNode:
    """The node a product slot enumerates: ``node`` itself, or below a
    pass-through view its only child.  A view passes through when it is
    not covering, has one child, which is not the heavy indicator, and
    its schema lies within the context.  Its range is then one point, and
    at rest it is nonzero exactly where its child has a row agreeing with
    the context; a non-covering view's own multiplicity is never read, so
    the slot enumerates, and a lookup reads, the child in its place."""
    while (len(node.children) == 1 and node.children[0].kind != HEAVY_REF
           and ctx_vars.issuperset(node.schema)):
        schema = set(node.schema)
        if all(v in schema for n in node.postorder() for v in n.schema if v in free):
            break  # covering: the slot enumerates its rows directly
        node = node.children[0]
    return node


def _getter(layout: tuple[str, ...], schema: tuple[str, ...], positions: tuple[int, ...]):
    """Tuple over ``layout`` -> the values of ``schema`` at ``positions``."""
    return projection(tuple(layout.index(schema[p]) for p in positions))


def _compile_plan(info: EnumInfo, node: ViewNode) -> list[tuple[ViewNode, tuple[int, ...]]]:
    """The probe plan of a lookup at ``node`` and its bound probe
    (``info.plan`` and ``info.probe``).  In preorder,
    one entry per view the lookup reads, ``("get", key, multiplies,
    None)``, down to the covering nodes, and one ``("descend", ctx, share,
    path)`` per grounded descendant, whose live iterator is reached from
    the probed one by the child indexes in ``path``.  It is looked up with
    its ``share`` of ``t`` if its context is ``ctx``, the context ``t``
    gives the descendant, and otherwise an iterator grounded under that
    context is.  Every key, share and context is a tuple of positions in
    ``scope + t``: an output variable comes from ``t``, any other from the
    scope, which holds each of them (a child's scope is its parent's scope
    and row, and a variable bound below is bound in that prefix).  A
    covering view's multiplicity multiplies, any other view entry only has
    to be nonzero.
    Returns the view entries' nodes and key positions, in plan order."""
    scope, out = info.scope, info.out_schema
    in_scope = {v: scope.index(v) for v in scope}
    from_t = {v: len(scope) + i for i, v in enumerate(out)}
    plan, views = [], []

    def visit(n: ViewNode, path: tuple[int, ...]) -> None:
        e = n.enum
        if path and e.heavy_idx is not None:
            plan.append(("descend",
                         tuple(from_t[v] if v in from_t else in_scope[v] for v in e.ctx_order),
                         tuple(from_t[v] for v in e.out_schema), path))
            return
        try:
            key = tuple(from_t[v] if v in e.out_schema else in_scope[v] for v in n.schema)
        except KeyError:
            raise InvariantViolationError(f"{n.name}: view key not bound by context") from None
        views.append((n, key))
        plan.append(("get", key, e.covering, None))
        if not e.covering:
            for k, c in enumerate(e.slots):
                visit(c, path + (k,))

    visit(node, ())
    info.plan = tuple(plan)
    factory = _compiled(_PROBES, (len(scope), info.plan), probe_source, "probe")
    info.probe = factory(node.content.counters, TreeIter._descend,
                         *(n.content.entries.get for n, _ in views))
    return views


def probe_source(shape: tuple) -> str:
    """Python source of the probe factory for ``shape``, the scope's width
    and a probe plan (see :func:`_compile_plan`).  ``factory(counters,
    descend, g0, ...)`` takes the counters the probe credits, the method
    that looks a grounded descendant up and, per view entry, its
    ``entries.get``, and returns ``probe(owner, k, c, t)``: the multiplicity
    of ``t`` in the bucket of ``owner`` at position ``k`` (``None`` for
    ``owner`` itself) whose scope is ``c``.  It makes the entries' gets in
    order, each key a tuple display over ``c`` and ``t``; at the first zero
    it adds the gets made so far to ``counters`` and returns 0, otherwise
    it adds every get and returns the product of the covering views'
    multiplicities and the descendants' lookups."""
    width, plan = shape

    def display(positions: tuple[int, ...]) -> str:
        values = [f"c[{p}]" if p < width else f"t[{p - width}]" for p in positions]
        return f"({values[0]},)" if len(values) == 1 else f"({', '.join(values)})"

    args, body, factors = [], [], []
    gets = 0
    for j, (kind, key, how, path) in enumerate(plan):
        if kind == "get":
            args.append(f"g{j}")
            body.append(f"x{j} = g{j}({display(key)}, 0)")
            gets += 1
            if how:
                factors.append(f"x{j}")
        else:
            body.append(f"x{j} = descend(owner, k, {path!r}, {display(key)}, {display(how)})")
            factors.append(f"x{j}")
        body += [f"if not x{j}:", *([f"    counters.storage_ops += {gets}"] if gets else []),
                 "    return 0"]
    body += [f"counters.storage_ops += {gets}", f"return {' * '.join(factors) or '1'}"]
    return "\n".join([f"def factory(counters, descend{''.join(', ' + a for a in args)}):",
                      "    def probe(owner, k, c, t):", *("        " + text for text in body),
                      "    return probe", ""])


def _compile_selector(info: EnumInfo, heavy_schema: tuple[str, ...],
                      views: list[tuple[ViewNode, tuple[int, ...]]]) -> None:
    """The bucket selector of a grounded node: the first view entry of its
    probe plan whose key reads every *varying* heavy-key variable (one the
    context does not fix) from the scope, and at least one variable of
    ``t`` that the context does not fix.  A bucket's probe reads that view
    at a row whose varying heavy key is the bucket's own, so only the
    buckets named by the view's rows that agree with ``ctx + t`` on the
    key's other positions can be nonzero.  Registers an index on those
    other positions and keeps ``info.selector = (index, key over ctx + t,
    row -> varying heavy key)``, ``info.selector_rows``, the view's
    entries, and ``info.h_varying``, heavy row -> varying heavy key; no
    entry qualifying leaves no selector."""
    ctx, scope, out = info.ctx_order, info.scope, info.out_schema
    varying = [v for v in heavy_schema if v not in ctx]
    if not varying:
        return
    # a varying variable's first occurrence in the scope is in the heavy key
    heavy_at = [scope.index(v) for v in varying]
    shift = len(scope) - len(ctx)
    for n, key in views:
        if not all(k in key for k in heavy_at):
            continue
        rest = tuple(p for p, k in enumerate(key) if k not in heavy_at)
        if not any(key[p] >= len(scope) and out[key[p] - len(scope)] not in ctx
                   for p in rest):
            continue
        n.content.register_index(rest)
        info.selector = (
            n.content.indexes[rest],
            projection(tuple(key[p] - shift if key[p] >= len(ctx) else key[p] for p in rest)),
            projection(tuple(key.index(k) for k in heavy_at)))
        info.selector_rows = n.content.entries
        info.h_varying = projection(tuple(heavy_schema.index(v) for v in varying))
        return


def _compose(name: str, out_schema: tuple[str, ...], row_schema: tuple,
             slot_schemas: list[tuple[str, ...]]):
    """Projection of ``row + out_1 + ... + out_k`` (the view row followed by
    the slots' output tuples) onto ``out_schema``."""
    flat = row_schema + sum(slot_schemas, ())
    for v in out_schema:
        if v not in flat:  # pragma: no cover - construction guarantees coverage
            raise InvariantViolationError(f"{name}: no source for output var {v}")
    return projection(tuple(flat.index(v) for v in out_schema))


def _odometer(slots: list, outs: list, ctx: tuple) -> bool:
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


def _product_row(slots: list, outs: list, row: Row, compose) -> tuple[Row, int]:
    """The product tuple of ``row`` and the slots' current outputs, with the
    product of their multiplicities; then advance the last slot."""
    m = 1
    for t, mult in outs:
        row += t
        m *= mult
    outs[-1] = slots[-1].next()
    return (compose(row), m)


class TreeIter:
    """Cursor state for one view tree (or one started bucket of it)."""

    __slots__ = ("node", "skip_heavy", "opened", "_ctx", "_range", "current",
                 "buckets", "by_key", "spent", "guided", "children",
                 "child_outs", "child_ctx", "foreign")

    def __init__(self, node: ViewNode, skip_heavy: bool = False):
        self.node = node
        self.skip_heavy = skip_heavy
        self.opened = False
        self._ctx: tuple | None = None
        self._range = None
        self.current = None
        # per heavy key, a pending bucket's scope or a started bucket
        self.buckets: list | None = None
        # varying heavy key -> bucket position, with a selector
        self.by_key: dict[tuple, int] | None = None
        self.spent = 0  # buckets before this position are exhausted
        self.guided = False  # the union of the buckets asks the selector
        self.children: list[TreeIter] | None = None
        self.child_outs: list | None = None
        self.child_ctx: tuple | None = None
        # (plan path, context) -> a descendant grounded under a context
        # the live one is not, kept for the life of the open
        self.foreign: dict[tuple, TreeIter] | None = None

    @property
    def ctx(self) -> dict | None:
        """The context as a variable -> value map (for inspection)."""
        if self._ctx is None:
            return None
        info = self.node.enum
        return dict(zip(info.scope if self.skip_heavy else info.ctx_order, self._ctx))

    # -- lifecycle ---------------------------------------------------------

    def open(self, ctx: tuple) -> None:
        """Open under ``ctx``, a tuple laid out by ``enum.ctx_order``
        (``enum.scope`` for a bucket): ground the view, or range it under
        the context and open the product children under its first row.
        Reopening needs no :meth:`close`: this resets every field a
        reopened one reads."""
        self._ctx = ctx
        self.opened = True
        self.buckets = self.by_key = self.children = self.child_outs = None
        self.foreign = None
        info = self.node.enum
        if info.heavy_idx is not None and not self.skip_heavy:
            self._range = None
            self._ground(ctx)
            return
        self._range = self.node.content.scan(info.range_positions, info.range_key(ctx))
        self.current = next(self._range, None)
        if info.covering:
            return
        self.children = [TreeIter(n) for n in info.slots]
        self._reopen_children()

    def _ground(self, ctx: tuple) -> None:
        """One pending bucket, its scope, per heavy key under ``ctx``.
        With a selector and at least 3 buckets, also the bucket positions
        by their varying heavy key, which lookups and the union of the
        buckets narrow through; the union does so only if the selector's
        index buckets hold few enough rows on average for a fetch to
        narrow: ``2 * rows / keys + 1 <= buckets``."""
        info = self.node.enum
        hleaf = self.node.children[info.heavy_idx]
        self.buckets = buckets = []
        by_key = {} if info.selector is not None else None
        for hrow, _ in hleaf.content.scan(info.h_positions, info.h_key(ctx)):
            if by_key is not None:
                by_key[info.h_varying(hrow)] = len(buckets)
            buckets.append(ctx + hrow)
        self.spent = 0
        self.guided = False
        if by_key is not None and len(buckets) >= 3:
            self.by_key = by_key
            keys = len(info.selector[0])
            self.guided = 2 * len(info.selector_rows) + keys <= len(buckets) * keys

    def _bucket(self, k: int) -> TreeIter:
        """Start the pending bucket at position ``k``: an iterator opened
        under its scope, which takes its place."""
        bucket = TreeIter(self.node, skip_heavy=True)
        bucket.open(self.buckets[k])
        self.buckets[k] = bucket
        return bucket

    def _reopen_children(self) -> None:
        """(Re)open the product children under the current view row and
        position each at its first output."""
        if self.current is None:
            self.child_outs = None
            return
        self.child_ctx = ctx = self._ctx + self.current[0]
        for ch in self.children:
            ch.open(ctx)
        self.child_outs = [ch.next() for ch in self.children]

    def close(self) -> None:
        self.opened = False
        self.buckets = self.by_key = self.foreign = None
        self.children = None
        self.child_outs = None
        self.current = None
        self._ctx = None

    # -- next ----------------------------------------------------------------

    def next(self):
        """Next distinct (tuple over the free variables below, positive
        multiplicity), or None when exhausted."""
        if not self.opened:
            raise CallBeforeOpenError(self.node.name)
        if self.buckets is not None:
            return union_next(self.buckets, self) if self.buckets else None
        info = self.node.enum
        if info.covering:
            if self.current is None:
                return None
            row, m = self.current
            self.current = next(self._range, None)
            return (info.out_of(row), m)
        while self.current is not None:
            if _odometer(self.children, self.child_outs, self.child_ctx):
                return _product_row(self.children, self.child_outs,
                                    self.current[0], info.compose)
            # product exhausted for this view row: advance the row
            self.current = next(self._range, None)
            self._reopen_children()
        return None

    # -- constant-time membership of an output tuple --------------------------

    def lookup(self, t: Row) -> int:
        """Multiplicity of ``t``, a tuple over ``enum.out_schema``, in the
        relation this (sub)iterator represents; 0 when absent.

        Runs the node's probe (see :func:`probe_source`) once per bucket,
        over the bucket's scope, a non-grounded iterator being its own
        single bucket: the gets in preorder over ``scope + t``, a stop at
        the first zero, and one add of the gets made to ``storage_ops``
        per probe.
        With a bucket selector and at least 3 buckets, it runs the probe
        over the candidates :meth:`_named` finds for ``t`` (every other
        term is 0), which pays their fetch (1 op, and 1 per row read if
        they narrow).  So it costs at most 1 op more than the probe over
        every bucket, and a narrowed lookup no more.  The view entries
        read only the bucket's scope, so a pending bucket stays pending,
        and a skipped one is never started; a grounded descendant's entry
        is :meth:`_descend`.  So the result is ``t``'s multiplicity in a
        fresh enumeration of this iterator, wherever its cursors and those
        below it stand.  Raises :class:`CallBeforeOpenError` before
        ``open`` and after ``close``."""
        buckets = self.buckets
        if buckets is None:
            if not self.opened:
                raise CallBeforeOpenError(self.node.name)
            return self.node.enum.probe(self, None, self._ctx, t)
        if not buckets:
            return 0
        probe = self.node.enum.probe
        named = self._named(t) if self.by_key is not None else None
        total = 0
        for k in range(len(buckets)) if named is None else named:
            b = buckets[k]
            total += probe(self, k, b if b.__class__ is tuple else b._ctx, t)
        return total

    def _descend(self, k: int | None, path: tuple[int, ...], ctx: tuple, t: Row) -> int:
        """A probe's lookup of ``t`` in the grounded descendant at ``path``
        below the bucket at position ``k`` (``None``: below this iterator),
        which ``t`` places under ``ctx``.  A pending bucket is started
        first, which leaves it as its first ``next()`` would.  The
        descendant is looked up through its live iterator if that iterator
        is grounded under ``ctx``, and otherwise through one grounded under
        ``ctx``: the first such lookup of this open grounds it, scanning H
        at its heavy key (counted), and keeps it in ``foreign`` for later
        lookups under the same context."""
        live = self if k is None else self.buckets[k]
        if live.__class__ is tuple:
            live = self._bucket(k)
        for i in path:
            live = live.children[i]
        if live._ctx != ctx:
            foreign = self.foreign
            if foreign is None:
                foreign = self.foreign = {}
            fresh = foreign.get((path, ctx))
            if fresh is None:
                fresh = foreign[path, ctx] = TreeIter(live.node)
                fresh.open(ctx)
            live = fresh
        return live.lookup(t)

    def _named(self, t: Row) -> list[int] | None:
        """The positions of the buckets that can hold ``t``, or None for
        every bucket; only for an iterator with ``by_key``.  It fetches the
        selector's index bucket at ``ctx + t`` (1 op), and if ``2 * rows +
        1 <= buckets`` reads its rows (1 op each): the buckets they name
        are the candidates, as every other bucket's probe reads the
        selector's view at an absent key, so its term is 0."""
        index, key_of, row_key = self.node.enum.selector
        rows = index.get(key_of(self._ctx + t), ())
        counters = self.node.content.counters
        if 2 * len(rows) + 1 > len(self.buckets):
            counters.storage_ops += 1
            return None
        counters.storage_ops += 1 + len(rows)
        by_key = self.by_key
        return [k for k in map(by_key.get, map(row_key, rows)) if k is not None]

    def grounded_buckets(self) -> int:
        """Total grounded bucket count below this iterator: every bucket,
        pending ones included, and the buckets below the started ones.  It
        bounds the delay; a row of a union guided by the selector pays only
        for the buckets its tuple names, so those drive the delay there.
        A pending bucket has no children yet, so the buckets
        that its start will ground are not counted until it starts: the
        value depends on when it is called, and at open it counts no more
        than eager opening would have."""
        n = 0
        if self.buckets is not None:
            n += len(self.buckets)
            for b in self.buckets:
                if b.__class__ is not tuple:
                    n += b.grounded_buckets()
        if self.children is not None:
            for ch in self.children:
                n += ch.grounded_buckets()
        return n


def union_next(members: list, owner: TreeIter | None = None):
    """One distinct tuple of the union of ``members`` with its total
    multiplicity, or None when all members are exhausted.

    Iterative fold of the two-member rule: a tuple from the union of the
    first i members survives member i+1 if member i+1 does not contain
    it; otherwise member i+1's next tuple takes its place.  The fold
    carries the index of the member whose cursor drew the current tuple,
    and only the returned tuple is totalled: its own multiplicity plus a
    lookup into each member before that one (each member after it looked
    the tuple up and found 0).  Every member shares one output schema, so
    the tuples pass to ``lookup`` as they are.

    With an ``owner``, the members are its buckets: each is looked up by
    the owner's probe over its scope, as :meth:`TreeIter.lookup` looks
    them up, so a grounded descendant reached through any bucket is kept
    by the owner alone, and a pending bucket is started only when its
    cursor is first needed.  The fold starts past the buckets it has found
    exhausted since the owner opened.  If the owner is ``guided``, each
    tuple the fold draws is looked up only in its candidates
    (:meth:`TreeIter._named`), at the positions after the tuple's source
    for survival and before it for the total; every other bucket's lookup
    is 0, so the rows are those of the unguided fold.
    """
    n = len(members)
    if owner is None:
        src, guided = 0, False
    else:
        src, guided, probe = owner.spent, owner.guided, owner.node.enum.probe
    while True:
        member = members[src]
        if member.__class__ is tuple:
            member = owner._bucket(src)
        if (r := member.next()) is not None:
            break
        src += 1
        if src == n:
            return None
    if owner is not None:
        owner.spent = src
    t = r[0]
    named = None
    while True:
        if guided:  # the positions of t's candidates
            named = owner._named(t)
            if named is not None:
                named.sort()
        for i in range(src + 1, n) if named is None else named[bisect_right(named, src):]:
            member = members[i]
            if owner is None:
                if not member.lookup(t):
                    continue  # not in member i: the tuple survives
            elif not probe(owner, i, member if member.__class__ is tuple else member._ctx, t):
                continue
            else:
                member = members[i]  # the probe may have started it
                if member.__class__ is tuple:
                    member = owner._bucket(i)
            r = member.next()
            # a tuple of member i still pending in the prefix implies the
            # member's cursor has tuples left
            if r is None:
                raise InvariantViolationError(
                    f"union member {i} holds {t} but its cursor is exhausted")
            src, t = i, r[0]
            if guided:  # the new tuple has its own candidates
                break
        else:
            break
    if not src:
        return r
    total = r[1]
    for j in range(src) if named is None else named[:bisect_left(named, src)]:
        member = members[j]
        if owner is None:
            total += member.lookup(t)
        else:
            total += probe(owner, j, member if member.__class__ is tuple else member._ctx, t)
    return (t, total)


class ComponentIter:
    """Union over the forest of one connected component."""

    def __init__(self, roots: list[ViewNode]):
        self.members = [TreeIter(r) for r in roots]
        self.out_schema = self.members[0].node.enum.out_schema
        for m in self.members:
            if m.node.enum.out_schema != self.out_schema:
                raise InvariantViolationError(
                    f"{m.node.name}: output schema differs from its forest's")

    def open(self, ctx: tuple) -> None:
        for m in self.members:
            m.open(ctx)

    def close(self) -> None:
        for m in self.members:
            m.close()

    def next(self):
        return union_next(self.members)

    def grounded_buckets(self) -> int:
        return sum(m.grounded_buckets() for m in self.members)


class ResultIterator:
    """Product over connected components of per-component unions.

    Yields each distinct result tuple exactly once, over the query head
    schema, with its strictly positive multiplicity.  Invalidated by any
    update to the engine state; restart by creating a new iterator.
    """

    def __init__(self, state):
        self.state = state
        self.generation = state.generation
        self.components = [ComponentIter(c.roots) for c in state.components]
        for c in self.components:
            c.open(())
        self._outs = [c.next() for c in self.components]
        self._compose = _compose("result", state.query.head_vars, (),
                                 [c.out_schema for c in self.components])

    def next(self):
        if self.generation != self.state.generation:
            raise IteratorInvalidatedError("engine state changed under an open iterator")
        counters = self.state.counters
        before = counters.storage_ops
        outs = self._outs
        out = (_product_row(self.components, outs, (), self._compose)
               if _odometer(self.components, outs, ()) else None)
        counters.record_next(counters.storage_ops - before)
        return out

    def __iter__(self):
        while True:
            item = self.next()
            if item is None:
                return
            yield item

    def grounded_buckets(self) -> int:
        return sum(c.grounded_buckets() for c in self.components)
