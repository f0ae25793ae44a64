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
node's cursor (:func:`_compile_cursor`, see below), and a lookup at the
node into a *probe* (:func:`_compile_plan`): one generated
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

A node's cursor is generated code as well: a ``start(it, ctx)`` and a
``step(it)`` over the fields of a :class:`TreeIter`, which holds only
cursor state and whose ``next()`` calls its node's step.  Each is compiled
once per process per cursor shape (:func:`cursor_source`) and bound per
node.  A covering node walks its range's dict: every entry, the index
bucket of the range key, or one get of a whole-row key.  It returns each
row's output as one tuple display, reads the next row one ahead, and
counts ops where :meth:`~skewivm.storage.Relation.scan` counts them.
Sibling subtrees under one view row, and the components of the result,
combine through one product step, an odometer unrolled over the slots.
It reopens the first slot without an output under the shared context
and advances the slot before it, or moves the view row on once the first
slot is exhausted.  It composes the row and the slots' outputs in one
tuple display with the product of their multiplicities, then advances
the last slot, so that each ``next()`` is charged exactly the ops it
makes.  A slot advances by its own step, or by its ``next()`` where it
is grounded, whose buckets :func:`union_next` merges.  The result's
product (:func:`result_cursor`) is compiled once per state.
A product slot skips *pass-through* views (:func:`_resolve`):
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

# probe shape -> probe factory, and cursor shape -> cursor factory,
# compiled once per process
_PROBES: dict[tuple, Callable] = {}
_CURSORS: dict[tuple, Callable] = {}


class EnumInfo:
    """Static per-node facts, and the compiled cursor and probe the
    iterators run (computed once)."""

    __slots__ = ("ctx_order", "scope", "out_schema", "covering", "heavy_idx",
                 "range_positions", "slots", "start", "step", "heavy", "plan",
                 "probe", "selector", "selector_rows", "h_varying")

    def __init__(self) -> None:
        self.heavy_idx = None
        self.covering = False
        self.selector = None


def annotate(root: ViewNode, free: frozenset[str],
             ctx_order: tuple[str, ...] = (), buckets: bool = True) -> None:
    """Fill ``node.enum`` for every node reachable during enumeration,
    register the sigma-range indexes the iterators will use and compile
    each node's cursor and probe.  A node shared
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
        root.content.register_index(info.range_positions)
        out = tuple(schema.index(v) for v in info.out_schema)
        _compile_cursor(info, root, None if out == tuple(range(len(schema))) else out)
        _compile_plan(info, root)
        return

    for i, c in enumerate(root.children):
        if c.kind == HEAVY_REF:
            info.heavy_idx = i
            c.content.register_index(c.content.positions(ctx_vars & set(c.schema)))
            # a grounded bucket ranges over the context plus the heavy key,
            # and the grounded view itself is never ranged over the context
            info.scope = ctx_order + c.schema
            info.range_positions = root.content.positions(set(info.scope) & set(schema))
    root.content.register_index(info.range_positions)
    # the product slots: each child but the heavy indicator, resolved
    # through pass-through views
    layout = info.scope + schema
    info.slots = tuple(_resolve(c, free, set(layout))
                       for i, c in enumerate(root.children) if i != info.heavy_idx)
    for n in info.slots:
        annotate(n, free, layout, buckets)
    _compile_cursor(info, root, _compose(root.name, info.out_schema, schema,
                                         [n.enum.out_schema for n in info.slots]))
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
        return _tuple(f"c[{p}]" if p < width else f"t[{p - width}]" for p in positions)

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
             slot_schemas: list[tuple[str, ...]]) -> tuple[tuple[int, int], ...]:
    """Where each variable of ``out_schema`` comes from in a product: ``(-1,
    p)`` for position ``p`` of the view row over ``row_schema``, ``(j, p)``
    for position ``p`` of slot ``j``'s output tuple.  The row comes first,
    then the slots in order."""
    flat = [(-1, p, v) for p, v in enumerate(row_schema)]
    flat += [(j, p, v) for j, schema in enumerate(slot_schemas) for p, v in enumerate(schema)]
    sources = []
    for v in out_schema:
        source = next(((j, p) for j, p, w in flat if w == v), None)
        if source is None:  # pragma: no cover - construction guarantees coverage
            raise InvariantViolationError(f"{name}: no source for output var {v}")
        sources.append(source)
    return tuple(sources)


def _read(rel, positions: tuple[int, ...], layout: tuple[str, ...]) -> tuple:
    """How a cursor reads the entries of ``rel`` whose projection on
    ``positions`` is given by a tuple over ``layout``: ``(kind, key,
    index)``.  The kind is ``"all"`` for no positions (every entry),
    ``"row"`` for every position (one entry, the key), else ``"index"``
    (the index bucket of the key); the key is a tuple of layout
    positions."""
    key = tuple(layout.index(rel.schema[p]) for p in positions)
    if not positions:
        return "all", key, None
    if len(positions) == len(rel.schema):
        return "row", key, None
    return "index", key, rel.indexes[positions]


def _compile_cursor(info: EnumInfo, node: ViewNode, out) -> None:
    """The node's compiled cursor (see :func:`cursor_source`): ``info.start``
    and ``info.step``, and for a grounded node ``info.heavy``.  ``out`` is
    a covering node's output positions in its row (``None`` for the whole
    row in order), or a product node's output sources
    (:func:`_compose`)."""
    rel = node.content
    read, key, index = _read(rel, info.range_positions, info.scope)
    heavy, h_args = None, (None, None)
    if info.heavy_idx is not None:
        h = node.children[info.heavy_idx].content
        h_read, h_key, h_index = _read(
            h, h.positions(set(info.ctx_order) & set(h.schema)), info.ctx_order)
        heavy, h_args = (h_read, h_key), (h.entries, h_index)
    slots = () if info.covering else info.slots
    calls = tuple("next" if n.enum.heavy_idx is not None else "step" for n in slots)
    shape = ("cover" if info.covering else "product", read, key, out, calls, heavy)
    factory = _compiled(_CURSORS, shape, cursor_source, "cursor")
    info.start, info.step, info.heavy = factory(
        rel.counters, rel.entries, index, *h_args,
        *(n.enum.step for n, call in zip(slots, calls) if call == "step"))


def result_cursor(out_schema: tuple[str, ...], slot_schemas: list[tuple[str, ...]]):
    """The compiled ``step(it)`` of a :class:`ResultIterator` whose
    components' output schemas are ``slot_schemas``, composing tuples over
    ``out_schema`` (see :func:`cursor_source`)."""
    compose = _compose("result", out_schema, (), slot_schemas)
    if len(slot_schemas) == 1 and compose == tuple((0, p) for p in range(len(out_schema))):
        compose = None  # the component's tuples are the result's
    calls = ("next",) * len(slot_schemas)
    return _compiled(_CURSORS, ("result", None, (), compose, calls, None),
                     cursor_source, "cursor")()


def _tuple(items) -> str:
    """A tuple display of the expressions ``items``."""
    items = list(items)
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _block(lines: list[str]) -> list[str]:
    """``lines`` indented one level."""
    return ["    " + line for line in lines]


def cursor_source(shape: tuple) -> str:
    """Python source of a cursor factory for ``shape``, ``(kind, read, key,
    out, calls, heavy)`` (see :func:`_compile_cursor` and
    :func:`result_cursor`): code over the iterator's fields with every
    slot, key and output position written out.  Ops are added to
    ``counters`` where :meth:`skewivm.storage.Relation.scan` counts them
    (1 per index-bucket fetch or whole-row get, 1 per row read), and each
    row is read one ahead, so each ``next()`` is charged the ops it makes.

    - ``"cover"`` and ``"product"``: ``factory(counters, entries, index,
      h_entries, h_index, step_j...)`` returns ``(start, step, heavy)``.
      ``start(it, ctx)`` reads the range's first row into ``it.current``
      (``read`` is ``"all"``, ``"index"`` or ``"row"``, see :func:`_read`,
      with ``key`` over the scope) and keeps the iterator over the rest in
      ``it._range``.  A covering node's ``step(it)`` returns the current
      row's output and multiplicity and reads the next row.  A product
      node's ``start`` opens the slots ``it.children`` under the scope
      followed by the first row and takes each slot's first output into
      ``it.child_outs``; its ``step(it)`` is the odometer over the slots,
      unrolled: the first slot from the left without an output is reopened
      and the one before it advances, and an exhausted first slot moves
      the row on.  It composes the row and the slot outputs into one tuple
      display with the product of their multiplicities, then advances the
      last slot.  A slot is advanced by the ``step_j`` it is given, or by
      its ``next()`` (``calls[j]`` is ``"next"``: a grounded slot, whose
      buckets :func:`union_next` merges).  ``heavy(ctx)``, for a grounded
      node only, returns the rows of H under ``ctx`` (``heavy`` is H's
      ``(read, key)``) and counts them.
    - ``"result"``: ``factory()`` returns the product ``step(it)`` over
      ``it.components`` and their outputs ``it._outs``, with no row; ``out``
      ``None`` returns the one component's tuples as they are."""
    kind, read, key, out, calls, heavy = shape
    k = len(calls)
    slots, outs = [f"s{j}" for j in range(k)], [f"o{j}" for j in range(k)]
    call = [f"s{j}.next()" if how == "next" else f"step{j}(s{j})"
            for j, how in enumerate(calls)]

    def display(positions, of: str) -> str:
        return _tuple(f"{of}[{p}]" for p in positions)

    def odometer(ctx: str, exhausted: list[str], emit: list[str]) -> list[str]:
        lines = ["while True:", "    if o0 is None:", *_block(_block(exhausted))]
        for j in range(1, k):
            lines += [f"    elif o{j} is None:", f"        s{j}.open({ctx})",
                      f"        o{j} = {call[j]}", f"        o{j - 1} = {call[j - 1]}"]
        return lines + ["    else:", *_block(_block(emit))]

    def product() -> str:
        if out is None:
            return "o0"
        values = [f"row[{p}]" if j < 0 else f"o{j}[0][{p}]" for j, p in out]
        return f"({_tuple(values)}, {' * '.join(f'o{j}[1]' for j in range(k))})"

    if kind == "result":
        body = [f"{_tuple(slots)} = it.components", f"{_tuple(outs)} = it._outs",
                *odometer("()", [f"it._outs = {_tuple(outs)}", "return None"],
                          [f"it._outs = {_tuple(outs[:-1] + call[-1:])}",
                           f"return {product()}"])]
        return "\n".join(["def factory():", "    def step(it):", *_block(_block(body)),
                          "    return step", ""])

    # the range: the first row at start, then one ahead per step
    items = kind == "cover" and read == "all"  # a covering full scan reads (row, m)
    open_slots = [] if kind == "cover" else [
        "c = it.child_ctx = ctx + cur", f"{_tuple(slots)} = it.children",
        *(f"s{j}.open(c)" for j in range(k)), f"it.child_outs = {_tuple(call)}"]
    if read == "row":
        start = [f"cur = {display(key, 'ctx')}", "counters.storage_ops += 1",
                 "if entries.get(cur):", "    it.current = cur", *_block(open_slots),
                 "else:", "    it.current = None"]
        after = ["it.current = None"]
    else:
        source = ("entries.items()" if items else "entries") if read == "all" else \
            f"index.get({display(key, 'ctx')}, ())"
        start = [f"rows = it._range = iter({source})", "cur = it.current = next(rows, None)"]
        if read == "index":
            start += ["counters.storage_ops += 1 if cur is None else 2",
                      *(["if cur is not None:", *_block(open_slots)] if open_slots else [])]
        else:
            start += ["if cur is not None:", "    counters.storage_ops += 1", *_block(open_slots)]
        after = ["after = it.current = next(it._range, None)", "if after is not None:",
                 "    counters.storage_ops += 1"]

    if kind == "cover":
        if items:
            emit = "cur" if out is None else f"({display(out, 'cur[0]')}, cur[1])"
        else:
            emit = f"({'cur' if out is None else display(out, 'cur')}, entries[cur])"
        step = ["cur = it.current", "if cur is None:", "    return None", *after,
                f"return {emit}"]
    else:
        if read == "row":
            next_row = ["it.current = it.child_outs = None", "return None"]
        else:
            next_row = ["row = it.current = next(it._range, None)", "if row is None:",
                        "    it.child_outs = None", "    return None",
                        "counters.storage_ops += 1", "c = it.child_ctx = it._ctx + row",
                        *(f"s{j}.open(c)" for j in range(k)),
                        *(f"o{j} = {call[j]}" for j in range(k))]
        step = ["row = it.current", "if row is None:", "    return None",
                f"{_tuple(slots)} = it.children", f"{_tuple(outs)} = it.child_outs",
                *(["c = it.child_ctx"] if k > 1 else []),
                *odometer("c", next_row, [f"it.child_outs = {_tuple(outs[:-1] + call[-1:])}",
                                          f"return {product()}"])]

    heavy_fn = []
    if heavy is not None:
        h_read, h_key = heavy
        if h_read == "all":
            rows = ["counters.storage_ops += len(h_entries)", "return h_entries"]
        elif h_read == "row":
            rows = [f"row = {display(h_key, 'ctx')}", "counters.storage_ops += 1",
                    "return (row,) if h_entries.get(row) else ()"]
        else:
            rows = [f"rows = h_index.get({display(h_key, 'ctx')}, ())",
                    "counters.storage_ops += 1 + len(rows)", "return rows"]
        heavy_fn = ["def heavy(ctx):", *_block(rows)]
    steps = "".join(f", step{j}" for j, how in enumerate(calls) if how == "step")
    return "\n".join([f"def factory(counters, entries, index, h_entries, h_index{steps}):",
                      *_block(["def start(it, ctx):", *_block(start),
                               "def step(it):", *_block(step), *heavy_fn,
                               f"return start, step, {'heavy' if heavy_fn else 'None'}"]),
                      ""])


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
        self.child_outs: tuple | None = None
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
        if not info.covering:
            self.children = [TreeIter(n) for n in info.slots]
        info.start(self, ctx)

    def _ground(self, ctx: tuple) -> None:
        """One pending bucket, its scope, per heavy key under ``ctx``.
        With a selector and at least 3 buckets, also the bucket positions
        by their varying heavy key, which lookups and the union of the
        buckets narrow through; the union does so only if the selector's
        index buckets hold few enough rows on average for a fetch to
        narrow: ``2 * rows / keys + 1 <= buckets``."""
        info = self.node.enum
        self.buckets = buckets = []
        by_key = {} if info.selector is not None else None
        for hrow in info.heavy(ctx):
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
        buckets = self.buckets
        if buckets is not None:
            return union_next(buckets, self) if buckets else None
        return self.node.enum.step(self)

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
        self._outs = tuple(c.next() for c in self.components)
        self._step = state.result_step

    def next(self):
        """The next result tuple with its multiplicity, or None at the end.
        Records the ops this call made as ``Counters.last_next_ops``, and
        the largest such count as ``max_next_ops``."""
        state = self.state
        if self.generation != state.generation:
            raise IteratorInvalidatedError("engine state changed under an open iterator")
        counters = state.counters
        before = counters.storage_ops
        out = self._step(self)
        ops = counters.last_next_ops = counters.storage_ops - before
        if ops > counters.max_next_ops:
            counters.max_next_ops = ops
        return out

    def __iter__(self):
        while True:
            item = self.next()
            if item is None:
                return
            yield item

    def grounded_buckets(self) -> int:
        return sum(c.grounded_buckets() for c in self.components)
