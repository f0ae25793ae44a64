"""Distinct-tuple enumeration with multiplicities over materialized forests.

Iterators follow the open/next/close model.  Opening a tree ranges its root
view over the tuples agreeing with the parent context; a view whose schema
already covers every free variable below it is enumerated directly; a view
with a heavy-indicator child is *grounded* into one shallow-copy iterator
per heavy key, and those buckets are merged by the union algorithm.

Sibling subtrees under one view row, and the components of the result,
combine through one product routine: :func:`_odometer` restarts an exhausted
slot under the shared context and advances the slot before it, and
:func:`_product_row` composes the output tuple and multiplies the slots'
multiplicities.

A union emits each distinct tuple once: a tuple drawn from the first n-1
members is emitted only when absent from member n (whose own cursor will
reach it later), and a tuple drawn from member n carries its multiplicity
summed with lookups into the earlier members.  Bucket copies are shallow:
they share view contents and own only cursor state.
"""

from __future__ import annotations

from .errors import CallBeforeOpenError, InvariantViolationError, IteratorInvalidatedError
from .viewtree import HEAVY_REF, ViewNode

Row = tuple


class EnumInfo:
    """Static per-node facts used by the iterators (computed once)."""

    __slots__ = ("ctx_vars", "sigma_positions", "sigma_vars", "fvars",
                 "out_schema", "covering", "out_positions", "heavy_idx",
                 "h_sigma_positions", "h_sigma_vars", "slots", "compose",
                 "b_sigma_positions", "b_sigma_vars")

    def __init__(self) -> None:
        self.heavy_idx = None
        self.covering = False


def annotate(root: ViewNode, free: frozenset[str],
             ctx_vars: frozenset[str] = frozenset()) -> None:
    """Fill ``node.enum`` for every node reachable during enumeration and
    register the sigma-range indexes the iterators will use."""
    info = EnumInfo()
    root.enum = info
    info.ctx_vars = ctx_vars
    shared = ctx_vars & set(root.schema)
    info.sigma_positions = root.content.positions(shared)
    info.sigma_vars = tuple(root.schema[p] for p in info.sigma_positions)
    root.content.register_index(info.sigma_positions)

    subtree_vars = {v for n in root.postorder() for v in n.schema}
    info.fvars = frozenset(free & subtree_vars)
    info.out_schema = tuple(sorted(info.fvars))

    pinned = set(root.schema) <= (ctx_vars | info.fvars)
    if root.is_leaf or (info.fvars <= set(root.schema) and pinned):
        # direct enumeration needs every non-output schema variable pinned by
        # the context, otherwise projections could repeat
        if root.is_leaf and not pinned:
            raise InvariantViolationError(f"{root.name}: leaf not pinned by context")
        info.covering = True
        info.out_positions = tuple(root.schema.index(v) for v in info.out_schema)
        return

    child_ctx = frozenset(ctx_vars | set(root.schema))
    for i, c in enumerate(root.children):
        if c.kind == HEAVY_REF:
            info.heavy_idx = i
            h_shared = ctx_vars & set(c.schema)
            info.h_sigma_positions = c.content.positions(h_shared)
            info.h_sigma_vars = tuple(c.schema[p] for p in info.h_sigma_positions)
            c.content.register_index(info.h_sigma_positions)
            # a grounded bucket ranges over the context plus the heavy key
            b_shared = (ctx_vars | set(c.schema)) & set(root.schema)
            info.b_sigma_positions = root.content.positions(b_shared)
            info.b_sigma_vars = tuple(root.schema[p] for p in info.b_sigma_positions)
            root.content.register_index(info.b_sigma_positions)
        else:
            annotate(c, free, child_ctx)
    info.slots = tuple(i for i, c in enumerate(root.children)
                       if i != info.heavy_idx)
    info.compose = _compose_table(
        root.name, info.out_schema, root.schema,
        [root.children[i].enum.out_schema for i in info.slots])


def _compose_table(name: str, out_schema: tuple[str, ...], row_schema: tuple,
                   slot_schemas: list[tuple[str, ...]]) -> tuple[tuple[int, int], ...]:
    """Where each output variable comes from: ``(-1, p)`` for position p of
    the row, ``(slot, p)`` for position p of that slot's output."""
    compose: list[tuple[int, int]] = []
    for v in out_schema:
        if v in row_schema:
            compose.append((-1, row_schema.index(v)))
            continue
        for slot, schema in enumerate(slot_schemas):
            if v in schema:
                compose.append((slot, schema.index(v)))
                break
        else:  # pragma: no cover - construction guarantees coverage
            raise InvariantViolationError(f"{name}: no source for output var {v}")
    return tuple(compose)


def _odometer(slots: list, outs: list, ctx: dict) -> bool:
    """Roll the product of ``slots`` forward until every slot has a current
    output: an exhausted slot is reopened under ``ctx`` and the slot before
    it advances.  False once the first slot is exhausted."""
    while True:
        hole = next((i for i, o in enumerate(outs) if o is None), None)
        if hole is None:
            return True
        if hole == 0:
            return False
        slot = slots[hole]
        slot.close()
        slot.open(ctx)
        outs[hole] = slot.next()
        outs[hole - 1] = slots[hole - 1].next()


def _product_row(slots: list, outs: list, row: Row, compose) -> tuple[Row, int]:
    """The product tuple of ``row`` and the slots' current outputs, with the
    product of their multiplicities; then advance the last slot."""
    t = tuple(row[src] if slot < 0 else outs[slot][0][src] for slot, src in compose)
    m = 1
    for o in outs:
        m *= o[1]
    outs[-1] = slots[-1].next()
    return (t, m)


class TreeIter:
    """Cursor state for one view tree (or one grounded bucket of it)."""

    def __init__(self, node: ViewNode, skip_heavy: bool = False):
        self.node = node
        self.skip_heavy = skip_heavy
        self.ctx: dict | None = None
        self.opened = False
        self.current = None
        self.buckets: list[TreeIter] | None = None
        self.children: list[TreeIter] | None = None
        self.child_outs: list | None = None
        self.child_ctx: dict | None = None

    # -- lifecycle ---------------------------------------------------------

    def open(self, ctx: dict) -> None:
        info = self.node.enum
        self.ctx = ctx
        self.opened = True
        self.buckets = None
        self.children = None
        self.child_outs = None
        if info.heavy_idx is not None and not self.skip_heavy:
            self._ground(ctx)
            return
        self._open_range()
        if info.covering:
            return
        self.children = [TreeIter(self.node.children[i]) for i in info.slots]
        self._reopen_children()

    def _open_range(self) -> None:
        info = self.node.enum
        if self.skip_heavy:
            positions, sigma_vars = info.b_sigma_positions, info.b_sigma_vars
        else:
            positions, sigma_vars = info.sigma_positions, info.sigma_vars
        key = tuple(self.ctx[v] for v in sigma_vars)
        self._range = self.node.content.scan(positions, key)
        self.current = next(self._range, None)

    def _ground(self, ctx: dict) -> None:
        info = self.node.enum
        hleaf = self.node.children[info.heavy_idx]
        key = tuple(ctx[v] for v in info.h_sigma_vars)
        self.buckets = []
        for hrow, _ in hleaf.content.scan(info.h_sigma_positions, key):
            h_assign = dict(zip(hleaf.schema, hrow))
            bucket = TreeIter(self.node, skip_heavy=True)
            bucket.open({**ctx, **h_assign})
            self.buckets.append(bucket)

    def _reopen_children(self) -> None:
        """(Re)open the product children under the current view row and
        position each at its first output."""
        if self.current is None:
            self.child_outs = None
            return
        self.child_ctx = {**self.ctx, **dict(zip(self.node.schema, self.current[0]))}
        for ch in self.children:
            ch.close()
            ch.open(self.child_ctx)
        self.child_outs = [ch.next() for ch in self.children]

    def close(self) -> None:
        self.opened = False
        self.buckets = None
        self.children = None
        self.child_outs = None
        self.current = None
        self.ctx = None

    # -- next ----------------------------------------------------------------

    def next(self):
        """Next distinct (tuple over the free variables below, positive
        multiplicity), or None when exhausted."""
        if not self.opened:
            raise CallBeforeOpenError(self.node.name)
        info = self.node.enum
        if self.buckets is not None:
            return union_next(self.buckets) if self.buckets else None
        if info.covering:
            if self.current is None:
                return None
            row, m = self.current
            self.current = next(self._range, None)
            return (tuple(row[p] for p in info.out_positions), m)
        while self.current is not None:
            if _odometer(self.children, self.child_outs, self.child_ctx):
                return _product_row(self.children, self.child_outs,
                                    self.current[0], info.compose)
            # product exhausted for this view row: advance the row
            self.current = next(self._range, None)
            self._reopen_children()
        return None

    # -- constant-time membership under an assignment ------------------------

    def lookup(self, assign: dict) -> int:
        """Multiplicity of the output tuple described by ``assign`` in the
        relation this (sub)iterator represents; 0 when absent."""
        info = self.node.enum
        merged = {**self.ctx, **assign} if self.ctx else assign
        if self.buckets is not None:
            return sum(b.lookup(merged) for b in self.buckets)
        key = tuple(merged[v] for v in self.node.schema)
        m = self.node.content.get(key)
        if info.covering:
            return (1 if m else 0) if self.node.semantics == "set" else m
        if m == 0:
            return 0  # the context row itself is absent from this view
        total = 1
        for ch in self.children:
            cm = ch.lookup(merged)
            if cm == 0:
                return 0
            total *= cm
        return total

    def grounded_buckets(self) -> int:
        """Total grounded bucket count below this iterator (delay driver)."""
        n = 0
        if self.buckets is not None:
            n += len(self.buckets)
            for b in self.buckets:
                n += b.grounded_buckets()
        if self.children is not None:
            for ch in self.children:
                n += ch.grounded_buckets()
        return n


def union_next(members: list):
    """One distinct tuple of the union of ``members`` with its total
    multiplicity, or None when all members are exhausted.

    Iterative fold of the two-member rule: a tuple from the union of the
    first i members is emitted only if member i+1 does not contain it;
    otherwise member i+1's next tuple is emitted with lookups into the
    earlier members added to its multiplicity.
    """
    r = members[0].next()
    for i in range(1, len(members)):
        last = members[i]
        if r is not None:
            t, _ = r
            if last.lookup(_as_assign(last, t)) == 0:
                continue  # not in member i: the prefix tuple survives
            nxt = last.next()
            # a tuple of member i still pending in the prefix implies the
            # member's cursor has tuples left
            if nxt is None:
                raise InvariantViolationError(
                    f"union member {i} holds {t} but its cursor is exhausted")
        else:
            nxt = last.next()
            if nxt is None:
                continue
        t2, m2 = nxt
        total = m2
        assign = _as_assign(last, t2)
        for j in range(i):
            total += members[j].lookup(assign)
        r = (t2, total)
    return r


def _as_assign(member, t: Row) -> dict:
    return dict(zip(member.node.enum.out_schema, t))


class ComponentIter:
    """Union over the forest of one connected component."""

    def __init__(self, roots: list[ViewNode]):
        self.members = [TreeIter(r) for r in roots]
        self.out_schema = self.members[0].node.enum.out_schema
        for m in self.members:
            if m.node.enum.out_schema != self.out_schema:
                raise InvariantViolationError(
                    f"{m.node.name}: output schema differs from its forest's")

    def open(self, ctx: dict) -> None:
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
            c.open({})
        self._outs = [c.next() for c in self.components]
        self._compose = _compose_table(
            "result", state.query.head_vars, (),
            [c.out_schema for c in self.components])

    def next(self):
        if self.generation != self.state.generation:
            raise IteratorInvalidatedError("engine state changed under an open iterator")
        counters = self.state.counters
        before = counters.storage_ops
        outs = self._outs
        out = (_product_row(self.components, outs, (), self._compose)
               if _odometer(self.components, outs, {}) else None)
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
