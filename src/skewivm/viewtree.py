"""Skew-aware view-tree construction and materialization.

Construction mirrors the four recursive builders: plain view trees over a
canonical variable order, single-node creation with the same-schema collapse
rule, auxiliary aggregation views for dynamic maintenance, indicator triples
(All / L / H) for bound join variables, and the top-level skew-aware
splitter that forks into a light strategy over partitioned relations and
heavy strategies gated by set-semantics indicators.

Nodes built here carry no data.  The builders may return one node object in
several places; :func:`intern` then turns a forest into a DAG with one node
per distinct view.  The engine gives every leaf, as its content, the
relation it reads (a base relation, a light part or an H support) and every
distinct view a relation of its own, which it materializes bottom-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .errors import UnregisteredIndexError
from .query import Atom, ConjunctiveQuery, is_free_connex, is_q_hierarchical, min_cover
from .storage import Relation, projection
from .vorder import VariableOrder

# node kinds
ATOM = "base-atom"
LIGHT = "light-part"
HEAVY_REF = "indicator-heavy"  # set-semantics H support used inside a tree
JOIN = "join-view"
AUX = "aux-view"


class ViewNode:
    """One view in a tree: a join of its children projected to ``schema``."""

    __slots__ = ("name", "schema", "kind", "semantics", "children", "content",
                 "leaf_name", "enum", "plan")

    def __init__(self, name: str, schema: tuple[str, ...], kind: str,
                 children: list["ViewNode"] | None = None,
                 semantics: str = "multiset", leaf_name: str | None = None):
        self.name = name
        self.schema = schema
        self.kind = kind
        self.semantics = semantics
        self.children = children or []
        self.content: Relation | None = None
        self.leaf_name = leaf_name  # delta dispatch key for leaves
        self.enum = None  # enumeration annotations, filled per result tree
        self.plan: JoinPlan | None = None  # materialization plan, set by intern

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def postorder(self) -> list["ViewNode"]:
        out: list[ViewNode] = []

        def rec(n: ViewNode) -> None:
            for c in n.children:
                rec(c)
            out.append(n)

        rec(self)
        return out

    def __repr__(self) -> str:
        return f"{self.name}({','.join(self.schema)})"


@dataclass
class LightPart:
    """The light part of one atom occurrence, partitioned on ``keys``."""

    atom: Atom
    keys: tuple[str, ...]
    name: str
    key_positions: tuple[int, ...]  # positions of keys in the atom schema
    content: Relation | None = None  # the light part itself; its leaves read it
    base: Relation | None = None  # the base relation it partitions
    # atom row -> its key, resolved from the positions
    key_of: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key_of = projection(self.key_positions)


@dataclass
class IndicatorTriple:
    """All / L / H indicator views for one bound variable and its ancestors."""

    var: str
    keys: tuple[str, ...]
    all_root: ViewNode
    light_root: ViewNode
    light_parts: list[LightPart]
    support_name: str  # leaf name of the xH leaves, which read h_content
    h_name: str
    h_content: Relation | None = None  # H as a set: {key: 1} per heavy key
    all_tree: object = None  # ViewTree wrappers, attached by the engine
    light_tree: object = None


@dataclass
class BuildContext:
    """Shared construction state for one connected component."""

    query: ConjunctiveQuery
    vo: VariableOrder
    free: frozenset[str]
    mode: str  # 'static' | 'dynamic'
    depth: dict[str, int]
    triples: list[IndicatorTriple] = field(default_factory=list)

    def order(self, varset) -> tuple[str, ...]:
        return tuple(sorted(varset, key=lambda v: (self.depth[v], v)))


def make_context(q: ConjunctiveQuery, vo: VariableOrder, free, mode: str) -> BuildContext:
    depth = {v: vo.depth(v) for v in vo.variables()}
    return BuildContext(query=q, vo=vo, free=frozenset(free), mode=mode, depth=depth)


# ---------------------------------------------------------------------------
# Leaf factories
# ---------------------------------------------------------------------------


def base_leaf(atom: Atom) -> ViewNode:
    return ViewNode(atom.name, atom.schema, ATOM, leaf_name=atom.name)


def light_leaf(lp: LightPart) -> ViewNode:
    return ViewNode(lp.name, lp.atom.schema, LIGHT, leaf_name=lp.name)


def heavy_ref_leaf(triple: IndicatorTriple) -> ViewNode:
    return ViewNode(triple.support_name, triple.keys, HEAVY_REF,
                    semantics="set", leaf_name=triple.support_name)


# ---------------------------------------------------------------------------
# The four builders
# ---------------------------------------------------------------------------


def new_vt(ctx: BuildContext, name: str, schema_set, children: list[ViewNode]) -> ViewNode:
    """A view over ``children`` — unless a single child already has exactly
    the requested schema, in which case that child is reused unchanged."""
    schema = ctx.order(schema_set)
    if len(children) == 1 and set(children[0].schema) == set(schema):
        return children[0]
    return ViewNode(name, schema, JOIN, children)


def aux_view(ctx: BuildContext, z, tree: ViewNode) -> ViewNode:
    """In dynamic mode, aggregate away ``z`` on top of its tree when ``z``
    has siblings, so sibling deltas propagate with constant-time lookups."""
    anc = set(ctx.vo.anc(z))
    if ctx.mode == "dynamic" and ctx.vo.has_sibling(z) and anc < set(tree.schema):
        return ViewNode(f"{tree.name}'", ctx.order(anc), AUX, [tree])
    return tree


def build_vt(ctx: BuildContext, prefix: str, node, free: frozenset[str],
             leaves: dict | None = None) -> ViewNode:
    """Recursive view-tree construction over the variable-order subtree at
    ``node``.

    ``leaves`` optionally maps atom keys to replacement leaf factories (used
    to swap in light parts).  At a variable whose whole root path is free the
    children are wrapped by :func:`aux_view` and the view keeps exactly the
    path; otherwise the view keeps the ancestors plus the free variables of
    the subtree.
    """
    if isinstance(node, Atom):
        if leaves and node.key in leaves:
            return light_leaf(leaves[node.key])
        return base_leaf(node)
    x = node
    vo = ctx.vo
    kids = [build_vt(ctx, prefix, k, free, leaves) for k in vo.kids(x)]
    anc = set(vo.anc(x))
    if anc | {x} <= free:
        schema = anc | {x}
        subtrees = [aux_view(ctx, z, t) for z, t in zip(vo.kids(x), kids)]
        return new_vt(ctx, f"{prefix}_{x}", schema, subtrees)
    schema = anc | (free & set(vo.subtree_vars(x)))
    return new_vt(ctx, f"{prefix}_{x}", schema, kids)


def indicator_vts(ctx: BuildContext, x: str) -> IndicatorTriple:
    """All/light/heavy indicator view trees for ``anc(x) + {x}``."""
    vo = ctx.vo
    keys = ctx.order(set(vo.anc(x)) | {x})
    key_str = "".join(keys)
    parts: list[LightPart] = []
    leaf_map: dict = {}
    for atom in vo.subtree_atoms(x):
        lp = LightPart(
            atom=atom,
            keys=keys,
            name=f"{atom.name}^{key_str}",
            key_positions=tuple(atom.schema.index(v) for v in keys),
        )
        parts.append(lp)
        leaf_map[atom.key] = lp
    all_root = build_vt(ctx, "All", x, frozenset(keys))
    light_root = build_vt(ctx, "L", x, frozenset(keys), leaves=leaf_map)
    triple = IndicatorTriple(
        var=x,
        keys=keys,
        all_root=all_root,
        light_root=light_root,
        light_parts=parts,
        support_name=f"xH_{x}",
        h_name=f"H_{x}",
    )
    ctx.triples.append(triple)
    return triple


def tau(ctx: BuildContext, node) -> list[ViewNode]:
    """Skew-aware view trees for the subtree at ``node``.

    Returns the forest roots, light strategy first.  Indicator triples
    created anywhere in the recursion accumulate on the context.  The
    combinations share their children's node objects.
    """
    if isinstance(node, Atom):
        return [base_leaf(node)]
    x = node
    vo = ctx.vo
    keys = set(vo.anc(x)) | {x}
    f_x = set(vo.anc(x)) | (set(ctx.free) & set(vo.subtree_vars(x)))
    residual = ConjunctiveQuery(
        "Qx", ctx.order(f_x), tuple(a for a in vo.subtree_atoms(x)))
    easy = (is_free_connex(residual) if ctx.mode == "static"
            else is_q_hierarchical(residual))
    if easy:
        return [build_vt(ctx, "V", x, frozenset(f_x))]

    child_sets = [tau(ctx, k) for k in vo.kids(x)]

    def combos(extra: list[ViewNode]) -> list[ViewNode]:
        out = []
        for combo in itertools.product(*child_sets):
            subtrees = [aux_view(ctx, z, t) for z, t in zip(vo.kids(x), combo)]
            out.append(new_vt(ctx, f"V_{x}", keys, extra + subtrees))
        return out

    if x in ctx.free:
        return combos([])
    triple = indicator_vts(ctx, x)
    htrees = combos([heavy_ref_leaf(triple)])
    leaf_map = {lp.atom.key: lp for lp in triple.light_parts}
    ltree = build_vt(ctx, "V", x, frozenset(f_x), leaves=leaf_map)
    return [ltree] + htrees


def intern(root: ViewNode, table: dict) -> ViewNode:
    """The node ``table`` holds for the subtree at ``root``, interning it
    first if it is new.  A leaf is keyed by its ``leaf_name``, a view by its
    schema, semantics and interned children, so a view equals another when
    it computes the same relation; kind and name stay out of the key, and
    a new node keeps its own.  Children are interned in place, in
    postorder.

    A new view's materialization plan is chosen here, from the names its
    children have in its own tree, before they are replaced: a view then
    loads its rows in the same order whichever tree's nodes it comes to
    share."""
    if root.is_leaf:
        key = root.leaf_name
    else:
        plan = materialize_plan(root)
        root.children = [intern(c, table) for c in root.children]
        key = (root.schema, root.semantics, tuple(id(c) for c in root.children))
    node = table.get(key)
    if node is None:
        node = table[key] = root
        if not root.is_leaf:
            root.plan = plan
    return node


# ---------------------------------------------------------------------------
# Join plans and materialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinStep:
    """One sibling to fold into the accumulator during a join."""

    child_index: int
    mode: str  # 'scan' | 'lookup'
    child_positions: tuple[int, ...]  # key positions in the child schema
    acc_positions: tuple[int, ...]  # matching positions in the accumulator
    new_positions: tuple[int, ...]  # child positions appended to the accumulator
    is_set: bool = False  # the child has set semantics: nonzero counts as 1
    # resolved from the positions: accumulator row -> child key, child row
    # -> appended values
    key_of: Callable = field(init=False, repr=False, compare=False)
    extend: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key_of", projection(self.acc_positions))
        object.__setattr__(self, "extend", projection(self.new_positions))


@dataclass(frozen=True)
class JoinPlan:
    start_index: int  # child the iteration starts from (or delta source)
    steps: tuple[JoinStep, ...]
    acc_schema: tuple[str, ...]
    out_positions: tuple[int, ...]  # projection of acc onto the view schema
    project: Callable = field(init=False, repr=False, compare=False)
    lookups_only: bool = field(init=False, repr=False, compare=False)
    # the steps over the live dicts of the relations they read, see bind()
    bound: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "project", projection(self.out_positions))
        object.__setattr__(self, "lookups_only",
                           all(step.mode == "lookup" for step in self.steps))

    def bind(self, children: list[ViewNode]) -> None:
        """Bind the steps, once, to the relations of ``children`` (the
        children of the one view the plan belongs to).  A relation keeps
        its ``entries`` and index dicts for its lifetime, ``load`` and
        ``clear`` included, so the binding stays valid; a scan step whose
        index is not registered raises :class:`UnregisteredIndexError`
        here."""
        object.__setattr__(self, "bound", _bind_steps(self.steps, children))


def _bind_steps(steps: tuple[JoinStep, ...], children: list[ViewNode]) -> tuple:
    """Each step as ``(key_of, is_set, get, entries, extend, counters)``
    over the relation of the child it reads: a lookup's ``entries.get``
    (``extend`` is None), an index scan's ``index.get`` and the entries
    it reads, a scan with no shared positions its entries (``get`` is
    None)."""
    out = []
    for step in steps:
        rel = children[step.child_index].content
        if step.mode == "lookup":
            get, extend = rel.entries.get, None
        elif step.child_positions:
            index = rel.indexes.get(step.child_positions)
            if index is None:
                raise UnregisteredIndexError(
                    f"{rel.name}: no index on positions {step.child_positions}")
            get, extend = index.get, step.extend
        else:
            get, extend = None, step.extend
        out.append((step.key_of, step.is_set, get, rel.entries, extend, rel.counters))
    return tuple(out)


def _plan_steps(children: list[ViewNode], start: int,
                start_schema: tuple[str, ...], view_schema: tuple[str, ...],
                order: list[int]) -> JoinPlan:
    acc: list[str] = list(start_schema)
    steps: list[JoinStep] = []
    for i in order:
        child = children[i]
        cs = child.schema
        shared = [v for v in cs if v in acc]
        if len(shared) == len(cs):
            mode = "lookup"
            child_pos = tuple(range(len(cs)))
            acc_pos = tuple(acc.index(v) for v in cs)
            new_pos: tuple[int, ...] = ()
        else:
            mode = "scan"
            child_pos = tuple(p for p, v in enumerate(cs) if v in acc)
            acc_pos = tuple(acc.index(cs[p]) for p in child_pos)
            new_pos = tuple(p for p, v in enumerate(cs) if v not in acc)
            acc.extend(cs[p] for p in new_pos)
        steps.append(JoinStep(i, mode, child_pos, acc_pos, new_pos,
                              child.semantics == "set"))
    out_positions = tuple(acc.index(v) for v in view_schema)
    return JoinPlan(start, tuple(steps), tuple(acc), out_positions)


def materialize_plan(node: ViewNode) -> JoinPlan:
    """Outer child covering the most view-schema variables; a minimal cover
    of the rest is index-scanned; every other child is looked up."""
    children = node.children
    view_vars = set(node.schema)
    outer = min(range(len(children)),
                key=lambda i: (-len(view_vars & set(children[i].schema)),
                               children[i].name))
    remaining = view_vars - set(children[outer].schema)
    rest = [i for i in range(len(children)) if i != outer]
    by_name = sorted(rest, key=lambda i: children[i].name)
    cover = {by_name[j] for j in min_cover([children[i].schema for i in by_name], remaining)}
    covered_first = [i for i in rest if i in cover]
    rest_order = covered_first + [i for i in rest if i not in cover]
    return _plan_steps(children, outer, children[outer].schema, node.schema, rest_order)


def delta_plan(node: ViewNode, child_index: int) -> JoinPlan:
    """Join plan for a delta arriving from ``child_index``."""
    children = node.children
    order = [i for i in range(len(children)) if i != child_index]
    return _plan_steps(children, child_index, children[child_index].schema,
                       node.schema, order)


def run_join(plan: JoinPlan, children: list[ViewNode],
             start_rows) -> dict[tuple, int]:
    """Fold ``start_rows`` (a sized iterable of (row, mult) over the plan's
    start schema) through the plan's steps, returning the aggregated
    projection.  A bound plan (see :meth:`JoinPlan.bind`) reads the
    relations it was bound to; an unbound one is bound to ``children`` for
    this call.

    The fold reads the children's entries and index buckets directly and
    adds to ``Counters.storage_ops`` in bulk what the storage primitives
    would count one by one: a lookup is one ``get``, an index scan is one
    bucket fetch plus one per matching row, and a scan with no shared
    positions is one per entry of the child.  A single start row through
    a plan of lookups only builds no intermediate rows: its multiplicity
    is multiplied by each get up to the first miss, one op per step
    reached, which is what the general path counts for it."""
    steps = plan.bound
    if steps is None:
        steps = _bind_steps(plan.steps, children)
    if plan.lookups_only and len(start_rows) == 1:
        ((row, m),) = start_rows
        for key_of, is_set, get, _, _, counters in steps:
            counters.storage_ops += 1
            cm = get(key_of(row))
            if not cm:
                return {}
            if not is_set:
                m *= cm
        return {plan.project(row): m} if m else {}
    rows = start_rows
    for key_of, is_set, get, entries, extend, counters in steps:
        if not rows:
            return {}
        ops = len(rows)
        next_rows: list = []
        append = next_rows.append
        if extend is None:
            for row, m in rows:
                cm = get(key_of(row))
                if cm:
                    append((row, m if is_set else m * cm))
        elif get is not None:
            for row, m in rows:
                bucket = get(key_of(row))
                if bucket:
                    ops += len(bucket)
                    for crow in bucket:
                        append((row + extend(crow),
                                m if is_set else m * entries[crow]))
        else:
            ops *= len(entries)
            for row, m in rows:
                for crow, cm in entries.items():
                    append((row + extend(crow), m if is_set else m * cm))
        counters.storage_ops += ops
        rows = next_rows
    out: dict[tuple, int] = {}
    project = plan.project
    for row, m in rows:
        key = project(row)
        new = out.get(key, 0) + m
        if new:
            out[key] = new
        elif key in out:
            del out[key]
    return out


def materialize_node(node: ViewNode, plan: JoinPlan) -> None:
    """Recompute ``node.content`` from the children (leaves untouched); the
    full scan of the outer child counts one op per entry."""
    outer = node.children[plan.start_index]
    rel = outer.content
    rel.counters.storage_ops += len(rel.entries)
    if outer.semantics == "set":
        start = [(row, 1) for row in rel.entries]
    else:
        start = rel.entries.items()
    node.content.load(run_join(plan, node.children, start))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def tree_to_dict(root: ViewNode) -> dict:
    return {
        "name": root.name,
        "kind": root.kind,
        "schema": list(root.schema),
        "semantics": root.semantics,
        "children": [tree_to_dict(c) for c in root.children],
    }


def dot_graph(graph: str, roots: list, kids: Callable, label: Callable,
              dashed: Callable) -> str:
    """One digraph over the forest at ``roots``: nodes are numbered in
    preorder and labelled ``label(node)``, dashed where ``dashed(node)``,
    each with an edge to every node of ``kids(node)``."""
    lines = [f"digraph \"{graph}\" {{", "  node [shape=plaintext];"]
    counter = itertools.count()

    def visit(node) -> str:
        nid = f"n{next(counter)}"
        style = ", style=dashed" if dashed(node) else ""
        lines.append(f"  {nid} [label=\"{label(node)}\"{style}];")
        for kid in kids(node):
            lines.append(f"  {nid} -> {visit(kid)};")
        return nid

    for root in roots:
        visit(root)
    lines.append("}")
    return "\n".join(lines)


def forest_dot(named_roots: list[tuple[str, ViewNode]],
               triples: list[IndicatorTriple] | None = None) -> str:
    """One digraph per tree; node labels are ``name(schema)``; aux views,
    which only dynamic trees hold, are dashed, matching the figures."""

    def tree(graph: str, root: ViewNode) -> str:
        return dot_graph(graph, [root], lambda n: n.children, repr, lambda n: n.kind == AUX)

    out = [tree(name, root) for name, root in named_roots]
    for t in triples or []:
        out.append(tree(f"{t.h_name}_all", t.all_root))
        out.append(tree(f"{t.h_name}_light", t.light_root))
        out.append(
            f"digraph \"{t.h_name}\" {{\n  node [shape=plaintext];\n"
            f"  h [label=\"{t.h_name}({','.join(t.keys)})\"];\n"
            f"  a [label=\"{t.all_root!r}\"];\n"
            f"  l [label=\"not-exists {t.light_root!r}\"];\n"
            "  h -> a;\n  h -> l;\n}")
    return "\n".join(out)
