"""Skew-aware view-tree construction and materialization.

Construction mirrors the four recursive builders: plain view trees over a
canonical variable order, single-node creation with the same-schema collapse
rule, auxiliary aggregation views for dynamic maintenance, indicator triples
(All / L / H) for bound join variables, and the top-level skew-aware
splitter that forks into a light strategy over partitioned relations and
heavy strategies gated by the H indicators, sets of heavy keys (at
epsilon = 1, where no key can be heavy, the light strategy alone, over the
base relations).

Nodes built here carry no data.  The builders may return one node object in
several places; :func:`intern` then turns a forest into a DAG with one node
per distinct view.  The engine gives every leaf, as its content, the
relation it reads (a base relation or an H support; a light leaf reads its
occurrence's relation through its part's key set, :func:`light_key`) and
every distinct view a relation of its own, which it materializes bottom-up.

Join plans run as generated Python, from one emitter of fold lines
(:func:`fold_lines`): a kernel per plan shape materializes a view, and a
trigger per leaf path folds each view's delta and writes it into the view.
An update pass per relation symbol (:func:`pass_source`) runs a whole
update around the triggers, with the same one-row writes
(:func:`write_lines`).  Each is compiled once per process per shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .errors import InvariantViolationError, UnregisteredIndexError
from .query import Atom, ConjunctiveQuery, is_free_connex, is_q_hierarchical, min_cover
from .storage import Relation
from .vorder import VariableOrder

# node kinds
ATOM = "base-atom"
LIGHT = "light-part"
HEAVY_REF = "indicator-heavy"  # H support used inside a tree: each key once, as 1
JOIN = "join-view"
AUX = "aux-view"


class ViewNode:
    """One view in a tree: a join of its children projected to ``schema``."""

    __slots__ = ("name", "schema", "kind", "children", "content", "leaf_name",
                 "enum", "plan", "part")

    def __init__(self, name: str, schema: tuple[str, ...], kind: str,
                 children: list["ViewNode"] | None = None,
                 leaf_name: str | None = None):
        self.name = name
        self.schema = schema
        self.kind = kind
        self.children = children or []
        self.content: Relation | None = None
        self.leaf_name = leaf_name  # delta dispatch key for leaves
        self.enum = None  # enumeration annotations, filled per result tree
        self.plan: JoinPlan | None = None  # materialization plan, set by intern
        self.part: LightPart | None = None  # the light part whose keys filter a light leaf

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def semantics(self) -> str:
        """``"set"`` for an H leaf (each key once, as 1), else ``"multiset"``."""
        return "set" if self.kind == HEAVY_REF else "multiset"

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
    """The light part of one atom occurrence, partitioned on ``keys``: the
    rows of the occurrence's relation whose key is in ``content``, the set
    of light keys.  A key is in the set with all of its base tuples or with
    none, so the set determines the part and no relation copies its rows:
    a light leaf's content is the occurrence relation, which the folds
    read through the key set (:func:`light_key`)."""

    atom: Atom
    keys: tuple[str, ...]
    name: str
    key_positions: tuple[int, ...]  # positions of keys in the atom schema
    # the light keys as a 0/1 relation over ``keys``: {key: 1} per key
    content: Relation | None = None
    base: Relation | None = None  # the base relation it partitions
    occurrence: Relation | None = None  # the relation its leaves read


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
    epsilon: float  # the state's; only eps = 1 changes the forest (:func:`tau`)
    triples: list[IndicatorTriple] = field(default_factory=list)

    def order(self, varset) -> tuple[str, ...]:
        return tuple(sorted(varset, key=lambda v: (self.depth[v], v)))


def make_context(q: ConjunctiveQuery, vo: VariableOrder, free, mode: str,
                 epsilon: float = 0.0) -> BuildContext:
    depth = {v: vo.depth(v) for v in vo.variables()}
    return BuildContext(query=q, vo=vo, free=frozenset(free), mode=mode, depth=depth,
                        epsilon=epsilon)


# ---------------------------------------------------------------------------
# Leaf factories
# ---------------------------------------------------------------------------


def base_leaf(atom: Atom) -> ViewNode:
    return ViewNode(atom.name, atom.schema, ATOM, leaf_name=atom.name)


def light_leaf(lp: LightPart) -> ViewNode:
    leaf = ViewNode(lp.name, lp.atom.schema, LIGHT, leaf_name=lp.name)
    leaf.part = lp
    return leaf


def heavy_ref_leaf(triple: IndicatorTriple) -> ViewNode:
    return ViewNode(triple.support_name, triple.keys, HEAVY_REF,
                    leaf_name=triple.support_name)


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

    At eps = 1 every residual counts as easy, and the forest is the plain
    view tree over the base relations: a key's degree is at most N, and
    N < M = M^eps, the threshold, at preprocessing and after every major,
    so no key is ever heavy.  The light strategy over parts that hold every
    row is that tree, and every heavy tree and indicator triple would stay
    empty.
    """
    if isinstance(node, Atom):
        return [base_leaf(node)]
    x = node
    vo = ctx.vo
    keys = set(vo.anc(x)) | {x}
    f_x = set(vo.anc(x)) | (set(ctx.free) & set(vo.subtree_vars(x)))
    residual = ConjunctiveQuery(
        "Qx", ctx.order(f_x), tuple(a for a in vo.subtree_atoms(x)))
    easy = ctx.epsilon == 1 or (is_free_connex(residual) if ctx.mode == "static"
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
    schema and interned children, so a view equals another when
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
        key = (root.schema, tuple(id(c) for c in root.children))
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
    # a light leaf's key positions in the child schema, which the step tests
    # before it reads the leaf's rows (see :func:`light_key`); else empty
    light: tuple[int, ...] = ()


@dataclass(frozen=True)
class JoinPlan:
    start_index: int  # child the iteration starts from (or delta source)
    steps: tuple[JoinStep, ...]
    acc_schema: tuple[str, ...]
    out_positions: tuple[int, ...]  # projection of acc onto the view schema
    # the plan's kernel over the live dicts of the relations it reads; the
    # engine binds materialization plans only, as its delta plans run
    # inside the leaves' triggers
    fold: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def bind(self, children: list[ViewNode]) -> None:
        """Bind the plan, once, to the relations of ``children`` (the
        children of the one view the plan belongs to): the kernel of the
        plan's shape (see :func:`kernel_source`) is given the start child's
        counters and each step's ``get`` (a lookup's ``entries.get``, an
        index scan's ``index.get``) and entries.  A relation keeps its
        ``entries`` and index dicts for its lifetime, ``load`` and ``clear``
        included, so the binding stays valid; a scan step whose index is
        not registered raises :class:`UnregisteredIndexError` here."""
        object.__setattr__(self, "fold", _bind(self, children))


def plan_shape(plan: JoinPlan) -> tuple:
    """What the plan's kernel is generated from: the start-row width, each
    step's kind (lookup, index scan or cross product), positions and light
    key (:func:`light_key`), and the output positions.  Integers and kinds
    only."""
    width = len(plan.acc_schema) - sum(len(s.new_positions) for s in plan.steps)
    steps = tuple(("lookup" if s.mode == "lookup" else "index" if s.child_positions
                   else "cross", s.acc_positions, s.new_positions, light_key(s))
                  for s in plan.steps)
    return width, steps, plan.out_positions


def light_key(step: JoinStep) -> tuple[int, ...] | None:
    """How ``step`` reads its child: ``None`` for any child but a light
    leaf, else the accumulator positions of the leaf's light key, which
    the step tests in the part's key set before a lookup gets the row or an index step
    fetches the occurrence relation's bucket.  Each read counts one op.  A
    cross product or an index that misses part of the key would read heavy
    keys' rows: it raises :class:`InvariantViolationError`.  (Under a variable x, the
    shared positions of a hierarchical query's joins hold anc(x) and x,
    which cover the key.)"""
    if not step.light:
        return None
    at = dict(zip(step.child_positions, step.acc_positions))
    if not all(p in at for p in step.light):
        raise InvariantViolationError(
            f"a step reads light leaf {step.child_index} at positions "
            f"{step.child_positions}, which do not cover its key {step.light}")
    return tuple(at[p] for p in step.light)


def fold_lines(shape: tuple, rows: str, out: str, prefix: str, depth: int) -> list[str]:
    """Python lines, indented ``depth`` levels, that fold ``rows`` (an
    expression for sized ``(row, multiplicity)`` pairs) through the plan of
    ``shape`` (a :func:`plan_shape`) into the dict named ``out``.  Step
    ``j`` calls the ``get`` named ``{prefix}g{j}`` and reads the entries
    named ``{prefix}e{j}``.

    The steps are nested loops over the start rows and the rows each scan
    yields; every key and output row is a tuple display of the start row's
    values (``a0, a1, ...``) and of scanned child rows (``c1[0]``), and
    every multiplicity is the product of the start row's and each step's.
    A step over a light leaf first skips a row whose light key is not in
    the key set named ``{prefix}l{j}`` (:func:`light_key`).
    The lines add their ops to the local ``n``: per step, one per row that
    reaches it, plus the size of an index bucket it fetches, or, for a
    cross product, the child's entries per row instead.  Where the output
    keeps every accumulated position, distinct start rows give distinct
    output rows, and each is stored as it is made; otherwise their
    multiplicities are summed and a zero sum dropped."""
    width, steps, out_positions = shape
    expr = [f"a{p}" for p in range(width)]  # accumulator position -> value
    whole = {tuple(range(width)): "r"} if width else {}
    unpack = False  # whether a key reads the start row's values one by one

    def display(positions: tuple[int, ...]) -> str:
        nonlocal unpack
        if positions in whole:
            return whole[positions]
        unpack = unpack or any(p < width for p in positions)
        values = [expr[p] for p in positions]
        return f"({values[0]},)" if len(values) == 1 else f"({', '.join(values)})"

    body: list[str] = []
    level, mult = depth + 1, "m"

    def emit(*texts: str) -> None:
        body.extend("    " * level + text for text in texts)

    for j, (kind, acc_positions, new_positions, light) in enumerate(steps):
        get, entries, factor = f"{prefix}g{j}", f"{prefix}e{j}", f"x{j}"
        if kind == "cross":
            if j:
                emit(f"n += len({entries})")
            emit(f"for c{j}, x{j} in {entries}.items():")
            whole[tuple(range(len(expr), len(expr) + len(new_positions)))] = f"c{j}"
        else:
            if j:
                emit("n += 1")
            key = display(acc_positions)
            if light is not None:
                test = display(light)
                if light == acc_positions:  # the step's key is the light key
                    emit(f"k{j} = {key}")
                    key = test = f"k{j}"
                emit(f"if {test} not in {prefix}l{j}:", "    continue")
            if kind == "lookup":
                emit(f"x{j} = {get}({key})", f"if not x{j}:", "    continue")
            else:
                emit(f"b{j} = {get}({key})", f"if not b{j}:", "    continue",
                     f"n += len(b{j})", f"for c{j} in b{j}:")
                factor = f"{entries}[c{j}]"
        if kind != "lookup":
            level += 1
            expr.extend(f"c{j}[{p}]" for p in new_positions)
        if j == len(steps) - 1:  # the output takes it as it is
            mult = f"{mult} * {factor}"
        else:
            emit(f"m{j} = {mult} * {factor}")
            mult = f"m{j}"
    key = display(out_positions)
    if set(out_positions) == set(range(len(expr))):
        emit(f"{out}[{key}] = {mult}")
    else:
        emit(f"k = {key}", f"if k in {out}:", f"    v = {out}[k] + {mult}", "    if v:",
             f"        {out}[k] = v", "    else:", f"        del {out}[k]", "else:",
             f"    {out}[k] = {mult}")
    pad = "    " * depth
    lines = []
    if steps:  # a plan with no steps projects its start rows and reads nothing
        cross = f" * len({prefix}e0)" if steps[0][0] == "cross" else ""
        lines.append(f"{pad}n += len({rows}){cross}")
    lines.append(f"{pad}for r, m in {rows}:")
    if unpack:
        lines.append(f"{pad}    {', '.join(expr[:width])}, = r")
    return lines + body


def kernel_source(shape: tuple) -> str:
    """Python source of the kernel factory for ``shape`` (a
    :func:`plan_shape`).  ``factory(counters, g0, e0, l0, g1, ...)`` takes
    the counters the fold credits and, per step, the ``get`` it calls, the
    entries it reads and a light leaf's key set, and returns ``fold(rows)``:
    the lines of :func:`fold_lines` into a new dict, their ops added to
    ``counters`` once at the end."""
    args = "".join(f", g{j}, e{j}, l{j}" for j in range(len(shape[1])))
    return "\n".join([f"def factory(counters{args}):", "    def fold(rows):",
                      "        out = {}", "        n = 0",
                      *fold_lines(shape, "rows", "out", "", 2),
                      "        counters.storage_ops += n", "        return out",
                      "    return fold", ""])


def _display(positions: tuple[int, ...]) -> str:
    """A tuple display of the values of the row ``r`` at ``positions``."""
    values = [f"r[{p}]" for p in positions]
    return f"({values[0]},)" if len(values) == 1 else f"({', '.join(values)})"


def _row_write(prefix: str, indexes: tuple[tuple[int, ...], ...]) -> list[str]:
    """Unindented lines that write the row ``r`` with multiplicity ``m``
    into a relation and add to ``n`` the index ops of an entry created or
    removed (see :func:`write_lines`)."""
    insert: list[str] = []
    remove: list[str] = []
    for q, positions in enumerate(indexes):
        index = f"{prefix}i{q}"
        key = _display(positions)
        insert += [f"k = {key}", f"b = {index}.get(k)", "if b is None:",
                   f"    {index}[k] = {{r: None}}", "else:", "    b[r] = None"]
        remove += [f"k = {key}", f"b = {index}[k]", "del b[r]", "if not b:",
                   f"    del {index}[k]"]
    if indexes:  # an entry created or removed touches each index once
        insert.append(f"n += {len(indexes)}")
        remove.append(f"n += {len(indexes)}")
    return [f"o = {prefix}get(r)", "if o is None:", f"    {prefix}w[r] = m",
            *("    " + text for text in insert),
            "else:", "    o += m", "    if o:", f"        {prefix}w[r] = o",
            "    else:", f"        del {prefix}w[r]",
            *("        " + text for text in remove)]


def write_lines(delta: str | None, prefix: str, indexes: tuple[tuple[int, ...], ...],
                depth: int) -> list[str]:
    """Python lines, indented ``depth`` levels, that write the dict named
    ``delta`` into a relation and add to ``n`` what :meth:`Relation.add`
    counts, as it does: ``{prefix}w`` names the relation's entries,
    ``{prefix}get`` their ``get`` and ``{prefix}i{q}`` its index on
    ``indexes[q]``, whose keys are tuple displays of the row's values.
    With no ``delta``, the one-row form: the lines write the row ``r``
    with multiplicity ``m``, as ``add({r: m})`` would."""
    if delta is None:
        lines = ["n += 1", *_row_write(prefix, indexes)]
    else:
        lines = [f"n += len({delta})", f"for r, m in {delta}.items():",
                 *("    " + text for text in _row_write(prefix, indexes))]
    return ["    " * depth + text for text in lines]


def trigger_shape(steps: list[tuple[ViewNode, JoinPlan, int]]) -> tuple:
    """What the trigger of a leaf's ``steps`` (see
    ``ViewDag.leaf_paths``) is generated from: per step, the shape of its
    delta plan, the step its source delta comes from (-1 for the leaf) and
    the positions of each index of the view's relation, in their order."""
    return tuple((plan_shape(plan), src, tuple(node.content.indexes))
                 for node, plan, src in steps)


def trigger_source(shape: tuple) -> str:
    """Python source of the trigger factory for ``shape`` (a
    :func:`trigger_shape`).  ``factory(counters, ...)`` takes the counters
    the trigger credits and, per step ``i``, the gets, entries and key
    sets its fold reads (``s{i}_g0, s{i}_e0, s{i}_l0, ...``), the view's
    entries and their ``get`` and the view's index dicts, and returns
    ``trigger(d)``.  The trigger
    runs the steps as straight-line code, in order: a step whose source
    delta (``d``, the leaf's, or ``d{src}``) is empty keeps it as its own
    delta ``d{i}``; any other folds it into ``d{i}`` (:func:`fold_lines`)
    and writes a nonempty result into the view (:func:`write_lines`).  The
    ops of every fold and write go to one local, added to ``counters``
    once, and the trigger returns the steps' deltas."""
    args, body = ["counters"], []
    for i, (plan, src, indexes) in enumerate(shape):
        prefix = f"s{i}_"
        args += [f"{prefix}{name}{j}" for j in range(len(plan[1])) for name in "gel"]
        args += [f"{prefix}w", f"{prefix}get"] + [f"{prefix}i{q}" for q in range(len(indexes))]
        source = f"d{src}" if src >= 0 else "d"
        body += [f"if {source}:", f"    d{i} = {{}}",
                 *fold_lines(plan, f"{source}.items()", f"d{i}", prefix, 1),
                 f"    if d{i}:", *write_lines(f"d{i}", prefix, indexes, 2),
                 "else:", f"    d{i} = {source}"]
    deltas = ", ".join(f"d{i}" for i in range(len(shape)))
    return "\n".join([f"def factory({', '.join(args)}):", "    def trigger(d):", "        n = 0",
                      *("        " + text for text in body),
                      "        counters.storage_ops += n", f"        return [{deltas}]",
                      "    return trigger", ""])


# one occurrence of a symbol: its leaf name, its relation, and the (triple,
# light part) pairs that partition it
Route = tuple[str, Relation, tuple[tuple[IndicatorTriple, LightPart], ...]]


def pass_shape(base: Relation, routes: list[Route]) -> tuple:
    """What the update pass of a symbol is generated from: the positions of
    each index of its base relation ``base`` and, per occurrence of
    ``routes``, the positions of each index of its own relation (``None``
    for the first occurrence, whose relation is ``base``) and per pair the
    light part's key positions and whether they cover the schema (so that
    no key index exists and a key is read in the entries, as
    :meth:`Relation.count` does)."""
    return tuple(base.indexes), tuple(
        (None if rel is base else tuple(rel.indexes),
         tuple((lp.key_positions, lp.key_positions not in base.indexes) for _, lp in pairs))
        for _, rel, pairs in routes)


def pass_source(shape: tuple) -> str:
    """Python source of the update pass factory for ``shape`` (a
    :func:`pass_shape`).  ``factory(counters, dag, ...)`` takes the
    engine state's counters and view DAG, the base relation's write
    handles (as a trigger takes a view's), and per occurrence ``i`` a later
    occurrence's write handles and the leaf name ``o{i}_leaf``, and per
    pair ``p`` (numbered across occurrences) its triple, light part, All
    and L roots with their entries, the base's key dict (key index, or
    entries), the light part's key set, the light part's leaf name and
    H's leaf name.  It returns ``(pass, light steps)``.

    ``pass(st, r, m, bounds)`` applies ``{r: m}`` to the engine state
    ``st`` as straight-line code: the light-path test of every pair,
    through ``st._light_path_conditions``; the base write
    (:func:`write_lines`, one row); then per occurrence in
    query order, its own write if it is a later one, the All roots' gets,
    ``st._apply`` of the leaf, and per pair the All transition, then on the
    light path the change to the part's key set and the pair's light step, else H's change from
    the All transition; last, unless ``bounds`` is ``None`` (a major
    follows), the minor checks against ``bounds``, ``(M, evict_at,
    reinsert_below)``.  On the light path a key new to the base (as the
    route test read it) enters the key set, one op; after a delete, one read of the
    base's key bucket tells whether the key's last base tuple went, and
    then it leaves the key set, one more op.  No light row is written, as the light
    leaves read the occurrence's relation, which already holds the update.

    ``light{p}(st, r, m, key, d_all)``, the pair's light step, propagates
    ``{r: m}`` from the light part's leaf (``st._apply``), takes L's
    transition at ``key`` and settles H's change once, from L's transition
    if it has one, else from ``d_all``, All's: L's support lies inside All's
    and agrees with it on a key every light part holds, so a key that
    enters (or leaves) All and L in one update never touches H.  No view
    above a light part reads its triple's H or the part itself, so the
    light step does not depend on when H or the key set changes.  A
    transition of 0 makes no H change and no call.

    Every layer that tracing wraps (the route test, ``_apply``, the
    indicator steps, ``_minor_rebalancing``) is called through ``st`` at
    call time.  ``st`` is an argument, not a closure cell, so that a state
    and its passes make no reference cycle and a dropped state is freed at
    once.  The gets and writes of the pass count what the storage
    primitives would, in one local added to ``counters`` once."""
    base_indexes, occurrences = shape
    args = ["counters", "dag", *_write_params("w_", base_indexes)]
    pairs: list[tuple[str, str]] = []  # (key display, base key read) per pair
    update = ["n = 0", *write_lines(None, "w_", base_indexes, 0)]
    for i, (own, occurrence_pairs) in enumerate(occurrences):
        if own is not None:
            args += _write_params(f"o{i}_", own)
            update += write_lines(None, f"o{i}_", own, 0)
        args.append(f"o{i}_leaf")
        first = len(pairs)
        for positions, whole in occurrence_pairs:
            p = len(pairs)
            # a whole key is read in the base as the row it covers, which
            # may order it otherwise
            pairs.append((_display(positions), "r" if whole else f"k{p}"))
            args += [f"p{p}_{name}" for name in
                     ("t", "lp", "all", "ae", "light", "le", "bk", "lk", "leaf", "h")]
            update.append(f"x{p} = p{p}_ae.get(k{p}, 0)")
        if occurrence_pairs:
            update.append(f"n += {len(occurrence_pairs)}")
        update.append(f"st._apply(dag, o{i}_leaf, {{r: m}})")
        for p in range(first, len(pairs)):
            update += [f"d = st._update_ind_tree(p{p}_all, k{p}, x{p})", f"if c{p}:",
                       f"    if k{p} not in p{p}_lk:", f"        p{p}_lk[k{p}] = 1",
                       "        n += 1", "    elif m < 0:", "        n += 1",
                       f"        if {pairs[p][1]} not in p{p}_bk:",
                       f"            del p{p}_lk[k{p}]", "            n += 1",
                       f"    light{p}(st, r, m, k{p}, d)", "elif d:",
                       f"    h = st._h_all_change(p{p}_t, k{p}, d)", "    if h:",
                       f"        st._apply(dag, p{p}_h, h)"]
    if pairs:
        update += ["if bounds is not None:", "    _, evict_at, reinsert_below = bounds"]
        for p, (_, read) in enumerate(pairs):
            update += ["    " + text for text in _minor_check(p, read)]
    update.append("counters.storage_ops += n")
    tests = [f"{'r' if read == 'r' else key} not in p{p}_bk or {key} in p{p}_lk"
             for p, (key, read) in enumerate(pairs)]
    lines = [f"def factory({', '.join(args)}):", "    def conditions(r):",
             *([f"        counters.storage_ops += {2 * len(pairs)}"] if pairs else []),
             f"        return ({''.join(test + ', ' for test in tests)})"]
    for p in range(len(pairs)):
        lines += ["    " + text for text in _light_step(p)]
    test = "st._light_path_conditions(conditions, r)"
    if pairs:
        test = f"{''.join(f'c{p}, ' for p in range(len(pairs)))}= {test}"
    lines += ["    def update_pass(st, r, m, bounds):",
              *(f"        k{p} = {key}" for p, (key, _) in enumerate(pairs)),
              f"        {test}", *("        " + text for text in update),
              f"    return update_pass, ({''.join(f'light{p}, ' for p in range(len(pairs)))})",
              ""]
    return "\n".join(lines)


def _light_step(p: int) -> list[str]:
    """Unindented lines of pair ``p``'s light step (see
    :func:`pass_source`)."""
    return [f"def light{p}(st, r, m, key, d_all):",
            f"    x = p{p}_le.get(key, 0)", "    counters.storage_ops += 1",
            f"    st._apply(dag, p{p}_leaf, {{r: m}})",
            f"    d = st._update_ind_tree(p{p}_light, key, x)", "    if d:",
            f"        h = st._h_light_change(p{p}_t, key, d)", "    elif d_all:",
            f"        h = st._h_all_change(p{p}_t, key, d_all)", "    else:",
            "        return", "    if h:", f"        st._apply(dag, p{p}_h, h)"]


def _minor_check(p: int, read: str) -> list[str]:
    """Unindented lines of pair ``p``'s minor check at its key ``k{p}``: a
    key outside the part's key set is inserted if the base holds it below
    ``reinsert_below`` times, one in it that the base holds ``evict_at``
    times or more is evicted.  The membership test and the degree it gives count
    one op, and the base's degree one more where the key set lacks the key.
    ``read`` is the base key dict's key, the row ``r`` for a whole key."""
    degree = f"(r in p{p}_bk)" if read == "r" else f"len(p{p}_bk.get(k{p}, ()))"
    return ["n += 1", f"if k{p} in p{p}_lk:", f"    if {degree} >= evict_at:",
            f"        st._minor_rebalancing(p{p}_t, p{p}_lp, k{p}, False)", "else:",
            "    n += 1", f"    if 0 < {degree} < reinsert_below:",
            f"        st._minor_rebalancing(p{p}_t, p{p}_lp, k{p}, True)"]


def _write_params(prefix: str, indexes: tuple) -> list[str]:
    """The factory parameters a relation's write handles bind to (see
    :func:`_write_args`)."""
    return [f"{prefix}w", f"{prefix}get", *(f"{prefix}i{q}" for q in range(len(indexes)))]


def _write_args(rel: Relation) -> list:
    """What a generated write of ``rel`` binds: its entries, their ``get``
    and its index dicts, in their order."""
    return [rel.entries, rel.entries.get, *rel.indexes.values()]


# plan shape -> kernel factory, trigger shape -> trigger factory and pass
# shape -> update pass factory, each compiled once per process
_FACTORIES: dict[tuple, Callable] = {}
_TRIGGERS: dict[tuple, Callable] = {}
_PASSES: dict[tuple, Callable] = {}


def _compiled(cache: dict[tuple, Callable], shape: tuple, source: Callable,
              kind: str) -> Callable:
    factory = cache.get(shape)
    if factory is None:
        namespace: dict = {}
        # one file name per shape, so that profiles tell the factories apart
        name = f"<{kind} {len(cache)}>"
        exec(compile(source(shape), name, "exec"), namespace)
        factory = cache[shape] = namespace["factory"]
    return factory


def _fold_args(plan: JoinPlan, children: list[ViewNode]) -> list:
    """Per step of ``plan``, the ``get`` its fold calls over the relations
    of ``children`` (a lookup's ``entries.get``, an index scan's
    ``index.get``), the entries it reads and the key set it tests (a light
    leaf's part's key set, else ``None``)."""
    args: list = []
    for step in plan.steps:
        child = children[step.child_index]
        rel = child.content
        if step.mode == "lookup":
            get = rel.entries.get
        elif step.child_positions:
            index = rel.indexes.get(step.child_positions)
            if index is None:
                raise UnregisteredIndexError(
                    f"{rel.name}: no index on positions {step.child_positions}")
            get = index.get
        else:
            get = None
        args += (get, rel.entries, child.part.content.entries if step.light else None)
    return args


def _bind(plan: JoinPlan, children: list[ViewNode]) -> Callable:
    """The kernel of ``plan``'s shape over the relations of ``children``."""
    factory = _compiled(_FACTORIES, plan_shape(plan), kernel_source, "join kernel")
    return factory(children[plan.start_index].content.counters,
                   *_fold_args(plan, children))


def compile_trigger(steps: list[tuple[ViewNode, JoinPlan, int]], counters) -> Callable:
    """The trigger of a leaf's ``steps`` (see :func:`trigger_source`) over
    the relations they read and write, crediting ``counters``.  It writes
    each view's indexes as they are now, so every index is registered
    before it is compiled."""
    args: list = [counters]
    for node, plan, _ in steps:
        args += _fold_args(plan, node.children)
        args += _write_args(node.content)
    return _compiled(_TRIGGERS, trigger_shape(steps), trigger_source, "trigger")(*args)


def compile_pass(counters, dag, base: Relation,
                 routes: list[Route]) -> tuple[Callable, dict[str, Callable]]:
    """The update pass of the symbol whose base relation is ``base`` and
    whose occurrences are ``routes``, in query order (see
    :func:`pass_source`), over the relations they name, crediting
    ``counters`` and propagating through ``dag``, and each light part's
    light step by its leaf name.  Like a trigger, it writes each
    relation's indexes as they are now."""
    args: list = [counters, dag, *_write_args(base)]
    light_parts = []
    for leaf_name, rel, pairs in routes:
        if rel is not base:
            args += _write_args(rel)
        args.append(leaf_name)
        for triple, lp in pairs:
            args += [triple, lp, triple.all_root, triple.all_root.content.entries,
                     triple.light_root, triple.light_root.content.entries,
                     base.indexes.get(lp.key_positions, base.entries), lp.content.entries,
                     lp.name, triple.support_name]
            light_parts.append(lp.name)
    factory = _compiled(_PASSES, pass_shape(base, routes), pass_source, "update pass")
    update_pass, steps = factory(*args)
    return update_pass, dict(zip(light_parts, steps))


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
        light = child.part.key_positions if child.part is not None else ()
        steps.append(JoinStep(i, mode, child_pos, acc_pos, new_pos, light))
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
    """Fold ``start_rows`` (distinct rows over the plan's start schema with
    nonzero multiplicities, as a dict's items, and sized) through the
    plan's steps, returning the aggregated projection.  A bound plan (see
    :meth:`JoinPlan.bind`) runs its kernel; an unbound one is bound to
    ``children`` for this call.  The engine folds this way to materialize
    a view and to check one against its recomputation; an update's delta
    folds run inside the triggers (:func:`trigger_source`), from the same
    generated lines.

    The kernel reads the children's entries and index buckets directly and
    adds to the start child's ``Counters.storage_ops``, in one sum, what
    the storage primitives would count one by one: a lookup is one
    ``get``, an index scan is one bucket fetch plus one per matching row,
    and a scan with no shared positions is one per entry of the child, for
    each row that reaches the step.  An H leaf, all 1s, multiplies as any
    child does.  Rows are
    made depth first, in the order a step-by-step fold makes them, so the
    result's insertion order is that fold's too."""
    fold = plan.fold
    if fold is None:
        fold = _bind(plan, children)
    return fold(start_rows)


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
