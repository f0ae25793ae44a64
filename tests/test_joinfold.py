"""The generated join kernels and triggers against the generator-based
fold and the per-view writes they replaced.

``reference_run_join`` (in ``conftest``) and ``reference_materialize`` are
the fold as it was written over the storage primitives (``Relation.get``
and the ``Relation.scan`` generator), each bumping ``storage_ops`` once.  A
kernel must give the same result and count the same ops; a trigger must
give the deltas, contents, index order and ops of that fold followed by
``Relation.add`` on each view.
"""

from __future__ import annotations

import io
import random
import tokenize

import pytest

from skewivm import enumeration, viewtree
from skewivm.engine import EngineState, materialize_node, preprocess
from skewivm.enumeration import TreeIter, cursor_source, probe_source
from skewivm.errors import InvariantViolationError, UnregisteredIndexError
from skewivm.metrics import Counters
from skewivm.oracle import brute_force_eval
from skewivm.query import Atom, parse_query
from skewivm.storage import Relation
from skewivm.viewtree import (
    ATOM,
    HEAVY_REF,
    JOIN,
    LightPart,
    ViewNode,
    delta_plan,
    kernel_source,
    light_leaf,
    materialize_plan,
    compile_trigger,
    pass_source,
    plan_shape,
    run_join,
    trigger_shape,
    trigger_source,
)

from conftest import parse, reference_run_join


def reference_materialize(node, plan):
    rel = node.children[plan.start_index].content
    node.content.load(reference_run_join(plan, node.children, rel.scan((), ())))


# (child schemas, view schema, H child indexes): every plan over these
# folds at least one lookup, index scan or cross product, and the delta
# plans from child 0 of the last four nest a step in an index scan's loop:
# a second index scan, a lookup whose miss skips one scanned row, a cross
# product, and a scan of an H leaf
CASES = {
    "lookup": ((("A", "B"), ("A", "B"), ("A",)), ("A", "B"), ()),
    "index-scan": ((("A", "B"), ("B", "C")), ("A", "C"), ()),
    "set-child": ((("A", "B"), ("B", "C"), ("B",)), ("B",), (2,)),
    "cross": ((("A",), ("B", "C")), ("A", "C"), ()),
    "boolean": ((("A", "B"), ("B",)), (), (1,)),
    "wide": ((("A", "B", "C"), ("C", "A", "D"), ("D",)), ("B", "D"), ()),
    "index-index": ((("A", "B"), ("B", "C"), ("C", "D")), ("A", "D"), ()),
    "index-lookup": ((("A", "B"), ("B", "C"), ("A", "C")), ("A", "C"), ()),
    "index-cross": ((("A", "B"), ("B", "C"), ("D",)), ("A", "C", "D"), ()),
    "set-scan": ((("A", "B"), ("B", "C"), ("C",)), ("A", "C"), (1,)),
}


def make_node(case, counters):
    """The view of ``case`` over leaves that count on ``counters`` as the
    view does; an H child is a ``HEAVY_REF`` leaf."""
    schemas, view_schema, h_children = CASES[case]
    children = []
    for i, schema in enumerate(schemas):
        leaf = ViewNode(f"C{i}", schema, HEAVY_REF if i in h_children else ATOM,
                        leaf_name=f"C{i}")
        leaf.content = Relation(leaf.name, schema, counters)
        children.append(leaf)
    node = ViewNode("V", view_schema, JOIN, children)
    node.content = Relation("V", view_schema, counters)
    return node


def fill(node, rng, negative, values=None):
    """Up to 24 rows per child over ``values`` (default: 0 to 3); an H
    child holds each of its rows once, with multiplicity 1, as the engine
    fills H."""
    for child in node.children:
        for _ in range(rng.randrange(0, 25)):
            row = tuple(rng.randrange(4) if values is None else rng.choice(values)
                        for _ in child.schema)
            if child.kind == HEAVY_REF:
                if row not in child.content.entries:
                    child.content.add({row: 1})
                continue
            m = rng.choice((-2, -1, 1, 2, 3) if negative else (1, 2, 3))
            child.content.add({row: m})


def register(node, plan):
    for step in plan.steps:
        if step.mode == "scan":
            node.children[step.child_index].content.register_index(step.child_positions)


def counted(counters, fn, *args):
    before = counters.storage_ops
    out = fn(*args)
    return out, counters.storage_ops - before


def reference_trigger(steps, delta):
    """A trigger's work over the reference fold, each view delta written
    with ``Relation.add``."""
    out = []
    for node, plan, src in steps:
        current = delta if src < 0 else out[src]
        if current:
            current = reference_run_join(plan, node.children, current.items())
            if current:
                node.content.add(current)
        out.append(current)
    return out


def twin(case, node, counters):
    """A copy of ``node`` of ``case`` counting on ``counters``: every
    relation registers the same indexes and holds the same entries, in the
    same order."""
    copy = make_node(case, counters)
    for mine, theirs in zip(copy.children + [copy], node.children + [node]):
        for positions in theirs.content.indexes:
            mine.content.register_index(positions)
        mine.content.load(theirs.content.entries)
    return copy


def ordered(rel):
    """Entries, and per index its keys and buckets, in their order."""
    return (list(rel.entries.items()),
            {p: [(k, list(b)) for k, b in ix.items()] for p, ix in rel.indexes.items()})


def check_triggers(case, node, counters, rng, values=None):
    """The one-step trigger of each of ``node``'s delta plans, over a few
    deltas, against :func:`reference_trigger` on a twin; returns the
    triggers' sources."""
    sources = []
    ref_counters = Counters()
    ref = twin(case, node, ref_counters)
    for i in range(len(node.children)):
        steps = [(node, delta_plan(node, i), -1)]
        ref_steps = [(ref, delta_plan(ref, i), -1)]
        trigger = compile_trigger(steps, counters)
        sources.append(trigger_source(trigger_shape(steps)))
        for _ in range(3):
            schema = node.children[i].schema
            delta = {tuple(rng.randrange(4) if values is None else rng.choice(values)
                           for _ in schema): rng.choice((-1, 1, 3))
                     for _ in range(rng.randrange(1, 5))}
            got = counted(counters, trigger, delta)
            assert got == counted(ref_counters, reference_trigger, ref_steps, delta)
            assert ordered(node.content) == ordered(ref.content)
    assert trigger({}) == [{}]  # an empty delta is skipped
    return sources


@pytest.mark.parametrize("negative", (False, True), ids=("positive", "negative"))
@pytest.mark.parametrize("case", sorted(CASES))
def test_trigger_matches_reference_fold_and_add(case, negative):
    # a view with an index of its own, which each write keeps up to date
    rng = random.Random(f"trigger:{case}:{negative}")
    for _ in range(10):
        counters = Counters()
        node = make_node(case, counters)
        for plan in all_plans(node):
            register(node, plan)
        node.content.register_index(tuple(range(1, len(node.schema))))
        fill(node, rng, negative)
        check_triggers(case, node, counters, rng)


@pytest.mark.parametrize("negative", (False, True), ids=("positive", "negative"))
@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_delta_fold_matches_reference(case, negative):
    rng = random.Random(f"{case}:{negative}")
    for _ in range(15):
        counters = Counters()
        node = make_node(case, counters)
        plans = [delta_plan(node, i) for i in range(len(node.children))]
        for plan in plans:
            register(node, plan)
        fill(node, rng, negative)
        for i, plan in enumerate(plans):
            schema = node.children[i].schema
            delta = {tuple(rng.randrange(4) for _ in schema): rng.choice((-1, 1, 2))
                     for _ in range(rng.randrange(1, 6))}
            want, want_ops = counted(counters, reference_run_join, plan,
                                     node.children, delta.items())
            got, got_ops = counted(counters, run_join, plan, node.children, delta.items())
            assert list(got.items()) == list(want.items())  # in the same order
            assert got_ops == want_ops


@pytest.mark.parametrize("negative", (False, True), ids=("positive", "negative"))
@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_materialize_matches_reference(case, negative):
    rng = random.Random(f"mat:{case}:{negative}")
    for _ in range(15):
        counters = Counters()
        node = make_node(case, counters)
        plan = materialize_plan(node)
        register(node, plan)
        fill(node, rng, negative)
        _, want_ops = counted(counters, reference_materialize, node, plan)
        want = list(node.content.entries.items())
        _, got_ops = counted(counters, materialize_node, node, plan)
        assert list(node.content.entries.items()) == want  # in the same order
        assert got_ops == want_ops


def all_plans(node):
    """The node's delta plan from each child, then its materialization plan."""
    return [delta_plan(node, i) for i in range(len(node.children))] + [materialize_plan(node)]


def test_cases_cover_every_step_kind():
    kinds = set()
    for case in CASES:
        node = make_node(case, Counters())
        for plan in all_plans(node):
            earlier = set()
            for step in plan.steps:
                is_h = node.children[step.child_index].kind == HEAVY_REF
                if step.mode == "lookup":
                    kind = "lookup"
                else:
                    kind = "index" if step.child_positions else "cross"
                    if is_h:
                        kinds.add("set scanned")
                kinds.add(kind)
                if is_h:
                    kinds.add("set")
                if "index" in earlier:
                    kinds.add(f"{kind} after index")
                earlier.add(kind)
    assert kinds == {"lookup", "index", "cross", "set", "set scanned",
                     "index after index", "lookup after index", "cross after index"}


def test_missing_index_raises():
    counters = Counters()
    node = make_node("index-scan", counters)
    node.children[1].content.add({(1, 2): 1})
    plan = delta_plan(node, 0)  # scans child 1 on B, whose index is unregistered
    with pytest.raises(UnregisteredIndexError):
        reference_run_join(plan, node.children, [((0, 1), 1)])
    with pytest.raises(UnregisteredIndexError):
        run_join(plan, node.children, [((0, 1), 1)])
    with pytest.raises(UnregisteredIndexError):  # a bound plan fails at binding
        plan.bind(node.children)


@pytest.mark.parametrize("other,key", [(("C",), ("B",)), (("A", "C"), ("A", "B"))],
                         ids=("cross", "index-missing-key"))
def test_a_plan_that_reads_a_light_leaf_past_its_key_does_not_compile(other, key):
    # a light leaf is read through its part's key set L, so a step over it
    # must bind the whole key: a cross product, or an index on part of the
    # key, would read heavy keys' rows; nor is a light leaf enumerated
    atom = Atom("R", ("A", "B"), 0)
    lp = LightPart(atom, key, "R#0^" + "".join(key), tuple(atom.schema.index(v) for v in key))
    leaf = light_leaf(lp)
    node = ViewNode("V", ("A", "B", "C"), JOIN, [ViewNode("T", other, ATOM, leaf_name="T"), leaf])
    plan = delta_plan(node, 0)  # from T, then the light leaf
    assert plan.steps[0].light == lp.key_positions
    with pytest.raises(InvariantViolationError, match="do not cover its key"):
        run_join(plan, node.children, [])
    with pytest.raises(InvariantViolationError, match="a light leaf is enumerated"):
        enumeration.annotate(leaf, frozenset("AB"))


@pytest.mark.parametrize("miss", (1, 2, 3, None))
def test_one_row_lookup_fold_counts_each_step_reached(miss):
    # a single row through a plan of lookups only stops at the first step
    # whose get misses, having counted one op per step reached, as the
    # reference counts
    counters = Counters()
    schemas = (("A", "B"), ("A", "B"), ("A",), ("B",))
    children = []
    for i, schema in enumerate(schemas):
        leaf = ViewNode(f"C{i}", schema, HEAVY_REF if i == 2 else ATOM, leaf_name=f"C{i}")
        leaf.content = Relation(leaf.name, schema, counters)
        children.append(leaf)
    node = ViewNode("V", ("A",), JOIN, children)
    plan = delta_plan(node, 0)
    assert all(step.mode == "lookup" for step in plan.steps)
    assert [step.child_index for step in plan.steps] == [1, 2, 3]
    for i, row in ((1, (1, 2)), (2, (1,)), (3, (2,))):
        if i != miss:  # an H entry is 1
            children[i].content.add({row: 1 if i == 2 else 3})
    plan.bind(children)
    start = {(1, 2): 2}
    got = counted(counters, run_join, plan, children, start.items())
    assert got == counted(counters, reference_run_join, plan, children, start.items())
    # 2 * 3 * (the H entry) 1 * 3
    assert got == (({}, miss) if miss else ({(1,): 18}, 3))


@pytest.mark.parametrize("case", sorted(CASES))
def test_values_never_reach_the_generated_source(case):
    # quotes, newlines and code in values, None, nested tuples and floats
    # fold as any other value does, since only positions make the source
    values = ('"', "'", '"""', "a\"b'c", "x\ny", "\\", "__import__('os')",
              "}); raise SystemExit(1); ({", None, (1, ("t", None)), ((),), 0.5, -2.25, 1e300)
    rng = random.Random(f"values:{case}")
    for negative in (False, True):
        counters = Counters()
        node = make_node(case, counters)
        plans = all_plans(node)
        for plan in plans:
            register(node, plan)
        node.content.register_index(tuple(range(1, len(node.schema))))
        fill(node, rng, negative, values)
        for plan in plans[:-1]:
            schema = node.children[plan.start_index].schema
            delta = {tuple(rng.choice(values) for _ in schema): -1,
                     tuple(rng.choice(values) for _ in schema): 3}
            want = counted(counters, reference_run_join, plan, node.children, delta.items())
            assert counted(counters, run_join, plan, node.children, delta.items()) == want
        _, want_ops = counted(counters, reference_materialize, node, plans[-1])
        want = dict(node.content.entries)
        assert counted(counters, materialize_node, node, plans[-1]) == (None, want_ops)
        assert node.content.entries == want
        sources = check_triggers(case, node, counters, rng, values)
    # an engine state over the same values, on a self-join with a light part
    # per occurrence: its update passes take the values as rows and keys
    q = parse_query("Q(A) = R(A,B), R(B,C), S(B).")
    st = preprocess(q, {"R": {(values[0], values[1]): 1}, "S": {(values[1],): 2}}, 0.5)
    for i, value in enumerate(values):
        st.on_update("R", (value, values[i - 1]), 1)
        st.on_update("S", (value,), 1 + i % 2)
    for i, value in enumerate(values[::2]):
        st.on_update("R", (value, values[2 * i - 1]), -1)
    st.check_invariants(deep=True)
    assert st.result_multiset() == brute_force_eval(q, st.db_snapshot())
    sources += [pass_source(shape) for shape in viewtree._PASSES]
    sources += [probe_source(shape) for shape in enumeration._PROBES]
    sources += [cursor_source(shape) for shape in enumeration._CURSORS]
    for source in [kernel_source(plan_shape(plan)) for plan in plans] + sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING, source
            if tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), source


def test_kernels_compile_once_per_shape_and_bind_to_their_own_state(monkeypatch):
    # a second preprocess of a query and a major's rebuild reuse the kernels
    # and triggers compiled for the first preprocess; each state's kernels
    # and triggers read and write only its own relations.  The database is
    # test_maintenance's rebuilding major.
    q = parse("semi")
    db = {"R": {(a, b): 1 for b in range(8) for a in range(24)},
          "S": {(b,): 1 for b in range(8)}}
    preprocess(q, db, 0.5, mode="dynamic", m_override=400)

    def sizes():
        return (len(viewtree._FACTORIES), len(viewtree._TRIGGERS), len(viewtree._PASSES),
                len(enumeration._PROBES), len(enumeration._CURSORS))

    compiled = sizes()
    generated = []
    for module, name in ((viewtree, "kernel_source"), (viewtree, "trigger_source"),
                         (viewtree, "pass_source"), (enumeration, "probe_source"),
                         (enumeration, "cursor_source")):
        source = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda shape, source=source: generated.append(shape) or source(shape))
    st = preprocess(q, db, 0.5, mode="dynamic", m_override=400)
    other = preprocess(q, db, 0.5, mode="dynamic", m_override=400)
    assert sizes() == compiled and generated == []
    for mine, theirs in zip(st.dag.views, other.dag.views):
        assert mine.plan.fold is not theirs.plan.fold
        assert mine.plan.fold.__code__ is theirs.plan.fold.__code__
    assert st.dag.triggers.keys() == other.dag.triggers.keys() == st.dag.leaf_paths.keys()
    for leaf_name, mine in st.dag.triggers.items():
        theirs = other.dag.triggers[leaf_name]
        assert mine is not theirs and mine.__code__ is theirs.__code__
        cells = {id(cell.cell_contents) for cell in mine.__closure__}
        assert cells.isdisjoint(id(cell.cell_contents) for cell in theirs.__closure__)
    # the update passes and light steps too; the leaf names they bind may
    # be one string object, which no state can change
    assert st._passes.keys() == other._passes.keys() == {"R", "S"}
    assert st._light_steps.keys() == other._light_steps.keys() and st._light_steps
    for mine, theirs in [*zip(st._passes.values(), other._passes.values()),
                         *zip(st._light_steps.values(), other._light_steps.values())]:
        assert mine is not theirs and mine.__code__ is theirs.__code__
        for cell, their_cell in zip(mine.__closure__, theirs.__closure__):
            contents, their_contents = cell.cell_contents, their_cell.cell_contents
            assert contents is not their_contents or type(contents) is str
            assert type(contents) is not str or contents == their_contents
    # the enumeration probes: one code per shape, each bound to its own
    # state's counters and view entries
    probes = [(mine.enum.probe, theirs.enum.probe)
              for tree, their_tree in zip(st.trees, other.trees)
              for mine, theirs in zip(tree.nodes, their_tree.nodes) if mine.enum is not None]
    assert probes
    for mine, theirs in probes:
        assert mine is not theirs and mine.__code__ is theirs.__code__
        bound = [{id(getattr(cell.cell_contents, "__self__", cell.cell_contents))
                  for cell in probe.__closure__ if cell.cell_contents is not TreeIter._descend}
                 for probe in (mine, theirs)]
        assert bound[0].isdisjoint(bound[1])
    # the enumeration cursors too, the result's step included: one code per
    # shape, each bound to its own state's counters, relations and slot steps
    cursors = [(getattr(mine.enum, f), getattr(theirs.enum, f))
               for tree, their_tree in zip(st.trees, other.trees)
               for mine, theirs in zip(tree.nodes, their_tree.nodes) if mine.enum is not None
               for f in ("start", "step", "heavy") if getattr(mine.enum, f) is not None]
    assert len({mine.__name__ for mine, _ in cursors}) == 3
    for mine, theirs in [*cursors, (st.result_step, other.result_step)]:
        assert mine is not theirs and mine.__code__ is theirs.__code__
        bound = [{id(cell.cell_contents) for cell in fn.__closure__ or ()
                  if cell.cell_contents is not None} for fn in (mine, theirs)]
        assert bound[0].isdisjoint(bound[1])
    untouched = other.fingerprint()
    rebuilds = []
    repartition = EngineState._repartition

    def spy(self, parts):
        repartition(self, parts)
        rebuilds.append(sizes())

    monkeypatch.setattr(EngineState, "_repartition", spy)
    i = 0
    while st.counters.major_rebalances == 0:
        st.on_update("S", (100 + i,), 1)
        i += 1
    assert rebuilds == [compiled]
    st.check_invariants(deep=True)
    assert other.fingerprint() == untouched
    other.check_invariants(deep=True)
    assert sizes() == compiled and generated == []
