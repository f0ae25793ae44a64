"""The generated join kernels against the generator-based fold they replaced.

``reference_run_join`` (in ``conftest``) and ``reference_materialize`` are
the fold as it was written over the storage primitives (``Relation.get``
and the ``Relation.scan`` generator), each bumping ``storage_ops`` once.  A
kernel must give the same result and count the same ops.
"""

from __future__ import annotations

import io
import random
import tokenize

import pytest

from skewivm import viewtree
from skewivm.engine import EngineState, preprocess
from skewivm.errors import UnregisteredIndexError
from skewivm.metrics import Counters
from skewivm.storage import Relation
from skewivm.viewtree import (
    ATOM,
    HEAVY_REF,
    JOIN,
    ViewNode,
    delta_plan,
    kernel_source,
    materialize_node,
    materialize_plan,
    plan_shape,
    run_join,
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
    for plan in plans:
        source = kernel_source(plan_shape(plan))
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING, source
            if tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), source


def test_kernels_compile_once_per_shape_and_bind_to_their_own_state(monkeypatch):
    # a second preprocess of a query and a major's rebuild reuse the kernels
    # compiled for the first preprocess; each state's kernels read only its
    # own relations.  The database is test_maintenance's rebuilding major.
    q = parse("semi")
    db = {"R": {(a, b): 1 for b in range(8) for a in range(24)},
          "S": {(b,): 1 for b in range(8)}}
    preprocess(q, db, 0.5, mode="dynamic", m_override=400)
    compiled = len(viewtree._FACTORIES)
    generated = []
    source = viewtree.kernel_source
    monkeypatch.setattr(viewtree, "kernel_source",
                        lambda shape: generated.append(shape) or source(shape))
    st = preprocess(q, db, 0.5, mode="dynamic", m_override=400)
    other = preprocess(q, db, 0.5, mode="dynamic", m_override=400)
    assert len(viewtree._FACTORIES) == compiled and generated == []
    for mine, theirs in zip(st.dag.views, other.dag.views):
        assert mine.plan.fold is not theirs.plan.fold
        assert mine.plan.fold.__code__ is theirs.plan.fold.__code__
    untouched = other.fingerprint()
    rebuilds = []
    repartition = EngineState._repartition

    def spy(self, parts):
        repartition(self, parts)
        rebuilds.append(len(viewtree._FACTORIES))

    monkeypatch.setattr(EngineState, "_repartition", spy)
    i = 0
    while st.counters.major_rebalances == 0:
        st.on_update("S", (100 + i,), 1)
        i += 1
    assert rebuilds == [compiled]
    st.check_invariants(deep=True)
    assert other.fingerprint() == untouched
    other.check_invariants(deep=True)
    assert len(viewtree._FACTORIES) == compiled and generated == []
