"""The compiled join fold against the generator-based fold it replaced.

``reference_run_join`` and ``reference_materialize`` are the fold as it was
written over the storage primitives (``Relation.get`` and the
``Relation.scan`` generator), each bumping ``storage_ops`` once.  The
compiled fold must give the same result and count the same ops.
"""

from __future__ import annotations

import random

import pytest

from skewivm.errors import UnregisteredIndexError
from skewivm.metrics import Counters
from skewivm.storage import Relation
from skewivm.viewtree import (
    ATOM,
    JOIN,
    ViewNode,
    delta_plan,
    materialize_node,
    materialize_plan,
    run_join,
)


def reference_run_join(plan, children, start_rows):
    out: dict[tuple, int] = {}
    rows = [(row, m) for row, m in start_rows]
    for step in plan.steps:
        child = children[step.child_index]
        rel = child.content
        next_rows = []
        if step.mode == "lookup":
            for row, m in rows:
                key = tuple(row[p] for p in step.acc_positions)
                cm = rel.get(key)
                if child.semantics == "set" and cm:
                    cm = 1
                if cm:
                    next_rows.append((row, m * cm))
        else:
            for row, m in rows:
                key = tuple(row[p] for p in step.acc_positions)
                for crow, cm in rel.scan(step.child_positions, key):
                    if child.semantics == "set" and cm:
                        cm = 1
                    next_rows.append(
                        (row + tuple(crow[p] for p in step.new_positions), m * cm))
        rows = next_rows
    for row, m in rows:
        if m == 0:
            continue
        key = tuple(row[p] for p in plan.out_positions)
        new = out.get(key, 0) + m
        if new:
            out[key] = new
        elif key in out:
            del out[key]
    return out


def reference_materialize(node, plan):
    outer = node.children[plan.start_index]
    rel = outer.content

    def start():
        for row, m in rel.scan((), ()):
            yield row, (1 if outer.semantics == "set" and m else m)

    node.content.load(reference_run_join(plan, node.children, start()))


# (child schemas, view schema, set-semantics child indexes): every plan over
# these folds at least one lookup, index scan or cross product
CASES = {
    "lookup": ((("A", "B"), ("A", "B"), ("A",)), ("A", "B"), ()),
    "index-scan": ((("A", "B"), ("B", "C")), ("A", "C"), ()),
    "set-child": ((("A", "B"), ("B", "C"), ("B",)), ("B",), (2,)),
    "cross": ((("A",), ("B", "C")), ("A", "C"), ()),
    "boolean": ((("A", "B"), ("B",)), (), (1,)),
    "wide": ((("A", "B", "C"), ("C", "A", "D"), ("D",)), ("B", "D"), ()),
}


def make_node(case, counters):
    schemas, view_schema, set_children = CASES[case]
    children = []
    for i, schema in enumerate(schemas):
        leaf = ViewNode(f"C{i}", schema, ATOM, leaf_name=f"C{i}",
                        semantics="set" if i in set_children else "multiset")
        leaf.content = Relation(leaf.name, schema, counters)
        children.append(leaf)
    node = ViewNode("V", view_schema, JOIN, children)
    node.content = Relation("V", view_schema, counters)
    return node


def fill(node, rng, negative):
    for child in node.children:
        for _ in range(rng.randrange(0, 25)):
            row = tuple(rng.randrange(4) for _ in child.schema)
            m = rng.choice((-2, -1, 1, 2, 3) if negative else (1, 2, 3))
            child.content.delta(row, m)


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
            assert got == want
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
        want = dict(node.content.entries)
        _, got_ops = counted(counters, materialize_node, node, plan)
        assert node.content.entries == want
        assert got_ops == want_ops


def test_cases_cover_every_step_kind():
    kinds = set()
    for case in CASES:
        node = make_node(case, Counters())
        plans = [delta_plan(node, i) for i in range(len(node.children))]
        for plan in plans + [materialize_plan(node)]:
            for step in plan.steps:
                if step.mode == "lookup":
                    kinds.add("lookup")
                else:
                    kinds.add("index" if step.child_positions else "cross")
                if step.is_set:
                    kinds.add("set")
    assert kinds == {"lookup", "index", "cross", "set"}


def test_missing_index_raises():
    counters = Counters()
    node = make_node("index-scan", counters)
    node.children[1].content.delta((1, 2), 1)
    plan = delta_plan(node, 0)  # scans child 1 on B, whose index is unregistered
    with pytest.raises(UnregisteredIndexError):
        reference_run_join(plan, node.children, [((0, 1), 1)])
    with pytest.raises(UnregisteredIndexError):
        run_join(plan, node.children, [((0, 1), 1)])
    with pytest.raises(UnregisteredIndexError):  # a bound plan fails at binding
        plan.bind(node.children)


@pytest.mark.parametrize("miss", (1, 2, 3, None))
def test_one_row_lookup_fold_counts_each_step_reached(miss):
    # a single row through a plan of lookups only takes the short path: it
    # stops at the first step whose get misses, having counted one op per
    # step reached, as the general path and the reference count
    counters = Counters()
    schemas = (("A", "B"), ("A", "B"), ("A",), ("B",))
    children = []
    for i, schema in enumerate(schemas):
        leaf = ViewNode(f"C{i}", schema, ATOM, leaf_name=f"C{i}",
                        semantics="set" if i == 2 else "multiset")
        leaf.content = Relation(leaf.name, schema, counters)
        children.append(leaf)
    node = ViewNode("V", ("A",), JOIN, children)
    plan = delta_plan(node, 0)
    assert plan.lookups_only
    assert [step.child_index for step in plan.steps] == [1, 2, 3]
    for i, row in ((1, (1, 2)), (2, (1,)), (3, (2,))):
        if i != miss:
            children[i].content.delta(row, 3)
    plan.bind(children)
    start = {(1, 2): 2}
    got = counted(counters, run_join, plan, children, start.items())
    assert got == counted(counters, reference_run_join, plan, children, start.items())
    # 2 * 3 * (a set child counts 1) * 3
    assert got == (({}, miss) if miss else ({(1,): 18}, 3))
