"""Enumeration: union, product, distinctness, delay accounting."""

from __future__ import annotations

import random
import sys

import pytest

from skewivm.engine import EngineState, preprocess
from skewivm.enumeration import ComponentIter, TreeIter, annotate, union_next
from skewivm.errors import CallBeforeOpenError, InvariantViolationError, IteratorInvalidatedError
from skewivm.metrics import Counters
from skewivm.oracle import brute_force_eval
from skewivm.query import parse_query
from skewivm.storage import Relation
from skewivm.viewtree import ATOM, ViewNode

from conftest import (
    EPS_GRID,
    SUITE,
    parse,
    rand_db,
    random_hierarchical_query,
    run_trace,
    use_reference_cursor,
)

DELAY_CONSTANT = 96  # frozen after measuring max ops/(1 + grounded buckets)


def _covering_member(name: str, entries: dict, schema=("X",)):
    node = ViewNode(name, schema, "join-view")
    node.content = Relation(name, schema, Counters())
    for row, m in entries.items():
        node.content.add({row: m})
    annotate(node, frozenset(schema))
    it = TreeIter(node)
    it.open(())
    return it


# ---------------------------------------------------------------------------
# union
# ---------------------------------------------------------------------------


def test_union_overlapping_members_sum_multiplicities():
    t1 = _covering_member("T1", {("x",): 2})
    t2 = _covering_member("T2", {("x",): 3})
    assert union_next([t1, t2]) == (("x",), 5)
    assert union_next([t1, t2]) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_union_totals_a_tuple_held_by_every_member_once(n, monkeypatch):
    # each member holds every tuple: the last member takes each tuple over,
    # after n - 1 survival lookups, and its total adds one lookup into each
    # earlier member, so a row costs 2(n - 1) lookups
    entries = [{(x,): i + 1 for x in "abcde"} for i in range(n)]
    members = [_covering_member(f"T{i}", e) for i, e in enumerate(entries)]
    lookups = [0]
    lookup = TreeIter.lookup

    def counted(it, t):
        lookups[0] += 1
        return lookup(it, t)

    monkeypatch.setattr(TreeIter, "lookup", counted)
    rows = []
    while (r := union_next(members)) is not None:
        assert lookups[0] <= 2 * (n - 1)
        lookups[0] = 0
        rows.append(r)
    assert sorted(rows) == [((x,), n * (n + 1) // 2) for x in "abcde"]


def test_union_disjoint_members():
    t1 = _covering_member("T1", {("x",): 1})
    t2 = _covering_member("T2", {("y",): 1})
    out = []
    while True:
        r = union_next([t1, t2])
        if r is None:
            break
        out.append(r)
    assert sorted(out) == [(("x",), 1), (("y",), 1)]


def test_union_single_member_passthrough():
    t1 = _covering_member("T1", {("a",): 4, ("b",): 1})
    got = {union_next([t1]), union_next([t1])}
    assert got == {(("a",), 4), (("b",), 1)}
    assert union_next([t1]) is None


def test_union_order_independent_result():
    entries = [
        {("x",): 2, ("y",): 1},
        {("x",): 3, ("z",): 5},
        {("y",): 7, ("z",): 1, ("w",): 1},
    ]
    want = {("x",): 5, ("y",): 8, ("z",): 6, ("w",): 1}
    for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]):
        members = [_covering_member(f"T{i}", entries[i]) for i in perm]
        got = {}
        while True:
            r = union_next(members)
            if r is None:
                break
            t, m = r
            assert t not in got, "duplicate tuple from union"
            got[t] = m
        assert got == want


# ---------------------------------------------------------------------------
# product (through cartesian-product queries)
# ---------------------------------------------------------------------------


def test_product_of_components():
    q = parse_query("Q(A,B) = R(A), S(B).")
    db = {"R": {("a",): 1, ("a2",): 1}, "S": {("b",): 1}}
    st = preprocess(q, db, 0.5, mode="static")
    assert st.result_multiset() == {("a", "b"): 1, ("a2", "b"): 1}


def test_product_multiplicities_multiply():
    q = parse_query("Q(A,B) = R(A), S(B).")
    db = {"R": {("u",): 2}, "S": {("v",): 3}}
    st = preprocess(q, db, 0.5, mode="static")
    assert st.result_multiset() == {("u", "v"): 6}


def test_product_empty_component_gives_empty_result():
    q = parse_query("Q(A,B) = R(A), S(B).")
    st = preprocess(q, {"R": {("a",): 1}, "S": {}}, 0.5, mode="static")
    assert st.result_multiset() == {}


# ---------------------------------------------------------------------------
# full enumeration
# ---------------------------------------------------------------------------


def test_chain2_worked_example():
    q = parse("chain2")
    db = {"R": {("a1", "b1"): 1, ("a1", "b2"): 1, ("a2", "b1"): 1},
          "S": {("b1", "c1"): 1, ("b2", "c1"): 1, ("b2", "c2"): 1}}
    for eps in EPS_GRID:
        st = preprocess(q, db, eps, mode="dynamic")
        assert st.result_multiset() == {
            ("a1", "c1"): 2, ("a1", "c2"): 1, ("a2", "c1"): 1}


def test_enumeration_matches_oracle_everywhere():
    rng = random.Random(73)
    for name in SUITE:
        q = parse(name)
        for eps in EPS_GRID:
            db = rand_db(q, rng, per_rel=rng.randint(10, 50), dom=rng.randint(4, 9))
            for mode in ("static", "dynamic"):
                st = preprocess(q, db, eps, mode=mode)
                assert st.result_multiset() == brute_force_eval(q, db)


def test_distinctness_and_positivity():
    rng = random.Random(79)
    for _ in range(20):
        q = random_hierarchical_query(rng, max_atoms=4, max_vars=6)
        db = rand_db(q, rng, per_rel=15, dom=4)
        st = preprocess(q, db, rng.choice(EPS_GRID), mode="dynamic")
        seen = set()
        for row, m in st.enumerate_result():
            assert m > 0
            assert row not in seen
            seen.add(row)


def test_result_multiset_rejects_a_repeated_tuple(monkeypatch):
    st = preprocess(parse("chain2"), {"R": {(1, 2): 1}, "S": {(2, 3): 1}}, 0.5)
    monkeypatch.setattr(EngineState, "enumerate_result",
                        lambda self: iter([((1, 3), 1), ((1, 3), 1)]))
    with pytest.raises(InvariantViolationError, match=r"\(1, 3\) emitted twice"):
        st.result_multiset()


def test_iterators_are_restartable():
    rng = random.Random(83)
    q = parse("chain2")
    db = rand_db(q, rng, per_rel=40, dom=5)
    st = preprocess(q, db, 0.5, mode="dynamic")
    first = dict(st.enumerate_result())
    second = dict(st.enumerate_result())
    assert first == second


def test_update_invalidates_open_iterator():
    q = parse("chain2")
    st = preprocess(q, {"R": {(1, 2): 1}, "S": {(2, 3): 1}}, 0.5, mode="dynamic")
    it = st.enumerate_result()
    st.on_update("R", (5, 6), 1)
    with pytest.raises(IteratorInvalidatedError):
        it.next()


def test_empty_database_enumeration():
    q = parse("chain2")
    st = preprocess(q, {"R": {}, "S": {}}, 0.5, mode="dynamic")
    assert st.enumerate_result().next() is None


def test_delay_bounded_by_grounded_supports():
    """Ops between consecutive next() calls stay within the frozen constant
    times (1 + total grounded heavy support)."""
    rng = random.Random(89)
    for name in ("chain2", "semi", "deep4"):
        q = parse(name)
        for eps in EPS_GRID:
            db = rand_db(q, rng, per_rel=40, dom=6)
            st = preprocess(q, db, eps, mode="dynamic")
            it = st.enumerate_result()
            bound = DELAY_CONSTANT * (1 + it.grounded_buckets())
            while True:
                before = st.counters.storage_ops
                item = it.next()
                assert st.counters.storage_ops - before <= bound
                if item is None:
                    break


def test_boolean_query_enumeration():
    q = parse_query("Q() = R(A,B), S(B,C).")
    db = {"R": {(1, 2): 1, (3, 2): 2}, "S": {(2, 9): 1}}
    st = preprocess(q, db, 0.5, mode="dynamic")
    assert st.result_multiset() == {(): 3}
    st2 = preprocess(q, {"R": {}, "S": {}}, 0.5, mode="dynamic")
    assert st2.result_multiset() == {}


def test_union_member_order_is_irrelevant_for_results():
    rng = random.Random(113)
    q = parse("chain2")
    db = rand_db(q, rng, per_rel=50, dom=5)
    st = preprocess(q, db, 0.25, mode="dynamic")
    want = st.result_multiset()
    for comp in st.components:
        comp.trees.reverse()
    assert st.result_multiset() == want


def test_open_grounds_one_bucket_per_heavy_key():
    q = parse("chain2")
    db = {"R": {(i, 7): 1 for i in range(8)} | {(0, 8): 1, (1, 9): 1},
          "S": {(7, i): 1 for i in range(8)} | {(8, 0): 1, (9, 0): 1}}
    st = preprocess(q, db, 0.5, mode="dynamic")  # theta ~ 6.4: only key 7 heavy
    (triple,) = st.triples
    assert set(triple.h_content.entries) == {(7,)}
    heavy = next(t for t in st.trees if "xH_B" in t.leaves)
    it = TreeIter(heavy.root)
    it.open(())
    assert len(it.buckets) == 1
    assert dict(zip(heavy.root.enum.scope, it.buckets[0]))["B"] == 7  # a pending bucket's scope


def test_open_with_absent_context_is_exhausted():
    q = parse("fc3")
    db = {"R": {(1, 2, 3): 1}, "S": {(1, 2, 4): 1}, "T": {(1, 5): 1}}
    st = preprocess(q, db, 1.0, mode="static")
    root = st.trees[0].root
    v_b = root.children[0]
    assert v_b.schema == ("A", "D")
    it = TreeIter(v_b)
    assert v_b.enum.ctx_order == ("A",)
    it.open((999,))
    assert it.next() is None
    it.close()
    it.open((1,))
    assert it.next() == ((1, 4), 1)


def test_slots_enumerate_through_pass_through_views(monkeypatch):
    # fc4 at eps 0.5: V_A's product slots are the aux views V_B'(A) and
    # V_E'(A), each over one child and ranged at one point; enumeration
    # and every lookup go straight to V_B and V_E
    q = parse("fc4")
    db = rand_db(q, random.Random(3), per_rel=40, dom=6)
    st = preprocess(q, db, 0.5, mode="dynamic")
    opened = []
    open_ = TreeIter.open

    def counted_open(it, ctx):
        opened.append(it.node.name)
        open_(it, ctx)

    monkeypatch.setattr(TreeIter, "open", counted_open)
    rows = list(st.enumerate_result())
    assert dict(rows) == brute_force_eval(q, db) and len(rows) == len(dict(rows))
    assert any(name.startswith("V_B@") for name in opened)
    assert not [name for name in opened if name.startswith(("V_B'", "V_E'"))]
    root = next(t.root for t in st.trees if t.root.name == "V_A@t0")
    gets = [entry for entry in root.enum.plan if entry[-1] is None]
    assert len(gets) == 3
    assert [n.name for n in root.enum.slots] == ["V_B@t0", "V_E@t0"]


def test_engine_handles_nested_and_product_shapes():
    cases = [
        "Q(D) = R(A,B,C,D), S(A,B,C), T(A,B), U(A).",
        "Q(A,C,X,Z) = R(A,B), S(B,C), T(X,Y), U(Y,Z).",
        "Q() = R(A).",
        "Q(A) = R(A,B), S(A,B).",
        # rollover in the middle slot of a three-component product
        "Q(A,B,C) = R(A), S(B), T(C).",
        # a product of components with several trees each
        "Q(A,C,X) = R(A,B), S(B,C), T(X,Y).",
    ]
    rng = random.Random(5)
    for text in cases:
        q = parse_query(text)
        for eps in (0.0, 0.5, 1.0):
            for mode in ("static", "dynamic"):
                db = {}
                for sym in q.symbols():
                    ar = len(q.occurrences(sym)[0].schema)
                    db[sym] = {tuple(rng.randrange(5) for _ in range(ar)): rng.randint(1, 3)
                               for _ in range(rng.randint(5, 40))}
                st = preprocess(q, db, eps, mode=mode)
                assert st.result_multiset() == brute_force_eval(q, db), (text, eps, mode)


def test_unpinned_leaf_raises_invariant_violation():
    node = ViewNode("R", ("A", "B"), "base-atom", leaf_name="R#0")
    node.content = Relation("R", ("A", "B"), Counters())
    with pytest.raises(InvariantViolationError, match="not pinned"):
        annotate(node, frozenset({"A"}))


def test_view_key_outside_the_scope_raises_invariant_violation():
    # V(B) over R(A,B) and S(B) with only A free: a lookup at V would need
    # B, which is neither in V's output schema nor in its (empty) context
    counters = Counters()
    r = ViewNode("R", ("A", "B"), ATOM, leaf_name="R#0")
    s = ViewNode("S", ("B",), ATOM, leaf_name="S#0")
    v = ViewNode("V", ("B",), "join-view", [r, s])
    for node in (r, s, v):
        node.content = Relation(node.name, node.schema, counters)
    with pytest.raises(InvariantViolationError, match="V: view key not bound by context"):
        annotate(v, frozenset({"A"}))


def test_grounded_tree_without_buckets_looks_up_nothing(monkeypatch):
    # eps=1 leaves every key light, so the heavy tree grounds no bucket: a
    # lookup is 0 at no cost and never reaches the probe
    q = parse("chain2")
    st = preprocess(q, {"R": {(1, 2): 1}, "S": {(2, 3): 1}}, 1.0, mode="dynamic")
    heavy = next(t for t in st.trees if "xH_B" in t.leaves)
    it = TreeIter(heavy.root)
    it.open(())
    assert it.buckets == []
    monkeypatch.setattr(heavy.root.enum, "probe", None)
    before = st.counters.storage_ops
    assert it.lookup((1, 3)) == 0
    assert st.counters.storage_ops == before


def test_forest_with_differing_output_schemas_raises_invariant_violation():
    roots = [_covering_member(name, {}, schema).node
             for name, schema in (("T1", ("X",)), ("T2", ("Y",)))]
    with pytest.raises(InvariantViolationError, match="output schema"):
        ComponentIter(roots)


# ---------------------------------------------------------------------------
# compiled lookup against the dict-merge lookup it replaced
# ---------------------------------------------------------------------------


def _started(owner: TreeIter, k: int) -> TreeIter:
    """Bucket ``k`` of ``owner``, started under its own scope if it is
    pending, as its first ``next()`` would; the start is not counted."""
    if owner.buckets[k].__class__ is not tuple:
        return owner.buckets[k]
    counters = owner.node.content.counters
    ops = counters.storage_ops
    bucket = owner._bucket(k)
    counters.storage_ops = ops
    return bucket


def _reference_lookup(it: TreeIter, assign: dict) -> tuple[int, int, int]:
    """The lookup before keys were compiled: the iterator's context merged
    with the assignment at every level, each view key built variable by
    variable and read from the view's entries.  A pending bucket is started
    (:func:`_started`) before it is walked.  A grounded child whose context
    differs from the probe's own, the merged assignment's projection onto
    its context layout, is grounded afresh under the probe's context, and
    the scan of H that grounding makes is counted.

    Returns the multiplicity, the gets this lookup makes, and the ops the
    compiled lookup must make.  The two differ only at a grounded iterator
    with a selector and at least 3 buckets.  It fetches the selector's
    index bucket at ``ctx + t`` (1 op).  If the bucket's rows name at most
    half the buckets, less one, it reads each row (1 op per row) and probes
    only the buckets they name; every other bucket's term must be 0.
    Otherwise it probes every bucket.  Either way it costs at most 1 op
    more than probing every bucket."""
    ctx = it.ctx
    merged = {**ctx, **assign} if ctx else assign
    info = it.node.enum
    if it.buckets is not None:
        terms = [(b, *_reference_lookup(b, merged))
                 for b in (_started(it, k) for k in range(len(it.buckets)))]
        m = sum(bm for _, bm, _, _ in terms)
        ref_ops = sum(r for _, _, r, _ in terms)
        every = sum(c for _, _, _, c in terms)
        if info.selector is None or len(terms) < 3:
            return m, ref_ops, every
        index, key_of, row_key = info.selector
        rows = index.get(key_of(it._ctx + tuple(merged[v] for v in info.out_schema)), ())
        if 2 * len(rows) + 1 > len(terms):
            return m, ref_ops, 1 + every
        named = {row_key(r) for r in rows}
        ops = 1 + len(rows)
        for b, bm, _, c in terms:
            if info.h_varying(b._ctx[len(it._ctx):]) in named:
                ops += c
            else:
                assert bm == 0, (it.node.name, merged, b.ctx)
        assert ops <= every
        return m, ref_ops, ops
    key = tuple(merged[v] for v in it.node.schema)
    m = it.node.content.entries.get(key, 0)
    if info.covering:
        return m, 1, 1
    if m == 0:
        return 0, 1, 1
    total = ref_ops = ops = 1
    for ch in it.children:
        own = tuple(merged[v] for v in ch.node.enum.ctx_order)
        if ch.node.enum.heavy_idx is not None and ch._ctx != own:
            counters = ch.node.content.counters
            before = counters.storage_ops
            ch = TreeIter(ch.node)
            ch.open(own)
            ref_ops += counters.storage_ops - before
            ops += counters.storage_ops - before
        cm, r, c = _reference_lookup(ch, merged)
        ref_ops += r
        ops += c
        if cm == 0:
            return 0, ref_ops, ops
        total *= cm
    return total, ref_ops, ops


def _iterators(result):
    """Every iterator below ``result`` that a lookup can read: each
    component's trees, and the started buckets and children below them."""
    def below(it):
        yield it
        for x in (*(it.buckets or ()), *(it.children or ())):
            if x.__class__ is not tuple:
                yield from below(x)

    return [x for comp in result.components for member in comp.members for x in below(member)]


def _looked_up(result) -> list[tuple[TreeIter, int | None]]:
    """Every iterator a union looks up, as ``(iterator, None)``: each
    component's trees and every started bucket below them; and every
    pending bucket, as ``(owner, position)``."""
    out = []

    def buckets(it):
        for k, b in enumerate(it.buckets or ()):
            if b.__class__ is tuple:
                out.append((it, k))
            else:
                out.append((b, None))
                buckets(b)
        for ch in it.children or ():
            buckets(ch)

    for comp in result.components:
        for member in comp.members:
            out.append((member, None))
            buckets(member)
    return out


def _lookup(handle, t) -> int:
    """A lookup of ``t`` at a handle of :func:`_looked_up`: the iterator's
    own, or the owner's probe of its bucket, as the owner's lookup and the
    union make it, at the bucket's scope."""
    it, k = handle
    if k is None:
        return it.lookup(t)
    b = it.buckets[k]
    return it.node.enum.probe(it, k, b if b.__class__ is tuple else b._ctx, t)


def _forget_foreign(result) -> None:
    """Drop every descendant a lookup below ``result`` grounded afresh, so
    that the next lookup grounds each one again, as the reference does."""
    for it in _iterators(result):
        it.foreign = None


def _start_pending(result) -> None:
    """Start every pending bucket of ``result``, and those its starts open,
    without counting, which leaves each as eager opening left it."""
    while pending := [(it, k) for it in _iterators(result)
                      for k, b in enumerate(it.buckets or ()) if b.__class__ is tuple]:
        for it, k in pending:
            _started(it, k)


def _held(handle) -> list[tuple]:
    """The tuples a handle of :func:`_looked_up` holds, read from a fresh
    iterator in its place."""
    it, k = handle
    if k is None:
        twin = TreeIter(it.node, it.skip_heavy)
        twin.open(it._ctx)
    else:
        twin = TreeIter(it.node, True)
        b = it.buckets[k]
        twin.open(b if b.__class__ is tuple else b._ctx)
    out = []
    while (item := twin.next()) is not None:
        out.append(item[0])
    return out


LOOKUP_QUERIES = [(name, SUITE[name], eps, "dynamic") for name in SUITE for eps in EPS_GRID] + [
    ("self-join", "Q(A,C) = R(A,B), R(B,C).", 0.25, "dynamic"),
    ("product", "Q(A,C,X) = R(A,B), S(B,C), T(X,Y).", 0.25, "dynamic"),
] + [(name, SUITE[name], eps, "static")
     for name, eps in (("chain2", 0.25), ("deep4", 0.0), ("star3", 0.0))]


@pytest.mark.parametrize(
    "name,text,eps,mode", LOOKUP_QUERIES,
    ids=[f"{n}-{e}" + ("-static" if m == "static" else "") for n, _, e, m in LOOKUP_QUERIES])
def test_compiled_lookup_matches_dict_merge_reference(name, text, eps, mode, monkeypatch):
    q = parse_query(text)
    rng = random.Random(f"{name}/{eps}")
    db = rand_db(q, rng, per_rel=30, dom=5)
    values = sorted({v for rel in db.values() for row in rel for v in row}) + [99]
    st = preprocess(q, db, eps, mode=mode)
    rows = len(st.result_multiset())

    # ops of the bucket starts a lookup makes (outermost starts only)
    start_ops, depth = [0], [0]
    start = TreeIter._bucket

    def counted_start(self, k):
        depth[0] += 1
        before = st.counters.storage_ops
        try:
            return start(self, k)
        finally:
            depth[0] -= 1
            if not depth[0]:
                start_ops[0] += st.counters.storage_ops - before

    # descendants a lookup grounds afresh, and the ops of their grounding
    fresh = [0, 0]
    descend_code, open_ = TreeIter._descend.__code__, TreeIter.open

    def counted_open(self, ctx):
        if sys._getframe(1).f_code is not descend_code:
            return open_(self, ctx)
        before = st.counters.storage_ops
        open_(self, ctx)
        fresh[0] += 1
        fresh[1] += st.counters.storage_ops - before

    monkeypatch.setattr(TreeIter, "_bucket", counted_start)
    monkeypatch.setattr(TreeIter, "open", counted_open)
    checked = narrowed = 0
    # each on a fresh iterator: its components opened with no next() made,
    # so every bucket is pending; at the first row; half way through the
    # result.  At each point, first as the enumeration left it, then with
    # every pending bucket started, as eager opening left it, so that the
    # buckets nested below them are looked up too
    for advance in (None, 0, rows // 2):
        for started in (False, True):
            result = st.enumerate_result()
            if advance is None:
                for comp in result.components:
                    comp.close()
                    comp.open(())
            else:
                for _ in range(advance):
                    result.next()
            if started:
                _start_pending(result)
            for handle in _looked_up(result):
                it, k = handle
                schema = it.node.enum.out_schema
                held = _held(handle)
                probes = list(held)
                for t in held[:20]:
                    for i in range(len(t)):
                        probes.append(t[:i] + (rng.choice(values),) + t[i + 1:])
                probes.extend(tuple(rng.choice(values) for _ in schema) for _ in range(10))
                for t in probes:
                    _forget_foreign(result)
                    start_ops[0] = 0
                    fresh[:] = [0, 0]
                    before = st.counters.storage_ops
                    got = _lookup(handle, t)
                    ops = st.counters.storage_ops - before - start_ops[0]
                    if started:
                        assert start_ops[0] == 0, (it.node.name, t)
                    want, ref_ops, want_ops = _reference_lookup(
                        it if k is None else _started(it, k), dict(zip(schema, t)))
                    assert (got, ops) == (want, want_ops), (it.node.name, t)
                    if k is None and it.buckets is not None and \
                            all(p is None for *_, p in it.node.enum.plan):
                        # no grounded iterator below: at most the fetch more
                        assert ops <= ref_ops + 1, (it.node.name, t)
                    narrowed += ops < ref_ops
                    # a repeat starts nothing, reuses every descendant the
                    # first grounded afresh, and makes the same gets besides
                    grounding = fresh[1]
                    fresh[0] = 0
                    before = st.counters.storage_ops
                    assert _lookup(handle, t) == want
                    assert (st.counters.storage_ops - before, fresh[0]) == \
                        (ops - grounding, 0), (it.node.name, t)
                    checked += 1
    assert checked
    if eps == 0.0:  # every key heavy: many buckets, and a tuple names few
        assert narrowed


# fc3 at eps 0.25 (M = 25): t0 emits (0, 2, 2) while t1's cursor is at
# another A, so t1's lookup of it grounds V_B afresh under A = 0
FC3_FOREIGN_PROBE_DB = {
    "R": {(1, 0, 2): 1, (0, 2, 0): 1, (0, 0, 0): 1},
    "S": {(0, 2, 1): 1, (1, 0, 2): 1, (1, 0, 1): 1, (0, 2, 2): 1,
          (1, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1},
    "T": {(1, 1): 1, (0, 2): 1}}


@pytest.mark.parametrize(
    "name,eps,fixed",
    [(n, e, False) for n in SUITE for e in EPS_GRID] + [("fc3", 0.25, True)],
    ids=[f"{n}-{e}" for n in SUITE for e in EPS_GRID] + ["fc3-0.25-foreign"])
def test_union_lookups_keep_the_lookup_contract(name, eps, fixed, monkeypatch):
    # a lookup of t equals t's multiplicity in a fresh iterator opened in
    # the probed one's place, wherever the probed one's cursors stand;
    # every top-level lookup of a full enumeration (the union's; nested
    # ones are part of the plan) is checked against that.  The fixed
    # database makes foreign-context probes: lookups that open a fresh
    # descendant because the live one is grounded under another context
    q = parse(name)
    original, original_open = TreeIter.lookup, TreeIter.open
    depth = [0]
    held: dict = {}
    found = []
    foreign = [0]

    def checked(node, skip_heavy, ctx, t, look):
        depth[0] += 1
        try:
            got = look()
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            where = (node, skip_heavy, ctx)
            if where not in held:
                twin = TreeIter(node, skip_heavy)
                twin.open(ctx)
                held[where] = dict(iter(twin.next, None))
            assert got == held[where].get(t, 0), (node.name, t)
            found.append(got)
        return got

    def checked_lookup(it, t):
        return checked(it.node, it.skip_heavy, it._ctx, t, lambda: original(it, t))

    def checked_probes(st):
        # the union looks each bucket, pending or started, up by its
        # owner's probe, over the bucket's scope
        for node in {id(n): n for tree in st.trees for n in tree.nodes if n.enum}.values():
            def probe(owner, k, c, t, probe=node.enum.probe, node=node):
                return checked(node, True, c, t, lambda: probe(owner, k, c, t))
            monkeypatch.setattr(node.enum, "probe", probe)

    def counted_open(it, ctx):
        foreign[0] += sys._getframe(1).f_code is TreeIter._descend.__code__
        original_open(it, ctx)

    monkeypatch.setattr(TreeIter, "lookup", checked_lookup)
    monkeypatch.setattr(TreeIter, "open", counted_open)
    if fixed:
        dbs = [FC3_FOREIGN_PROBE_DB]
    else:
        dbs = []
        for seed in range(4):
            rng = random.Random(f"contract/{name}/{eps}/{seed}")
            dbs.append(rand_db(q, rng, per_rel=rng.randint(20, 60), dom=rng.randint(3, 8)))
    for db in dbs:
        st = preprocess(q, db, eps, mode="dynamic")
        checked_probes(st)
        held.clear()
        assert st.result_multiset() == brute_force_eval(q, db)
    assert found
    if eps == 0.0:  # every key heavy: the trees overlap
        assert any(found), "no union lookup found a tuple"
    if fixed:
        assert foreign[0] > 0, "no foreign-context probe"


@pytest.mark.parametrize("name,seed", [("fc3", 20), ("fc3", 25), ("fc4", 0), ("fc4", 6)])
def test_a_foreign_context_descendant_is_grounded_once_per_open(name, seed, monkeypatch):
    # at eps 0.25 these databases make lookups that read a grounded
    # descendant under a context its live iterator is not grounded under;
    # the probed iterator keeps the descendant it grounds there until it
    # is reopened or closed, so each is grounded once and probed again
    lookup, open_ = TreeIter.lookup, TreeIter.open
    descend = TreeIter._descend.__code__
    grounded, fresh, probes = {}, set(), [0]

    def counted_lookup(it, t):
        probes[0] += id(it) in fresh and sys._getframe(1).f_code is descend
        return lookup(it, t)

    def counted_open(it, ctx):
        caller = sys._getframe(1)
        if caller.f_code is descend:
            owner = caller.f_locals["self"]
            where = (id(owner), caller.f_locals["path"], ctx)
            assert where not in grounded, (owner.node.name, ctx)
            grounded[where] = owner, it  # kept alive, so no id is reused
            fresh.add(id(it))
        open_(it, ctx)

    monkeypatch.setattr(TreeIter, "lookup", counted_lookup)
    monkeypatch.setattr(TreeIter, "open", counted_open)
    q = parse(name)
    rng = random.Random(f"sweep/{name}/0.25/{seed}")
    db = rand_db(q, rng, per_rel=rng.randint(20, 60), dom=rng.randint(3, 8))
    assert preprocess(q, db, 0.25, mode="dynamic").result_multiset() == brute_force_eval(q, db)
    assert probes[0] > len(grounded) > 0



@pytest.mark.parametrize("text", [
    "Q(A,D,E) = R(X,A,B,C), S(X,A,B,D), T(X,A,E), U(X,G).",
    "Q(V2,V6) = R0(V0,V1,V2,V3,V4), R1(V0,V1,V2,V5), R2(V0,V1,V2,V3,V6), R3(V0,V1,V2,V5).",
], ids=["fc3-below-X", "four-atoms"])
def test_a_descendant_below_a_bucket_is_grounded_once_per_open_of_its_owner(text, monkeypatch):
    # below a grounded root's buckets these queries look up a grounded
    # descendant under a context its live iterator is not grounded under;
    # such a grounding belongs to the grounded iterator holding the bucket,
    # so the union's probes of a bucket, pending or started, and the
    # owner's lookups share one grounding per (descendant, context) for
    # as long as the owner stays open
    open_, bucket = TreeIter.open, TreeIter._bucket
    descend = TreeIter._descend.__code__
    owner_of, opens, grounded, kept = {}, {}, {}, []
    below = [0]

    def counted_bucket(it, k):
        b = bucket(it, k)
        owner_of[id(b)] = it
        return b

    def counted_open(it, ctx):
        opens[id(it)] = opens.get(id(it), 0) + 1
        caller = sys._getframe(1)
        if caller.f_code is descend:
            owner = caller.f_locals["self"]
            below[0] += caller.f_locals["k"] is not None or id(owner) in owner_of
            owner = owner_of.get(id(owner), owner)
            where = (id(owner), opens[id(owner)], it.node.name, ctx)
            assert where not in grounded, (owner.node.name, it.node.name, ctx)
            grounded[where] = owner
        kept.append(it)  # kept alive, so no id is reused
        open_(it, ctx)

    monkeypatch.setattr(TreeIter, "_bucket", counted_bucket)
    monkeypatch.setattr(TreeIter, "open", counted_open)
    q = parse_query(text)
    for seed in range(20):
        rng = random.Random(f"owner/{text}/{seed}")
        db = rand_db(q, rng, per_rel=rng.randint(20, 80), dom=rng.randint(2, 6))
        assert preprocess(q, db, 0.0, mode="dynamic").result_multiset() == brute_force_eval(q, db)
    assert below[0] > 0

def test_component_union_emits_each_tuple_once_across_grounded_subtrees():
    # fc3 at eps 0.25 (M = 25): (0, 2, 2) has multiplicity 2, one from
    # each tree; t0 draws it while t1's cursor is at another A, so the
    # lookup in t1 must ground V_B under the tuple's own A
    q = parse("fc3")
    db = FC3_FOREIGN_PROBE_DB
    st = preprocess(q, db, 0.25, mode="dynamic")
    rows = list(st.enumerate_result())
    assert dict(rows) == brute_force_eval(q, db)
    assert len(rows) == len(dict(rows))


def test_component_union_never_finds_a_member_exhausted():
    # fc4 at eps 0.25 (M = 37): a union member's lookup missed a tuple it
    # holds and its cursor later ran out before the tuple was drawn
    q = parse("fc4")
    db = {"R": {(3, 3, 2): 1, (2, 1, 1): 3, (2, 0, 1): 3},
          "S": {(3, 3, 3): 1, (2, 1, 1): 2, (2, 0, 2): 1, (2, 0, 1): 3, (2, 0, 3): 2},
          "T": {(3, 0, 0): 3, (3, 0, 1): 2, (2, 1, 1): 3, (2, 3, 1): 3, (3, 0, 2): 1},
          "U": {(2, 3, 2): 2, (2, 3, 3): 2, (2, 3, 1): 2, (3, 0, 1): 1, (2, 1, 3): 2}}
    st = preprocess(q, db, 0.25, mode="dynamic")
    assert st.M == 37
    rows = list(st.enumerate_result())
    assert len(rows) == len(dict(rows))
    assert dict(rows) == brute_force_eval(q, db)


# ---------------------------------------------------------------------------
# enumeration cost, pinned
# ---------------------------------------------------------------------------

# (storage ops of opening and draining a result iterator, its largest
# next()) on the conftest-seeded database.  The largest next() includes the
# buckets it starts.  A union totals each emitted tuple once, and a product
# slot enumerates straight through pass-through projection views, so these
# pins fell from the values measured before (chain2 at eps 0 and 0.25 (1921, 125), semi-0.0
# (431, 79), semi-0.25 (379, 87), fc3-0.0 (616, 80), fc3 at eps >= 0.25
# (252, 18), fc4-0.0 (1706, 161), fc4 at eps >= 0.25 (325, 19), deep4-0.0
# (6473, 149), deep4-0.25 (3377, 72), star3 at eps 0 and 0.25 (10097, 121));
# the rest are equal.  deep4-0.0 narrows most of its bucket-selector index
# fetches to the buckets a tuple names, while semi-0.25 and deep4-0.25 pay
# fetches that do not narrow.  The union of V_A@t1's buckets in deep4-0.25
# asks its selector too, and skips the buckets a tuple cannot be in:
# (2540, 40) -> (2016, 42); the other unions' selector indexes are too full
# for a fetch to pay, so they look up every bucket as before.
ENUM_OPS = {
    ('chain2', 0.0): (961, 55),
    ('chain2', 0.25): (961, 55),
    ('chain2', 0.5): (35, 1),
    ('chain2', 1.0): (35, 1),
    ('semi', 0.0): (228, 39),
    ('semi', 0.25): (227, 51),
    ('semi', 0.5): (6, 1),
    ('semi', 1.0): (6, 1),
    ('fc3', 0.0): (487, 44),
    ('fc3', 0.25): (216, 12),
    ('fc3', 0.5): (216, 12),
    ('fc3', 1.0): (216, 12),
    ('fc4', 0.0): (1238, 87),
    ('fc4', 0.25): (290, 14),
    ('fc4', 0.5): (290, 14),
    ('fc4', 1.0): (290, 14),
    ('deep4', 0.0): (4277, 72),
    ('deep4', 0.25): (2016, 42),
    ('deep4', 0.5): (105, 1),
    ('deep4', 1.0): (105, 1),
    ('star3', 0.0): (5221, 61),
    ('star3', 0.25): (5221, 61),
    ('star3', 0.5): (198, 1),
    ('star3', 1.0): (198, 1),
}


@pytest.mark.parametrize("name,eps", list(ENUM_OPS), ids=[f"{n}-{e}" for n, e in ENUM_OPS])
def test_enumeration_ops_are_pinned(name, eps, rng):
    q = parse(name)
    st = preprocess(q, rand_db(q, rng, per_rel=40, dom=6), eps)
    before = st.counters.storage_ops
    st.result_multiset()
    assert (st.counters.storage_ops - before, st.counters.max_next_ops) == ENUM_OPS[name, eps]


# storage ops of enumerate_result() and the first next() on the databases of
# ENUM_OPS; before union rows were totalled once and pass-through views
# elided they were chain2 137 at eps 0 and 0.25, semi 202 and 194, fc3-0.0
# 35, fc3 13 at eps >= 0.25, fc4-0.0 56, fc4 15 at eps >= 0.25, deep4 470
# and 139, star3 89 at eps 0 and 0.25, the others equal; deep4-0.25 was 98
# before its bucket union asked the selector
FIRST_ROW_OPS = {
    ('chain2', 0.0): 85, ('chain2', 0.25): 85, ('chain2', 0.5): 3, ('chain2', 1.0): 3,
    ('semi', 0.0): 105, ('semi', 0.25): 117, ('semi', 0.5): 3, ('semi', 1.0): 3,
    ('fc3', 0.0): 22, ('fc3', 0.25): 10, ('fc3', 0.5): 10, ('fc3', 1.0): 10,
    ('fc4', 0.0): 34, ('fc4', 0.25): 13, ('fc4', 0.5): 13, ('fc4', 1.0): 13,
    ('deep4', 0.0): 270, ('deep4', 0.25): 95, ('deep4', 0.5): 3, ('deep4', 1.0): 3,
    ('star3', 0.0): 61, ('star3', 0.25): 61, ('star3', 0.5): 3, ('star3', 1.0): 3,
}


@pytest.mark.parametrize("name,eps", list(FIRST_ROW_OPS),
                         ids=[f"{n}-{e}" for n, e in FIRST_ROW_OPS])
def test_first_row_ops_are_pinned(name, eps, rng):
    q = parse(name)
    st = preprocess(q, rand_db(q, rng, per_rel=40, dom=6), eps)
    before = st.counters.storage_ops
    st.enumerate_result().next()
    assert st.counters.storage_ops - before == FIRST_ROW_OPS[name, eps]


# ---------------------------------------------------------------------------
# generated cursors against the interpreted one they replaced
# ---------------------------------------------------------------------------


def _read_all(st) -> tuple[int, list]:
    """The ops of opening a result iterator over ``st``, and each of its
    ``next()`` results with the ops that call recorded, to the end."""
    counters = st.counters
    before = counters.storage_ops
    it = st.enumerate_result()
    opened = counters.storage_ops - before
    rows = []
    while True:
        item = it.next()
        rows.append((item, counters.last_next_ops))
        if item is None:
            return opened, rows


CURSOR_CASES = [(name, eps, mode) for name in SUITE for eps in EPS_GRID
                for mode in ("static", "dynamic")]


@pytest.mark.parametrize("name,eps,mode", CURSOR_CASES,
                         ids=[f"{n}-{e}-{m}" for n, e, m in CURSOR_CASES])
def test_compiled_cursor_matches_the_interpreted_reference(name, eps, mode):
    # row by row, the generated cursors emit the interpreted cursor's rows
    # in its order, and each next() records the ops it did; in dynamic mode
    # again after a seeded stream of updates on a hot key, which holds
    # minor and major rebalances on most queries
    q = parse(name)
    db = rand_db(q, random.Random(f"cursor/{name}/{eps}"), per_rel=20, dom=6)
    st, ref = preprocess(q, db, eps, mode=mode), preprocess(q, db, eps, mode=mode)
    use_reference_cursor(ref)
    for _ in range(2 if mode == "dynamic" else 1):
        got = _read_all(st)
        assert got == _read_all(ref)
        assert dict(row for row, _ in got[1][:-1]) == brute_force_eval(q, st.db_snapshot())
        for twin in (st, ref) if mode == "dynamic" else ():
            run_trace(twin, q, random.Random(f"cursor/{name}/{eps}"), steps=150, dom=6, hot=0.3)
    assert st.counters.max_next_ops == ref.counters.max_next_ops


# ---------------------------------------------------------------------------
# pending buckets
# ---------------------------------------------------------------------------


def _zipf_chain2(rng: random.Random, n: int, keys: int, pool: int) -> dict:
    """A chain2 database shaped like a read-heavy workload: ``n`` tuples per
    relation, join keys B drawn with Zipf weights 1/k over ``keys`` ranks,
    and A and C drawn from ``pool`` values, so few buckets share a tuple."""
    weights = [1 / (k + 1) for k in range(keys)]
    db = {}
    for sym in ("R", "S"):
        rel = {}
        while len(rel) < n:
            b, v = rng.choices(range(keys), weights)[0], rng.randrange(pool)
            rel[(v, b) if sym == "R" else (b, v)] = 1
        db[sym] = rel
    return db


@pytest.fixture
def bucket_starts(monkeypatch):
    """Every bucket started, in order, and every bucket grounded, each as
    the bucket list of its owner's open and its position there."""
    started, grounded = [], []
    bucket, ground = TreeIter._bucket, TreeIter._ground

    def counted_bucket(it, k):
        started.append((it.buckets, k))
        return bucket(it, k)

    def counted_ground(it, ctx):
        ground(it, ctx)
        grounded.extend((it.buckets, k) for k in range(len(it.buckets)))

    monkeypatch.setattr(TreeIter, "_bucket", counted_bucket)
    monkeypatch.setattr(TreeIter, "_ground", counted_ground)
    return started, grounded


def _ids(buckets: list[tuple]) -> list[tuple[int, int]]:
    """Each (bucket list, position) as (list id, position); the records
    keep every list alive, so no id is reused."""
    return [(id(owner), k) for owner, k in buckets]


def test_first_row_starts_few_buckets_and_a_full_read_each_once(bucket_starts):
    started, grounded = bucket_starts
    q = parse("chain2")
    db = _zipf_chain2(random.Random(11), n=256, keys=32, pool=512)
    st = preprocess(q, db, 0.25, mode="dynamic")
    (triple,) = st.triples
    heavy = len(triple.h_content.entries)
    assert heavy >= 10
    it = st.enumerate_result()
    first = it.next()
    # every heavy key has its bucket, counted while pending
    assert len(grounded) == it.grounded_buckets() == heavy
    assert len(started) <= 2
    rows = [first, *it]
    assert dict(rows) == brute_force_eval(q, db) and len(rows) == len(dict(rows))
    assert sorted(_ids(started)) == sorted(_ids(grounded))


def test_opening_a_grounded_view_builds_no_bucket_iterator(monkeypatch):
    # a pending bucket is its scope: opening the Zipf read builds no bucket
    # iterator, its first row builds at most two, and a full read builds
    # each bucket at most once
    q = parse("chain2")
    db = _zipf_chain2(random.Random(11), n=256, keys=32, pool=512)
    st = preprocess(q, db, 0.25, mode="dynamic")
    built = []
    init = TreeIter.__init__

    def counted_init(it, node, skip_heavy=False):
        init(it, node, skip_heavy)
        if skip_heavy:
            built.append(it)

    monkeypatch.setattr(TreeIter, "__init__", counted_init)
    it = st.enumerate_result()
    assert built == []
    assert it.grounded_buckets() == len(st.triples[0].h_content.entries) == 13
    first = it.next()
    assert len(built) <= 2
    rows = [first, *it]
    assert dict(rows) == brute_force_eval(q, db) and len(rows) == len(dict(rows))
    scopes = [b._ctx for b in built]
    assert len(set(scopes)) == len(scopes) <= 13


def test_no_bucket_starts_twice(bucket_starts):
    started, grounded = bucket_starts
    for name in SUITE:
        q = parse(name)
        for eps in (0.0, 0.25):
            db = rand_db(q, random.Random(f"once/{name}/{eps}"), per_rel=40, dom=6)
            preprocess(q, db, eps, mode="dynamic").result_multiset()
    assert started
    assert len(set(_ids(started))) == len(started)
    assert set(_ids(started)) <= set(_ids(grounded))


def test_pending_buckets_see_no_later_update(bucket_starts):
    started, grounded = bucket_starts
    q = parse("chain2")
    db = _zipf_chain2(random.Random(13), n=256, keys=32, pool=512)
    st = preprocess(q, db, 0.25, mode="dynamic")
    it = st.enumerate_result()
    it.next()
    assert len(started) < len(grounded)  # some buckets are still pending
    hot = next(iter(st.triples[0].h_content.entries))
    st.on_update("R", (10_000, *hot), 1)
    st.on_update("S", (*hot, 10_001), 1)
    with pytest.raises(IteratorInvalidatedError):
        it.next()
    db["R"][(10_000, *hot)] = 1
    db["S"][(*hot, 10_001)] = 1
    assert st.result_multiset() == brute_force_eval(q, db)


def test_next_on_a_closed_tree_iterator_raises():
    q = parse("chain2")
    st = preprocess(q, _zipf_chain2(random.Random(11), n=64, keys=8, pool=64), 0.25)
    for tree in st.trees:  # the light tree and the grounded heavy tree
        it = TreeIter(tree.root)
        with pytest.raises(CallBeforeOpenError):
            it.next()
        it.open(())
        assert it.next() is not None
        it.close()
        with pytest.raises(CallBeforeOpenError):
            it.next()


def test_lookup_on_an_unopened_or_closed_tree_iterator_raises():
    q = parse("chain2")
    st = preprocess(q, _zipf_chain2(random.Random(11), n=64, keys=8, pool=64), 0.25)
    for tree in st.trees:  # the light tree and the grounded heavy tree
        it = TreeIter(tree.root)
        with pytest.raises(CallBeforeOpenError):
            it.lookup((0, 0))
        it.open(())
        a, c = it.next()[0]
        assert it.lookup((a, c)) > 0
        it.close()
        with pytest.raises(CallBeforeOpenError):
            it.lookup((a, c))


def test_grounded_view_holds_no_context_index():
    # a grounded view is only ever ranged over by its buckets, whose scope
    # is the context plus the heavy key; the six grounded view positions of
    # fc3, fc4 and deep4 have the context variable A at position 0
    seen = 0
    for name in ("fc3", "fc4", "deep4"):
        q = parse(name)
        st = preprocess(q, {s: {} for s in q.symbols()}, 0.5, mode="dynamic")
        for tree in st.trees:
            for node in tree.nodes:
                info = node.enum
                if info is None or info.heavy_idx is None:
                    continue
                ctx = node.content.positions(set(info.ctx_order) & set(node.schema))
                if ctx:
                    seen += 1
                    assert ctx not in node.content.indexes, node.name
    assert seen == 6


# ---------------------------------------------------------------------------
# bucket selectors
# ---------------------------------------------------------------------------


def _selector_indexes(st) -> set[tuple[str, tuple[str, ...]]]:
    """(relation, indexed variables) of every grounded node's selector."""
    rels = {id(n.content): n.content for tree in st.trees for n in tree.nodes}
    out = set()
    for tree in st.trees:
        for node in tree.nodes:
            if node.enum is None or node.enum.selector is None:
                continue
            index = node.enum.selector[0]
            (rel, positions), = [(r, p) for r in rels.values()
                                 for p, ix in r.indexes.items() if ix is index]
            out.add((rel.name, tuple(rel.schema[p] for p in positions)))
    return out


def test_selector_indexes_are_registered_on_the_views_they_read():
    st = preprocess(parse("fc4"), rand_db(parse("fc4"), random.Random(3)), 0.5)
    assert _selector_indexes(st) == {("T", ("A", "F")), ("R", ("A", "C"))}
    st = preprocess(parse("chain2"), rand_db(parse("chain2"), random.Random(3)), 0.25)
    assert _selector_indexes(st) == {("R", ("A",))}
    assert (0,) in st.base["R"].indexes


def _celebrity_chain2() -> dict:
    """The Zipf chain2 database plus a celebrity A joined with every B: a
    tuple of the celebrity names every bucket, so its fetch cannot narrow."""
    db = _zipf_chain2(random.Random(11), n=256, keys=32, pool=512)
    db["R"].update({(10_000, b): 1 for b in range(32)})
    return db


def test_selector_narrows_a_lookup_to_the_buckets_its_tuple_names():
    # chain2 at eps 0.25: the heavy tree has one bucket per heavy B, and a
    # lookup of (a, c) reads R at (a, B) in each.  An a of R-degree d with
    # 2d + 1 <= |H| costs 1 (the index fetch) + d (its rows) + the plans of
    # the buckets its rows name; a celebrity a joined with every B costs
    # 1 + every bucket's plan.  Either gives the full-bucket sum.
    q = parse("chain2")
    db = _celebrity_chain2()
    celebrity = 10_000
    st = preprocess(q, db, 0.25, mode="dynamic")
    heavy = next(t for t in st.trees if "xH_B" in t.leaves)
    it = TreeIter(heavy.root)
    it.open(())
    n_buckets = len(it.buckets)
    assert n_buckets == len(st.triples[0].h_content.entries) >= 10

    def bucket_terms(t):
        """(B, multiplicity, ops) of each bucket of a fresh iterator."""
        twin = TreeIter(heavy.root)
        twin.open(())
        out = []
        for b in map(twin._bucket, range(len(twin.buckets))):
            before = st.counters.storage_ops
            out.append((b.ctx["B"], b.lookup(t), st.counters.storage_ops - before))
        return out

    r_rows = st.base["R"].entries
    probes = [(a, c) for (a, b) in r_rows for (b2, c) in db["S"] if b2 == b]
    probes += [(celebrity, c) for (_, c) in db["S"]][:10] + [(-1, -1)]
    light = full = 0
    for a, c in probes:
        terms = bucket_terms((a, c))
        want = sum(m for _, m, _ in terms)
        assert want == sum(r_rows.get((a, b), 0) * db["S"].get((b, c), 0)
                           for b, _, _ in terms)
        d = sum(1 for row in r_rows if row[0] == a)
        if 2 * d + 1 <= n_buckets:
            cost = 1 + d + sum(ops for b, _, ops in terms if (a, b) in r_rows)
            light += 1
        else:
            cost = 1 + sum(ops for _, _, ops in terms)
            full += 1
        before = st.counters.storage_ops
        assert it.lookup((a, c)) == want, (a, c)
        assert st.counters.storage_ops - before == cost, (a, c, d)
    assert light > 10 and full >= 10


GUIDED_STATES = [(n, e, None) for n in SUITE for e in EPS_GRID] + [
    ("chain2", 0.25, "zipf-11"), ("chain2", 0.25, "zipf-13"), ("chain2", 0.25, "celebrity")]


@pytest.mark.parametrize("name,eps,db_name", GUIDED_STATES,
                         ids=[f"{n}-{e}" if d is None else d for n, e, d in GUIDED_STATES])
def test_guided_bucket_union_emits_what_the_unguided_one_does(name, eps, db_name, monkeypatch):
    # every grounded iterator a full enumeration opens, opened afresh: its
    # own next(), which unions its buckets through its selector, emits the
    # same (tuple, multiplicity) sequence as the union of a twin's buckets
    # with no owner, which looks every tuple up in every bucket
    q = parse(name)
    if db_name is None:
        db = rand_db(q, random.Random(f"guided/{name}/{eps}"), per_rel=40, dom=6)
    elif db_name == "celebrity":
        db = _celebrity_chain2()
    else:
        db = _zipf_chain2(random.Random(int(db_name[5:])), n=256, keys=32, pool=512)
    st = preprocess(q, db, eps, mode="dynamic")
    opened = {}
    ground, named = TreeIter._ground, TreeIter._named

    def recorded_ground(it, ctx):
        ground(it, ctx)
        opened.setdefault((it.node.name, ctx), (it.node, ctx))

    monkeypatch.setattr(TreeIter, "_ground", recorded_ground)
    assert st.result_multiset() == brute_force_eval(q, db)
    fetched = []

    def recorded_named(it, t):
        out = named(it, t)
        fetched.append(out is not None)
        return out

    monkeypatch.setattr(TreeIter, "_named", recorded_named)
    guided = 0
    for node, ctx in opened.values():
        it, twin = TreeIter(node), TreeIter(node)
        it.open(ctx)
        twin.open(ctx)
        got = list(iter(it.next, None))
        members = [twin._bucket(k) for k in range(len(twin.buckets or ()))]
        want = list(iter(lambda: union_next(members), None)) if members else []
        assert got == want, (node.name, ctx)
        guided += it.guided
    if db_name is not None:  # every heavy bucket under one guided union
        assert guided == 1 and any(fetched)
    if db_name == "celebrity":
        assert not all(fetched), "no fetch was too full to narrow"


def test_guided_bucket_union_cost_is_pinned():
    # draining the Zipf chain2 read at eps 0.25 (13 heavy B buckets) cost
    # 146,451 ops with a largest next() of 51 when each row was looked up
    # in every bucket; a row now pays for the buckets its A names
    q = parse("chain2")
    st = preprocess(q, _zipf_chain2(random.Random(11), n=256, keys=32, pool=512), 0.25)
    it = st.enumerate_result()
    before = st.counters.storage_ops
    rows = list(it)
    assert len(rows) == 5649
    assert (st.counters.storage_ops - before, st.counters.max_next_ops) == (31_952, 29)


def test_shared_node_reached_under_another_layout_raises():
    leaf = ViewNode("R", ("A",), ATOM, leaf_name="R#0")
    leaf.content = Relation("R", ("A",), Counters())
    annotate(leaf, frozenset({"A"}), ("A",))
    annotate(leaf, frozenset({"A"}), ("A",))  # the same layout: a no-op
    with pytest.raises(InvariantViolationError, match="shared view"):
        annotate(leaf, frozenset({"A"}), ())
