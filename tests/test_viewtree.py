"""View-tree construction and materialization."""

from __future__ import annotations

import random

import pytest

from skewivm.engine import preprocess
from skewivm.oracle import brute_force_eval
from skewivm.query import connected_components, parse_query
from skewivm.viewtree import (
    ATOM,
    HEAVY_REF,
    LIGHT,
    ViewNode,
    aux_view,
    make_context,
    new_vt,
    tau,
)
from skewivm.vorder import canonical_vo

from conftest import SUITE, leaf_rows, parse, rand_db, random_hierarchical_query, run_trace


def shape(node: ViewNode):
    return (node.name, ",".join(node.schema), tuple(shape(c) for c in node.children))


def build(text: str, mode: str):
    q = parse_query(text)
    vo = canonical_vo(q)
    ctx = make_context(q, vo, q.free, mode)
    roots = [t for r in vo.roots for t in tau(ctx, r)]
    return roots, ctx.triples


# ---------------------------------------------------------------------------
# golden structures from the worked examples
# ---------------------------------------------------------------------------


def test_chain2_dynamic_structure():
    roots, triples = build("Q(A,C) = R(A,B), S(B,C).", "dynamic")
    assert [shape(r) for r in roots] == [
        ("V_B", "A,C", (("R#0^B", "A,B", ()), ("S#0^B", "B,C", ()))),
        ("V_B", "B", (
            ("xH_B", "B", ()),
            ("R#0'", "B", (("R#0", "A,B", ()),)),
            ("S#0'", "B", (("S#0", "B,C", ()),)),
        )),
    ]
    (t,) = triples
    assert t.keys == ("B",)
    assert shape(t.all_root) == (
        "All_B", "B", (("All_A", "B", (("R#0", "A,B", ()),)),
                       ("All_C", "B", (("S#0", "B,C", ()),))))
    assert shape(t.light_root) == (
        "L_B", "B", (("L_A", "B", (("R#0^B", "A,B", ()),)),
                     ("L_C", "B", (("S#0^B", "B,C", ()),))))


def test_semi_dynamic_structure():
    roots, triples = build("Q(A) = R(A,B), S(B).", "dynamic")
    assert [shape(r) for r in roots] == [
        ("V_B", "A", (("R#0^B", "A,B", ()), ("S#0^B", "B", ()))),
        ("V_B", "B", (
            ("xH_B", "B", ()),
            ("R#0'", "B", (("R#0", "A,B", ()),)),
            ("S#0", "B", ()),
        )),
    ]
    (t,) = triples
    assert shape(t.all_root) == (
        "All_B", "B", (("All_A", "B", (("R#0", "A,B", ()),)), ("S#0", "B", ())))


def test_free_connex_static_single_tree():
    roots, triples = build("Q(A,D,E) = R(A,B,C), S(A,B,D), T(A,E).", "static")
    assert triples == []
    assert [shape(r) for r in roots] == [
        ("V_A", "A", (
            ("V_B", "A,D", (
                ("V_C", "A,B", (("R#0", "A,B,C", ()),)),
                ("S#0", "A,B,D", ()),
            )),
            ("T#0", "A,E", ()),
        )),
    ]


def test_deep4_dynamic_counts():
    roots, triples = build(
        "Q(C,D,E,F) = R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G).", "dynamic")
    # light-at-A tree plus heavy-at-A x {light-at-(A,B), heavy-at-(A,B)}
    assert len(roots) == 3
    assert sorted(t.var for t in triples) == ["A", "B"]
    keys = {t.var: t.keys for t in triples}
    assert keys["A"] == ("A",) and keys["B"] == ("A", "B")
    light = roots[0]
    assert light.schema == ("C", "D", "E", "F")
    assert {n.leaf_name for n in light.postorder() if n.is_leaf} == \
        {"R#0^A", "S#0^A", "T#0^A", "U#0^A"}
    heavy_names = [{n.leaf_name for n in r.postorder() if n.is_leaf} for r in roots[1:]]
    assert {"xH_A", "R#0^AB", "S#0^AB", "T#0", "U#0"} in heavy_names
    assert {"xH_A", "xH_B", "R#0", "S#0", "T#0", "U#0"} in heavy_names


def test_new_vt_collapse_rules():
    q = parse("chain2")
    ctx = make_context(q, canonical_vo(q), q.free, "static")
    child = ViewNode("X", ("A", "B"), "join-view")
    assert new_vt(ctx, "V", {"A", "B"}, [child]) is child
    wrapped = new_vt(ctx, "V", {"A"}, [child])
    assert wrapped is not child and wrapped.schema == ("A",)
    two = new_vt(ctx, "V", {"A", "B"},
                 [child, ViewNode("Y", ("A", "B"), "join-view")])
    assert len(two.children) == 2


def test_aux_view_conditions():
    q = parse("fc3")
    vo = canonical_vo(q)
    tree = ViewNode("V_B", ("A", "D"), "join-view")
    static_ctx = make_context(q, vo, q.free, "static")
    assert aux_view(static_ctx, "B", tree) is tree
    dyn_ctx = make_context(q, vo, q.free, "dynamic")
    wrapped = aux_view(dyn_ctx, "B", tree)
    assert wrapped.kind == "aux-view" and wrapped.schema == ("A",)
    # no sibling -> unchanged even in dynamic mode
    v_c = ViewNode("V_C", ("A", "B"), "join-view")
    assert aux_view(dyn_ctx, "C", v_c) is v_c


def test_free_connex_static_and_delta0_dynamic_have_no_indicators():
    for text, mode in [
        ("Q(A,D,E) = R(A,B,C), S(A,B,D), T(A,E).", "static"),
        ("Q(A,E) = R(A,B), S(A,E).", "dynamic"),
        ("Q(A,B) = R(A,B).", "dynamic"),
    ]:
        roots, triples = build(text, mode)
        assert len(roots) == 1 and triples == []


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------


def test_materialized_views_match_recomputation():
    rng = random.Random(61)
    for name in ("chain2", "fc3", "deep4"):
        q = parse(name)
        db = rand_db(q, rng, per_rel=30, dom=6)
        for eps in (0.0, 0.5, 1.0):
            st = preprocess(q, db, eps, mode="dynamic")
            st._check_contents()


def test_set_semantics_nodes_hold_only_multiplicity_one():
    rng = random.Random(67)
    q = parse("chain2")
    db = rand_db(q, rng, per_rel=60, dom=5)
    st = preprocess(q, db, 0.25, mode="dynamic")

    def check(step=None):
        for tree in st.forest:
            for node in tree.nodes:
                if node.semantics == "set":
                    assert set(node.content.entries.values()) <= {1}, node.name
        for triple in st.triples:
            assert set(triple.h_content.entries.values()) <= {1}, triple.h_name

    check()
    run_trace(st, q, rng, steps=150, dom=5, on_step=check)


def test_every_leaf_reads_its_canonical_relation():
    q = parse_query("Q(A) = R(A,B), R(B,C).")
    db = rand_db(q, random.Random(73), per_rel=30, dom=5)
    st = preprocess(q, db, 0.5, mode="dynamic")
    assert st.atom_rels["R#0"] is st.base["R"]
    assert st.atom_rels["R#1"] is not st.base["R"]
    sources = dict(st.atom_rels)
    for triple in st.triples:
        sources[triple.support_name] = triple.h_content
        for lp in triple.light_parts:
            # a light leaf reads its occurrence's relation through L
            sources[lp.name] = st.atom_rels[lp.atom.name]
    kinds = set()
    for tree in st.forest:
        for node in tree.nodes:
            if node.is_leaf:
                assert node.content is sources[node.leaf_name], node.name
                kinds.add(node.kind)
    assert kinds == {ATOM, LIGHT, HEAVY_REF}


def test_empty_database_all_views_empty():
    q = parse("deep4")
    st = preprocess(q, {s: {} for s in q.symbols()}, 0.5, mode="dynamic")
    for tree in st.trees:
        for node in tree.nodes:
            assert node.content.size == 0


def test_forest_equivalence_on_random_queries():
    """Union over the forest of each tree's leaf-join equals the query
    result as a set of distinct tuples (checked per component)."""
    rng = random.Random(71)
    for _ in range(25):
        q = random_hierarchical_query(rng, max_atoms=4, max_vars=6)
        db = rand_db(q, rng, per_rel=12, dom=4)
        st = preprocess(q, db, rng.choice((0.0, 0.5, 1.0)), mode="dynamic")
        for comp_q, comp in zip(connected_components(q), st.components):
            want = set(brute_force_eval(comp_q, db))
            got = set()
            for tree in comp.trees:
                got |= set(_leaf_join(comp_q, tree))
            assert got == want, str(q)


def _leaf_join(comp_q, tree):
    """Join of a tree's leaf contents projected to the component head, via
    the brute-force evaluator over the leaves as fresh relations."""
    from skewivm.query import Atom, ConjunctiveQuery

    leaves = [n for n in tree.nodes if n.is_leaf]
    atoms = tuple(Atom(n.leaf_name, n.schema, 0) for n in leaves)
    jq = ConjunctiveQuery("J", comp_q.head_vars, atoms)
    db = {n.leaf_name: dict(leaf_rows(n).entries) for n in leaves}
    return brute_force_eval(jq, db)


# ---------------------------------------------------------------------------
# the interned view DAG
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ("static", "dynamic"))
@pytest.mark.parametrize("name", sorted(SUITE))
def test_forest_is_interned_into_one_node_per_distinct_view(name, mode):
    q = parse(name)
    st = preprocess(q, {s: {} for s in q.symbols()}, 0.5, mode=mode)
    keys = [(n.schema, n.semantics, tuple(id(c) for c in n.children))
            for n in st.dag.views]
    assert len(set(keys)) == len(keys)
    leaf_names = [n.leaf_name for n in st.dag.nodes if n.is_leaf]
    assert len(set(leaf_names)) == len(leaf_names)
    assert {id(n) for t in st.forest for n in t.nodes} == {id(n) for n in st.dag.nodes}
    at = {id(n): i for i, n in enumerate(st.dag.nodes)}
    assert all(at[id(c)] < at[id(n)] for n in st.dag.views for c in n.children)
    if (name, mode) == ("fc4", "dynamic"):
        assert st.view_counts() == {"positions": 44, "distinct": 24}


@pytest.mark.parametrize("name", sorted(SUITE))
def test_each_view_above_a_leaf_takes_its_delta_once(name):
    q = parse(name)
    st = preprocess(q, {s: {} for s in q.symbols()}, 0.5, mode="dynamic")
    for leaf_name, steps in st.dag.leaf_paths.items():
        leaf = next(n for n in st.dag.nodes if n.is_leaf and n.leaf_name == leaf_name)
        nodes = [node for node, _, _ in steps]
        above = {id(n) for n in st.dag.views
                 if any(m.leaf_name == leaf_name for m in n.postorder())}
        assert len(nodes) == len(above) == len({id(n) for n in nodes})
        assert {id(n) for n in nodes} == above
        for k, (node, plan, src) in enumerate(steps):
            # the delta arrives from the leaf or from the view an earlier
            # step wrote
            assert src < k
            assert node.children[plan.start_index] is (nodes[src] if src >= 0 else leaf)
