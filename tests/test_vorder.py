"""Variable orders and width measures."""

from __future__ import annotations

import itertools
import random

import pytest

from skewivm.errors import NotCanonicalError, UncoverableVariableError
from skewivm.oracle import brute_force_widths
from skewivm.query import Atom, ConjunctiveQuery, delta_index, parse_query
from skewivm.vorder import (
    canonical_vo,
    dynamic_width,
    free_top,
    integral_edge_cover,
    kappa_measure,
    rho_star,
    static_width,
    xi_measure,
)

from conftest import parse, random_hierarchical_query


def is_free_top(vo) -> bool:
    """No bound variable of ``vo`` has a free variable below it."""
    free = vo.query.free
    return not any(v not in free and any(b in free for b in vo.subtree_vars(v) if b != v)
                   for v in vo.variables())


def _shape(vo, node):
    label = node if isinstance(node, str) else str(node)
    return (label, tuple(_shape(vo, k) for k in vo.kids(node)))


def _forest_shape(vo):
    return tuple(_shape(vo, r) for r in vo.roots)


# ---------------------------------------------------------------------------
# canonical orders
# ---------------------------------------------------------------------------


def test_canonical_prelim_example():
    q = parse_query("Q(A,C,F) = R(A,B,C), S(A,B,D), T(A,E,F), U(A,E,G).")
    vo = canonical_vo(q)
    assert _forest_shape(vo) == (
        ("A", (
            ("B", (("C", (("R(A,B,C)", ()),)), ("D", (("S(A,B,D)", ()),)))),
            ("E", (("F", (("T(A,E,F)", ()),)), ("G", (("U(A,E,G)", ()),)))),
        )),
    )
    assert vo.is_canonical()


def test_canonical_chain2():
    vo = canonical_vo(parse("chain2"))
    assert _forest_shape(vo) == (
        ("B", (("A", (("R(A,B)", ()),)), ("C", (("S(B,C)", ()),)))),
    )


def test_canonical_single_atom_lexicographic_chain():
    vo = canonical_vo(parse_query("Q(A,B) = R(A,B)."))
    assert _forest_shape(vo) == (("A", (("B", (("R(A,B)", ()),)),)),)


def test_canonical_dep_equals_ancestors():
    rng = random.Random(3)
    for _ in range(40):
        q = random_hierarchical_query(rng)
        vo = canonical_vo(q)
        for v in vo.variables():
            assert vo.dep(v) == frozenset(vo.anc(v))


# ---------------------------------------------------------------------------
# free-top transform
# ---------------------------------------------------------------------------


def test_free_top_chain2():
    vo = free_top(canonical_vo(parse("chain2")))
    assert _forest_shape(vo) == (
        ("A", (("C", (("B", (("R(A,B)", ()), ("S(B,C)", ()))),)),)),
    )
    assert is_free_top(vo) and vo.is_valid()


def test_free_top_noop_when_already_free_top():
    vo = canonical_vo(parse_query("Q(A,B) = R(A,B)."))
    assert _forest_shape(free_top(vo)) == _forest_shape(vo)


def test_free_top_eight_relation_figure():
    # canonical: A-{B-{D-{H,I}; E-{J,K}}; C-{F-{L,M}; G-{N,O}}} with
    # free {A,B,D,G,J,K,L,M}; the transform pushes E below J,K and C below
    # G,L,M, splicing each eliminated variable's atoms up to its parent.
    atoms = [
        Atom("R1", ("A", "B", "D", "H")), Atom("R2", ("A", "B", "D", "I")),
        Atom("R3", ("A", "B", "E", "J")), Atom("R4", ("A", "B", "E", "K")),
        Atom("R5", ("A", "C", "F", "L")), Atom("R6", ("A", "C", "F", "M")),
        Atom("R7", ("A", "C", "G", "N")), Atom("R8", ("A", "C", "G", "O")),
    ]
    q = ConjunctiveQuery("Q", ("A", "B", "D", "G", "J", "K", "L", "M"), tuple(atoms))
    ft = free_top(canonical_vo(q))
    assert is_free_top(ft) and ft.is_valid()
    # E's subtree became the path J-K-E with R3, R4 under E
    assert ft.anc("E") == ("A", "B", "J", "K")
    assert {str(a) for a in ft.kids("E")} == {"R3(A,B,E,J)", "R4(A,B,E,K)"}
    # C's subtree became G-L-M-C; eliminating free G spliced N and O up to C
    assert ft.anc("C") == ("A", "G", "L", "M")
    kids_c = {k if isinstance(k, str) else str(k) for k in ft.kids("C")}
    assert kids_c == {"F", "N", "O"}
    assert [str(a) for a in ft.kids("N")] == ["R7(A,C,G,N)"]
    assert [str(a) for a in ft.kids("O")] == ["R8(A,C,G,O)"]


def test_free_top_requires_canonical():
    vo = free_top(canonical_vo(parse("chain2")))
    with pytest.raises(NotCanonicalError):
        free_top(vo)


def test_free_top_valid_on_random_queries():
    rng = random.Random(9)
    for _ in range(80):
        q = random_hierarchical_query(rng)
        ft = free_top(canonical_vo(q))
        assert ft.is_valid(), str(q)
        assert is_free_top(ft), str(q)


# ---------------------------------------------------------------------------
# edge covers
# ---------------------------------------------------------------------------


def test_edge_cover_examples():
    q = parse("deep4")
    assert integral_edge_cover(q, set()).total == 0
    assert integral_edge_cover(q, {"C", "D", "E", "F"}).total == 3
    q2 = parse("chain2")
    assert integral_edge_cover(q2, {"A", "C"}).total == 2


def test_edge_cover_uncoverable():
    q = parse("chain2")
    with pytest.raises(UncoverableVariableError):
        integral_edge_cover(q, {"Z"})


def test_edge_cover_matches_exhaustive_minimum():
    rng = random.Random(17)
    for _ in range(60):
        q = random_hierarchical_query(rng, max_atoms=5, max_vars=6)
        target = {v for v in q.variables if rng.random() < 0.5}
        got = rho_star(q, target)
        best = 0
        if target:
            best = None
            for size in range(len(q.atoms) + 1):
                for combo in itertools.combinations(q.atoms, size):
                    if target <= set().union(*(set(a.schema) for a in combo), set()):
                        best = size
                        break
                if best is not None:
                    break
        assert got == best


# ---------------------------------------------------------------------------
# widths
# ---------------------------------------------------------------------------

WIDTH_TABLE = {
    "chain2": (2, 1),
    "semi": (1, 1),
    "fc3": (1, 1),
    "fc4": (1, 1),
    "deep4": (3, 3),
    "star3": (3, 2),
}


def test_suite_widths():
    for name, (w, d) in WIDTH_TABLE.items():
        q = parse(name)
        assert static_width(q) == w, name
        assert dynamic_width(q) == d, name


def test_widths_against_exhaustive_oracle():
    rng = random.Random(29)
    for _ in range(40):
        q = random_hierarchical_query(rng, max_atoms=4, max_vars=5)
        w_oracle, d_oracle = brute_force_widths(q)
        assert dynamic_width(q) == d_oracle, str(q)
        # the engine's w is the width of free-top(canonical); it upper-bounds
        # the oracle minimum and matches it on every suite query
        assert static_width(q) >= w_oracle, str(q)


def test_delta_within_one_of_w():
    rng = random.Random(31)
    for _ in range(80):
        q = random_hierarchical_query(rng)
        w, d = static_width(q), dynamic_width(q)
        assert d in (w, w - 1), str(q)


def test_delta_index_equals_dynamic_width():
    rng = random.Random(37)
    for _ in range(80):
        q = random_hierarchical_query(rng)
        assert delta_index(q) == dynamic_width(q), str(q)


# ---------------------------------------------------------------------------
# xi and kappa
# ---------------------------------------------------------------------------


def test_xi_examples():
    q = parse("deep4")
    vo = canonical_vo(q)
    assert xi_measure(vo, "A", set(q.free)) == 3
    single = parse_query("Q(A,B) = R(A,B).")
    vs = canonical_vo(single)
    atom_leaf = [n for n in vs.parent if not isinstance(n, str)][0]
    assert xi_measure(vs, atom_leaf, set(single.free)) == 0


def test_xi_free_connex_root_small():
    q = parse("fc3")
    vo = canonical_vo(q)
    assert xi_measure(vo, "A", set(q.free)) in (0, 1)


def test_kappa_examples():
    qh = parse_query("Q(A,E) = R(A,B), S(A,E).")
    assert kappa_measure(canonical_vo(qh), set(qh.free)) == 0
    q1 = parse("chain2")
    assert kappa_measure(canonical_vo(q1), set(q1.free)) == 1
    q5 = parse("deep4")
    assert kappa_measure(canonical_vo(q5), set(q5.free)) == 3


def test_kappa_at_most_dynamic_width():
    rng = random.Random(41)
    for _ in range(80):
        q = random_hierarchical_query(rng)
        vo = canonical_vo(q)
        assert kappa_measure(vo, set(q.free)) <= dynamic_width(q), str(q)
