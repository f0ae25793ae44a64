"""Query model: parsing, printing, and classification."""

from __future__ import annotations

import itertools
import random

import pytest

from skewivm.errors import (
    DuplicateVariableInAtomError,
    EmptySchemaAtomError,
    HeadVarNotInBodyError,
    NotHierarchicalError,
    QuerySyntaxError,
    UncoverableVariableError,
)
from skewivm.query import (
    connected_components,
    delta_index,
    hierarchy_violation,
    is_free_connex,
    is_hierarchical,
    is_q_hierarchical,
    min_cover,
    parse_query,
)

from conftest import SUITE, random_any_query, random_hierarchical_query


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic():
    q = parse_query("Q(A,C) = R(A,B), S(B,C).")
    assert q.head_name == "Q"
    assert q.free == {"A", "C"}
    assert [a.symbol for a in q.atoms] == ["R", "S"]
    assert q.atoms[0].schema == ("A", "B")


def test_parse_boolean_head():
    q = parse_query("Q() = R(A).")
    assert q.free == frozenset()


def test_parse_repeated_symbols_get_occurrence_ids():
    q = parse_query("Q(A) = R(A,B), R(B,C).")
    assert [a.key for a in q.atoms] == [("R", 0), ("R", 1)]


def test_parse_duplicate_variable_in_atom():
    with pytest.raises(DuplicateVariableInAtomError):
        parse_query("Q(A) = R(A,A).")


def test_parse_head_var_not_in_body():
    with pytest.raises(HeadVarNotInBodyError):
        parse_query("Q(Z) = R(A,B).")


def test_parse_empty_schema_atom_rejected():
    with pytest.raises(EmptySchemaAtomError):
        parse_query("Q() = R().")
    with pytest.raises(EmptySchemaAtomError):
        parse_query("Q(A) = R(A), S().")


def test_parse_syntax_error_positions():
    with pytest.raises(QuerySyntaxError) as exc:
        parse_query("Q(A = R(A).")
    assert exc.value.position >= 0
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(A) = R(A)")  # missing final period
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(A) = R(A). extra")


def test_roundtrip_print_parse():
    rng = random.Random(11)
    for _ in range(50):
        q = random_hierarchical_query(rng)
        assert parse_query(str(q)) == q


# ---------------------------------------------------------------------------
# classification examples
# ---------------------------------------------------------------------------


def test_hierarchical_examples():
    assert is_hierarchical(parse_query("Q(A) = R(A,B), S(B,C)."))
    assert not is_hierarchical(parse_query("Q(A) = R(A,B), S(B,C), T(C)."))
    assert is_hierarchical(parse_query("Q(A,B) = R(A,B)."))


def test_hierarchy_violation_names_a_pair():
    q = parse_query("Q(A) = R(A,B), S(B,C), T(C).")
    pair = hierarchy_violation(q)
    assert pair == ("B", "C")


def test_q_hierarchical_examples():
    assert not is_q_hierarchical(
        parse_query("Q(A,C,F) = R(A,B,C), S(A,B,D), T(A,E,F), U(A,E,G)."))
    assert is_q_hierarchical(parse_query("Q(A,B) = R(A,B)."))
    assert not is_q_hierarchical(parse_query("Q(A) = R(A,B), S(B)."))
    assert not is_q_hierarchical(parse_query("Q(A) = R(A,B), S(B,C), T(C)."))


def test_free_connex_examples():
    assert is_free_connex(parse_query(SUITE["fc3"]))
    assert not is_free_connex(parse_query(SUITE["chain2"]))
    assert is_free_connex(parse_query(SUITE["semi"]))
    with pytest.raises(NotHierarchicalError):
        is_free_connex(parse_query("Q(A) = R(A,B), S(B,C), T(C)."))


def test_delta_index_examples():
    star = "Q(Y0,Y1,Y2) = R0(X,Y0), R1(X,Y1), R2(X,Y2)."
    assert delta_index(parse_query(star)) == 2
    assert delta_index(parse_query("Q(A,B) = R(A,B).")) == 0
    assert delta_index(parse_query(SUITE["chain2"])) == 1


def test_min_cover_takes_the_first_smallest_subset_in_the_given_order():
    schemas = [("A",), ("B",), ("A", "C"), ("A", "B")]
    assert min_cover(schemas, set()) == ()
    assert min_cover(schemas, {"A"}) == (0,)  # first of three singletons
    assert min_cover(schemas, {"A", "B"}) == (3,)  # smaller beats earlier
    assert min_cover(schemas, {"B", "C"}) == (1, 2)
    with pytest.raises(UncoverableVariableError):
        min_cover(schemas, {"A", "Z"})


def test_connected_components():
    assert len(connected_components(parse_query("Q(A) = R(A,B), S(B,C)."))) == 1
    assert len(connected_components(parse_query("Q(A,B) = R(A), S(B)."))) == 2
    comps = connected_components(
        parse_query("Q(A,D) = R(A,B), S(B,C), T(D), U(D,E)."))
    assert len(comps) == 2
    sizes = sorted(len(c.atoms) for c in comps)
    assert sizes == [2, 2]
    assert all(c.free <= c.variables for c in comps)


# ---------------------------------------------------------------------------
# invariants against definitional checkers
# ---------------------------------------------------------------------------


def _hier_definitional(q) -> bool:
    ao = q.atoms_of
    for x, y in itertools.combinations(q.variables, 2):
        if ao[x] & ao[y] and not (ao[x] <= ao[y] or ao[y] <= ao[x]):
            return False
    return True


def _qh_definitional(q) -> bool:
    if not _hier_definitional(q):
        return False
    ao = q.atoms_of
    return not any(ao[a] < ao[b] and a in q.free and b not in q.free
                   for a in q.variables for b in q.variables)


def _gyo_acyclic(edges: list[frozenset]) -> bool:
    """GYO ear removal on a hypergraph."""
    edges = [set(e) for e in edges if e]
    changed = True
    while changed:
        changed = False
        counts: dict[str, int] = {}
        for e in edges:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        for e in edges:
            lone = {v for v in e if counts[v] == 1}
            if lone:
                e -= lone
                changed = True
        edges = [e for e in edges if e]
        for i, e in enumerate(edges):
            if any(i != j and e <= f for j, f in enumerate(edges)):
                del edges[i]
                changed = True
                break
    return not edges


def _fc_definitional(q) -> bool:
    """Free-connex by definition: alpha-acyclic and still alpha-acyclic with
    the head added as an atom."""
    body = [frozenset(a.schema) for a in q.atoms]
    return _gyo_acyclic(body) and _gyo_acyclic(body + [frozenset(q.free)])


def _delta_index_definitional(q) -> int:
    ao = q.atoms_of
    by_key = q.atom_by_key
    schemas = [set(a.schema) for a in q.atoms]
    worst = 0
    for x in q.bound:
        free_around = {v for k in ao[x] for v in by_key[k].schema if v in q.free}
        for k in ao[x]:
            target = free_around - set(by_key[k].schema)
            need = 0
            if target:
                for size in range(1, len(schemas) + 1):
                    if any(target <= set().union(*combo)
                           for combo in itertools.combinations(schemas, size)):
                        need = size
                        break
            worst = max(worst, need)
    return worst


def test_classification_agrees_with_definitions_on_random_queries():
    rng = random.Random(21)
    for _ in range(150):
        q = random_any_query(rng)
        assert is_hierarchical(q) == _hier_definitional(q)
        assert is_q_hierarchical(q) == _qh_definitional(q)
    for _ in range(150):
        q = random_hierarchical_query(rng, max_atoms=6, max_vars=8)
        assert is_hierarchical(q)
        assert is_free_connex(q) == _fc_definitional(q)
        assert delta_index(q) == _delta_index_definitional(q)


def test_q_hierarchical_iff_delta_index_zero():
    rng = random.Random(33)
    for _ in range(120):
        q = random_hierarchical_query(rng)
        assert is_q_hierarchical(q) == (delta_index(q) == 0)


def test_free_connex_implies_delta_index_at_most_one():
    rng = random.Random(44)
    for _ in range(120):
        q = random_hierarchical_query(rng)
        if is_free_connex(q):
            assert delta_index(q) in (0, 1)
