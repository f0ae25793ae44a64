"""The brute-force evaluator and exhaustive width search."""

from __future__ import annotations

import pytest

from skewivm.errors import MissingRelationError, TooLargeError
from skewivm.oracle import brute_force_eval, brute_force_widths
from skewivm.query import parse_query

from conftest import parse


def test_eval_worked_example():
    q = parse("chain2")
    db = {"R": {("a1", "b1"): 1, ("a1", "b2"): 1, ("a2", "b1"): 1},
          "S": {("b1", "c1"): 1, ("b2", "c1"): 1, ("b2", "c2"): 1}}
    assert brute_force_eval(q, db) == {
        ("a1", "c1"): 2, ("a1", "c2"): 1, ("a2", "c1"): 1}


def test_eval_empty_relation():
    q = parse("chain2")
    assert brute_force_eval(q, {"R": {}, "S": {(1, 2): 1}}) == {}


def test_eval_boolean_counts_combinations():
    q = parse_query("Q() = R(A,B), S(B,C).")
    db = {"R": {(1, 2): 2, (5, 2): 1}, "S": {(2, 3): 3}}
    assert brute_force_eval(q, db) == {(): 9}


def test_eval_multiplicities_multiply_and_sum():
    q = parse("semi")
    db = {"R": {("a", "b1"): 2, ("a", "b2"): 1}, "S": {("b1",): 3, ("b2",): 5}}
    assert brute_force_eval(q, db) == {("a",): 11}


def test_eval_none_is_a_value():
    # a variable bound to None joins only with None
    q = parse("chain2")
    db = {"R": {(1, None): 1, (2, 7): 1}, "S": {(7, 3): 1, (None, 4): 2}}
    assert brute_force_eval(q, db) == {(1, 4): 2, (2, 3): 1}


def test_eval_missing_relation():
    q = parse("chain2")
    with pytest.raises(MissingRelationError):
        brute_force_eval(q, {"R": {}})


def test_eval_size_cap():
    q = parse_query("Q(A) = R(A).")
    with pytest.raises(TooLargeError):
        brute_force_eval(q, {"R": {(i,): 1 for i in range(2001)}})


def test_eval_repeated_symbol_uses_one_relation():
    q = parse_query("Q(A) = R(A,B), R(B,C).")
    db = {"R": {(1, 2): 1, (2, 3): 1}}
    assert brute_force_eval(q, db) == {(1,): 1}


def test_widths_examples():
    assert brute_force_widths(parse("chain2")) == (2, 1)
    assert brute_force_widths(parse_query("Q(A,B) = R(A,B).")) == (1, 0)
    assert brute_force_widths(parse_query("Q(A,E) = R(A,B), S(A,E).")) == (1, 0)
    assert brute_force_widths(parse("deep4")) == (3, 3)
    assert brute_force_widths(parse("star3")) == (3, 2)


def test_widths_var_cap():
    q = parse_query("Q(A) = R(A,B,C,D,E,F,G,H).")
    with pytest.raises(TooLargeError):
        brute_force_widths(q)


def test_widths_deterministic():
    q = parse("fc4")
    assert brute_force_widths(q) == brute_force_widths(q) == (1, 1)
