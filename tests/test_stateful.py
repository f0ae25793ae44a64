"""Stateful property test: random hierarchical queries under random update
streams, with the emitted result list checked against the oracle after
every step.

One machine runs per epsilon of the grid and per mode.  Its model is the
database itself: after every rule the engine's result list must hold each
tuple of ``brute_force_eval`` once, with the oracle's multiplicity, and
``check_invariants(deep=True)`` must pass.  A dynamic engine takes the
updates through ``on_update``; a static one is rebuilt from the model.
Hypothesis runs derandomized, so every run draws the same examples.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule, run_state_machine_as_test)

from skewivm.engine import preprocess
from skewivm.errors import EngineError, IteratorInvalidatedError, RejectedDeleteError
from skewivm.oracle import brute_force_eval
from skewivm.query import is_q_hierarchical, parse_query

from conftest import EPS_GRID, SUITE, random_hierarchical_query

# drawn besides the random queries: two q-hierarchical ones (constant
# update time and delay), a self-join, a two-component product, and fc3
# and fc4, whose trees ground below their roots
FIXED_QUERIES = [
    "Q(A,B) = R(A,B), S(A).",
    "Q(A,B,C) = R(A,B), S(A,C), T(A).",
    "Q(A,C) = R(A,B), R(B,C).",
    "Q(A,C,X) = R(A,B), S(B,C), T(X,Y).",
    SUITE["fc3"],
    SUITE["fc4"],
]

DOM = 3  # few values, so keys repeat and turn heavy
MAX_N = 64  # bursts stop here, so the oracle stays cheap


class EngineMachine(RuleBasedStateMachine):
    """One query and database; the rules update both the engine and the
    model, and the invariant compares what the engine emits."""

    def __init__(self, eps: float, mode: str, seen: dict):
        super().__init__()
        self.eps, self.mode, self.seen = eps, mode, seen
        self.q = self.db = self.state = self.open_it = None
        self.generation = 0

    @initialize(query=st.sampled_from(FIXED_QUERIES + [None, None]),
                seed=st.integers(0, 2**32))
    def build(self, query, seed):
        # the seed, not Hypothesis, sizes the database: Hypothesis favours
        # small draws, and the union needs a few rows per key to overlap
        rng = random.Random(seed)
        size = rng.randint(8, 24)
        if query is None:
            self.q = random_hierarchical_query(rng, max_atoms=4, max_vars=5)
        else:
            self.q = parse_query(query)
        self.db = {}
        for sym in self.q.symbols():
            arity = len(self.q.occurrences(sym)[0].schema)
            self.db[sym] = {tuple(rng.randrange(DOM) for _ in range(arity)): rng.randint(1, 3)
                            for _ in range(size)}
        self.state = preprocess(self.q, {s: dict(r) for s, r in self.db.items()},
                                self.eps, mode=self.mode)
        self.seen["q-hierarchical"] += is_q_hierarchical(self.q)
        self.seen["self-join"] += len(self.q.symbols()) < len(self.q.atoms)

    # -- updates -------------------------------------------------------------

    def _update(self, sym: str, row: tuple, mult: int) -> None:
        rel = self.db[sym]
        rel[row] = rel.get(row, 0) + mult
        if not rel[row]:
            del rel[row]
        if self.mode == "dynamic":
            self.state.on_update(sym, row, mult)
        else:
            with pytest.raises(EngineError):
                self.state.on_update(sym, row, mult)

    def _rebuild(self) -> None:
        if self.mode == "static":
            self.state = preprocess(self.q, {s: dict(r) for s, r in self.db.items()},
                                    self.eps, mode="static")

    def _rows(self) -> list[tuple[str, tuple]]:
        return sorted(((s, row) for s, rel in self.db.items() for row in rel), key=repr)

    @rule(pick=st.integers(0, 99), values=st.lists(st.integers(0, DOM - 1), min_size=5,
                                                   max_size=5), mult=st.integers(1, 2))
    def insert(self, pick, values, mult):
        syms = self.q.symbols()
        sym = syms[pick % len(syms)]
        self._update(sym, tuple(values[:len(self.q.occurrences(sym)[0].schema)]), mult)
        self._rebuild()

    @rule(pick=st.integers(0, 999), whole=st.booleans())
    def delete(self, pick, whole):
        rows = self._rows()
        if not rows:
            return
        sym, row = rows[pick % len(rows)]
        self._update(sym, row, -self.db[sym][row] if whole else -1)
        self._rebuild()

    @precondition(lambda self: self.mode == "dynamic")
    @rule(pick=st.integers(0, 999))
    def over_delete(self, pick):
        # a delete past a row's multiplicity (or of an absent row) is
        # rejected and changes nothing, so an open iterator stays valid
        rows = self._rows() or [(self.q.symbols()[0], None)]
        sym, row = rows[pick % len(rows)]
        if row is None:
            row = (DOM,) * len(self.q.occurrences(sym)[0].schema)
        before = self.state.generation
        with pytest.raises(RejectedDeleteError):
            self.state.on_update(sym, row, -self.db[sym].get(row, 0) - 1)
        assert self.state.generation == before
        self.seen["rejected"] += 1

    @rule(pick=st.integers(0, 99))
    def hot_burst(self, pick):
        # inserts on one hot key, as run_trace's ``hot`` makes them: every
        # value -1 but that of the atom's variable in the fewest atoms, until
        # a major doubles M (a static state takes 8)
        syms = self.q.symbols()
        sym = syms[pick % len(syms)]
        schema = self.q.occurrences(sym)[0].schema
        lowest = min(schema, key=lambda v: len(self.q.atoms_of[v]))
        majors = self.state.counters.major_rebalances
        for k in range(DOM, DOM + MAX_N):
            if (self.state.counters.major_rebalances > majors
                    or self.mode == "static" and k == DOM + 8):
                break
            row = tuple(k if v == lowest else -1 for v in schema)
            if row not in self.db[sym] and sum(map(len, self.db.values())) >= MAX_N:
                break
            self._update(sym, row, 1)
        self.seen["doubled"] += self.state.counters.major_rebalances > majors
        self._rebuild()

    @precondition(lambda self: self.mode == "dynamic")
    @rule()
    def drain(self):
        # deletes, last row first, until a major halves M
        majors = self.state.counters.major_rebalances
        for sym, row in reversed(self._rows()):
            self._update(sym, row, -self.db[sym][row])
            if self.state.counters.major_rebalances > majors:
                self.seen["halved"] += 1
                break

    # -- the model check -------------------------------------------------------

    @invariant()
    def emits_the_oracle_result(self):
        if self.state is None:
            return
        if self.open_it is not None:
            if self.state.generation != self.generation:
                with pytest.raises(IteratorInvalidatedError):
                    self.open_it.next()
                self.seen["invalidated"] += 1
            else:
                self.open_it.next()  # still valid
        rows = list(self.state.enumerate_result())
        want = brute_force_eval(self.q, self.db)
        assert sorted(rows, key=repr) == sorted(want.items(), key=repr)
        self.state.check_invariants(deep=True)
        if self.mode == "dynamic":
            self.open_it, self.generation = self.state.enumerate_result(), self.state.generation
            self.open_it.next()


@pytest.mark.parametrize("mode", ["dynamic", "static"])
@pytest.mark.parametrize("eps", EPS_GRID)
def test_engine_emits_the_oracle_result_under_any_update_stream(eps, mode):
    seen = dict.fromkeys(("q-hierarchical", "self-join", "rejected", "doubled",
                          "halved", "invalidated"), 0)
    run_state_machine_as_test(
        lambda: EngineMachine(eps, mode, seen),
        settings=settings(max_examples=60, stateful_step_count=3, derandomize=True,
                          database=None, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow]))
    assert seen["q-hierarchical"] and seen["self-join"], seen
    if mode == "dynamic":
        assert seen["rejected"] and seen["doubled"] and seen["halved"], seen
        assert seen["invalidated"], seen
