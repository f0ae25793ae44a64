"""Single-tuple updates, indicator maintenance, and rebalancing."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import zlib
from pathlib import Path
from types import MethodType, SimpleNamespace

import pytest

from skewivm.bench import skewed_trace
from skewivm.engine import EngineState, ViewTree, preprocess
from skewivm.enumeration import union_next
from skewivm.errors import (
    ArityMismatchError,
    EngineError,
    InvalidMultiplicityError,
    InvariantViolationError,
    MissingRelationError,
    NotHierarchicalError,
    RejectedDeleteError,
    UnhashableValueError,
)
from skewivm.oracle import brute_force_eval
from skewivm.query import parse_query
from skewivm.storage import iceil, key_degrees
from skewivm.viewtree import ATOM, JOIN, ViewNode

from conftest import EPS_GRID, SUITE, parse, reference_run_join, run_trace


# ---------------------------------------------------------------------------
# apply + indicator trees
# ---------------------------------------------------------------------------


def test_apply_heavy_tree_delta_matches_hand_computation():
    # heavy strategy of the two-hop chain: V_B(B) = xH_B(B), R'(B), S'(B)
    q = parse("chain2")
    db = {"R": {(1, 7): 1, (2, 7): 1, (3, 7): 1, (9, 8): 1},
          "S": {(7, 4): 1, (7, 5): 1, (7, 6): 1}}
    st = preprocess(q, db, 0.0, mode="dynamic")  # theta=1: key 7 is heavy
    heavy = next(t for t in st.trees
                 if any(n.leaf_name == "xH_B" for n in t.nodes))
    root = heavy.root
    before = root.content.get((7,))
    deltas = st._apply(st.dag, "R#0", {(5, 7): 1})
    steps = [node for node, _, _ in st.dag.leaf_paths["R#0"]]
    # dV_B(7) = xH_B(7) * dR'(7) * S'(7) = 1 * 1 * 3
    assert deltas[steps.index(root)] == {(7,): 3}
    assert root.content.get((7,)) == before + 3


def test_apply_to_tree_without_the_leaf_is_a_noop():
    q = parse("chain2")
    st = preprocess(q, {"R": {(1, 2): 1}, "S": {(2, 3): 1}}, 0.5, mode="dynamic")
    light = next(t for t in st.trees if "R#0^B" in t.leaves)
    before = {id(n): dict(n.content.entries) for n in light.nodes}
    deltas = st._apply(st.dag, "R#0", {(4, 4): 1})
    steps = [node for node, _, _ in st.dag.leaf_paths["R#0"]]
    assert not any(node in steps for node in light.nodes)
    assert len(deltas) == len(steps)
    assert {id(n): dict(n.content.entries) for n in light.nodes} == before
    assert st._apply(st.dag, "Zebra", {(4, 4): 1}) == []


def test_update_ind_tree_support_transitions():
    q = parse("chain2")
    st = preprocess(q, {"R": {}, "S": {}}, 1.0, mode="dynamic")
    (triple,) = st.triples

    def update(leaf_name, delta):
        before = triple.all_root.content.get((5,))
        st._apply(st.dag, leaf_name, delta)
        return st._update_ind_tree(triple.all_root, (5,), before)

    # first insert making the key supported in All: +1
    d = update("R#0", {(1, 5): 1})
    assert d == 0  # All = All_A x All_C needs both sides
    d = update("S#0", {(5, 2): 1})
    assert d == 1
    # staying positive: no support change
    d = update("S#0", {(5, 3): 1})
    assert d == 0
    # last delete: -1
    update("S#0", {(5, 3): -1})
    d = update("S#0", {(5, 2): -1})
    assert d == -1


def test_insert_creating_all_but_heavy_key_leaves_light_untouched():
    q = parse("chain2")
    db = {"R": {(i, 7): 1 for i in range(6)}, "S": {(7, 1): 1}}
    st = preprocess(q, db, 0.5, mode="dynamic")  # key 7 heavy in R
    (triple,) = st.triples
    lp_r = next(lp for lp in triple.light_parts if lp.atom.symbol == "R")
    assert lp_r.content.size == 0
    before_light = dict(triple.light_root.content.entries)
    st.on_update("R", (99, 7), 1)
    assert lp_r.content.size == 0  # heavy key: light copies untouched
    assert dict(triple.light_root.content.entries) == before_light
    assert (7,) in st.triples[0].h_content.entries


# ---------------------------------------------------------------------------
# on_update: thresholds and rebalancing
# ---------------------------------------------------------------------------


def test_first_insert_on_empty_database_doubles_m():
    q = parse("chain2")
    st = preprocess(q, {"R": {}, "S": {}}, 0.5, mode="dynamic")
    assert (st.M, st.N) == (1, 0)
    st.on_update("R", (1, 2), 1)
    assert (st.M, st.N) == (2, 1)
    assert st.counters.major_rebalances == 1


def test_majors_fire_only_when_n_reaches_m():
    q = parse("chain2")
    st = preprocess(q, {"R": {}, "S": {}}, 0.5, mode="dynamic")
    majors = []
    for i in range(40):
        before = st.counters.major_rebalances
        st.on_update("R", (i, i), 1)
        if st.counters.major_rebalances > before:
            majors.append((i + 1, st.M))
        assert st.M // 4 <= st.N < st.M
    assert majors == [(1, 2), (2, 4), (4, 8), (8, 16), (16, 32), (32, 64)]


def test_deletes_below_quarter_halve_m():
    q = parse("chain2")
    db = {"R": {(i, i): 1 for i in range(16)}, "S": {}}
    st = preprocess(q, db, 0.5, mode="dynamic")
    assert st.M == 33
    majors = 0
    for i in range(16):
        before = st.counters.major_rebalances
        st.on_update("R", (i, i), -1)
        majors += st.counters.major_rebalances - before
        assert st.M // 4 <= st.N < st.M
    assert majors >= 2
    assert st.N == 0


def test_rejected_delete_leaves_state_untouched():
    q = parse("chain2")
    db = {"R": {(1, 2): 1}, "S": {(2, 3): 1}}
    st = preprocess(q, db, 0.5, mode="dynamic")
    fp = st.fingerprint()
    gen = st.generation
    with pytest.raises(RejectedDeleteError):
        st.on_update("R", (1, 2), -2)
    assert st.fingerprint() == fp
    assert st.generation == gen


def test_static_mode_rejects_updates():
    q = parse("chain2")
    st = preprocess(q, {"R": {}, "S": {}}, 0.5, mode="static")
    with pytest.raises(EngineError):
        st.on_update("R", (1, 2), 1)


def test_minor_rebalancing_light_to_heavy_and_back():
    q = parse("chain2")
    st = preprocess(q, {"R": {}, "S": {}}, 0.5, mode="dynamic")
    # grow the database so M (and theta) are meaningful
    for i in range(60):
        st.on_update("R", (1000 + i, 1000 + i), 1)
        st.on_update("S", (2000 + i, 2000 + i), 1)
    (triple,) = st.triples
    lp_r = next(lp for lp in triple.light_parts if lp.atom.symbol == "R")
    # drive one key far past any relaxed light bound reachable here
    for i in range(100):
        st.on_update("R", (i, 7), 1)
        st.check_invariants()
    assert st.base["R"].count(lp_r.key_positions, (7,)) == 100
    assert 100 >= iceil(1.5 * st.M ** st.epsilon)
    assert lp_r.content.count(lp_r.key_positions, (7,)) == 0  # evicted
    assert (7,) not in triple.light_root.content.entries
    assert st.counters.minor_rebalances >= 1
    # delete back down: the key must re-enter the light part once its base
    # degree falls below half theta
    for i in range(99):
        st.on_update("R", (i, 7), -1)
        st.check_invariants()
    assert st.base["R"].count(lp_r.key_positions, (7,)) == 1
    assert lp_r.content.count(lp_r.key_positions, (7,)) == 1


# ---------------------------------------------------------------------------
# major rebalancing: move the keys that change side, rebuild above the bound
# ---------------------------------------------------------------------------


def _spy(monkeypatch, name, state):
    """Record the arguments of every call of an ``EngineState`` method on
    ``state``."""
    calls = []
    original = getattr(EngineState, name)

    def spy(self, *args):
        if self is state:
            calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(EngineState, name, spy)
    return calls


def _light_part(st, symbol):
    (triple,) = st.triples
    return next(lp for lp in triple.light_parts if lp.atom.symbol == symbol)


def _assert_fresh(st, q, eps):
    fresh = preprocess(q, st.db_snapshot(), eps, mode="dynamic", m_override=st.M)
    assert st.fingerprint() == fresh.fingerprint()


def test_major_at_eps_one_moves_nothing_and_costs_linear_ops(monkeypatch):
    # at eps=1 every degree is at most N < M, the threshold, so no key can
    # change side: every light part already holds all of a base relation
    # below the threshold and is skipped, so the major itself costs no ops
    # (the update's ops are its propagation), not a rebuild of the light
    # join's 2 * 100 * 100 rows; the bound is kept from when the major
    # still ran the two strict-partition passes
    q = parse("chain2")
    db = {"R": {(i, i % 2): 1 for i in range(200)},
          "S": {(i % 2, i): 1 for i in range(200)}}
    st = preprocess(q, db, 1.0, mode="dynamic")
    moved = _spy(monkeypatch, "_move_key", st)
    rebuilt = _spy(monkeypatch, "_repartition", st)
    i = 0
    while st.counters.major_rebalances == 0:
        before = st.counters.storage_ops
        st.on_update("R", (1000 + i, 1000 + i), 1)
        i += 1
    ops = st.counters.storage_ops - before
    assert (st.N, st.M) == (801, 1602)
    assert moved == [] and rebuilt == []
    assert ops <= 3 * st.N, ops
    _assert_fresh(st, q, 1.0)


def test_major_evicts_on_doubling_and_readmits_on_halving(monkeypatch):
    # a key left light in the relaxed band is evicted by a doubling, and a
    # heavy key below the halved threshold is re-admitted; both move as
    # per-tuple deltas, with no rebuild and no minor rebalancing
    q = parse("chain2")
    fillers = [(100 + i, 200 + i) for i in range(84)]
    db = {"R": {**{(i, 7): 1 for i in range(9)}, **{row: 1 for row in fillers[:39]}},
          "S": {(7, 0): 1, (7, 1): 1}}
    st = preprocess(q, db, 0.5, mode="dynamic")
    assert (st.N, st.M) == (50, 101)  # threshold 10.05, evict at 16
    lp_r = _light_part(st, "R")
    rebuilt = _spy(monkeypatch, "_repartition", st)
    for i in range(9, 15):
        st.on_update("R", (i, 7), 1)
    assert lp_r.content.count(lp_r.key_positions, (7,)) == 15  # in the band

    minors = st.counters.minor_rebalances
    for row in fillers[39:]:
        st.on_update("R", row, 1)
    assert (st.N, st.M, st.counters.major_rebalances) == (101, 202, 1)  # threshold 14.2
    assert lp_r.content.count(lp_r.key_positions, (7,)) == 0  # evicted
    assert st.counters.minor_rebalances == minors
    _assert_fresh(st, q, 0.5)

    for i in range(6):  # degree 9 stays above the reinsert bound 8
        st.on_update("R", (i, 7), -1)
    for row in fillers[:46]:
        st.on_update("R", row, -1)
    assert (st.N, st.M, st.counters.major_rebalances) == (49, 100, 2)  # threshold 10
    assert lp_r.content.count(lp_r.key_positions, (7,)) == 9  # re-admitted
    assert st.counters.minor_rebalances == minors
    assert rebuilt == []
    _assert_fresh(st, q, 0.5)
    st.check_invariants(deep=True)


def _major_ops(monkeypatch, state) -> list[int]:
    """Storage ops of each major rebalancing of ``state`` from now on."""
    ops = []
    original = EngineState._major_rebalancing

    def spy(self):
        before = self.counters.storage_ops
        original(self)
        if self is state:
            ops.append(self.counters.storage_ops - before)

    monkeypatch.setattr(EngineState, "_major_rebalancing", spy)
    return ops


def test_major_at_eps_one_costs_no_ops_at_any_size(monkeypatch):
    # at eps=1 every base relation is smaller than the threshold M and every
    # light part holds all of it, so a major skips each part without a
    # partition pass, whatever N is
    q = parse("chain2")
    for n in (100, 400):
        db = {"R": {(i, i % 2): 1 for i in range(n)},
              "S": {(i % 2, i): 1 for i in range(n)}}
        st = preprocess(q, db, 1.0, mode="dynamic")
        ops = _major_ops(monkeypatch, st)
        i = 0
        while not ops:
            st.on_update("R", (1000 + i, 1000 + i), 1)
            i += 1
        assert (st.N, st.M) == (4 * n + 1, 8 * n + 2)
        assert ops == [0], (n, ops)
        _assert_fresh(st, q, 1.0)


def test_major_that_moves_nothing_costs_one_pass_per_unsettled_part(monkeypatch):
    # at eps=0.5 R keeps its heavy key 7 (degree 20 against thresholds 10.05
    # and 14.2) and every other key stays light, so the major moves nothing;
    # it reads R and R's light part once each, and S's part, which holds all
    # of an S smaller than the threshold, not at all
    q = parse("chain2")
    fillers = [(100 + i, 200 + i) for i in range(78)]
    db = {"R": {**{(i, 7): 1 for i in range(20)}, **{row: 1 for row in fillers[:27]}},
          "S": {(7, j): 1 for j in range(3)}}
    st = preprocess(q, db, 0.5, mode="dynamic")
    assert (st.N, st.M) == (50, 101)
    lp_r, lp_s = _light_part(st, "R"), _light_part(st, "S")
    ops = _major_ops(monkeypatch, st)
    moved = _spy(monkeypatch, "_move_key", st)
    rebuilt = _spy(monkeypatch, "_repartition", st)
    for row in fillers[27:]:
        st.on_update("R", row, 1)
    assert (st.N, st.M, st.counters.major_rebalances) == (101, 202, 1)
    assert moved == [] and rebuilt == []
    assert (st.base["R"].size, lp_r.content.size) == (98, 78)
    assert lp_s.content.size == st.base["S"].size == 3
    assert ops == [98 + 78]
    _assert_fresh(st, q, 0.5)


def test_major_readmits_a_heavy_key_of_a_relation_below_the_threshold(monkeypatch):
    # S is smaller than the new threshold, but its light part lacks the
    # heavy key 7: the part is not skipped, and the doubling re-admits 7
    q = parse("chain2")
    fillers = [(100 + i, 200 + i) for i in range(80)]
    db = {"R": {**{(i, 7): 1 for i in range(9)}, **{row: 1 for row in fillers[:29]}},
          "S": {(7, j): 1 for j in range(12)}}
    st = preprocess(q, db, 0.5, mode="dynamic")
    assert (st.N, st.M) == (50, 101)  # threshold 10.05: 7 is heavy in S
    lp_s = _light_part(st, "S")
    assert lp_s.content.size == 0
    rebuilt = _spy(monkeypatch, "_repartition", st)
    for row in fillers[29:]:
        st.on_update("R", row, 1)
        if st.counters.major_rebalances:
            break
    assert (st.N, st.M, st.counters.major_rebalances) == (101, 202, 1)  # threshold 14.2
    assert lp_s.content.count(lp_s.key_positions, (7,)) == 12  # re-admitted
    assert rebuilt == []
    _assert_fresh(st, q, 0.5)
    st.check_invariants(deep=True)


def test_major_rebuilds_when_moving_costs_more(monkeypatch):
    # semi has w = delta = 1, so at eps=0.5 a major rebuilds once more than
    # M^0.5 tuples would move: here 8 heavy keys of degree 24 turn light
    # when the threshold grows from 20 to 28.3
    q = parse("semi")
    db = {"R": {(a, b): 1 for b in range(8) for a in range(24)},
          "S": {(b,): 1 for b in range(8)}}
    st = preprocess(q, db, 0.5, mode="dynamic", m_override=400)
    lp_r = _light_part(st, "R")
    assert lp_r.content.size == 0
    ops = _major_ops(monkeypatch, st)
    moved = _spy(monkeypatch, "_move_key", st)
    rebuilt = _spy(monkeypatch, "_repartition", st)
    i = 0
    while st.counters.major_rebalances == 0:
        st.on_update("S", (100 + i,), 1)
        i += 1
    assert (st.N, st.M) == (400, 800)
    assert len(rebuilt) == 1 and moved == []
    assert lp_r.content.size == 192
    # the rebuild filters R (192) and S (208) by the degrees of the major's
    # own pass; computing them again cost |R| + |S| more, 2648 ops
    assert ops == [2248]
    _assert_fresh(st, q, 0.5)
    st.check_invariants(deep=True)


def test_major_after_deletes_moves_keys_in_index_key_order(monkeypatch):
    # a major reads key degrees from the key index, which keeps a key where
    # its first row came in: S's light part holds keys 1, 2 in that order,
    # though its entries start with (2, 20) since (1, 10) was deleted.  The
    # halving major evicts both (degree 9 >= threshold 7) in index order
    q = parse("chain2")
    fillers = [(100 + i, 200 + i) for i in range(48)]
    db = {"R": {(5, 1): 1, (6, 2): 1, **{row: 1 for row in fillers}}, "S": {}}
    st = preprocess(q, db, 0.5, mode="dynamic")
    assert (st.N, st.M) == (50, 101)  # threshold 10.05, evict at 16
    for row, m in (((1, 10), 1), ((2, 20), 1), ((1, 11), 1), ((1, 10), -1)):
        st.on_update("S", row, m)
    for j in range(8):
        st.on_update("S", (1, 12 + j), 1)
    for j in range(8):
        st.on_update("S", (2, 21 + j), 1)
    lp_s = _light_part(st, "S")
    assert list(lp_s.content.indexes[lp_s.key_positions]) == [(1,), (2,)]
    assert list(key_degrees(lp_s.content.entries, lp_s.key_positions)) == [(2,), (1,)]
    moved = _spy(monkeypatch, "_move_key", st)
    rebuilt = _spy(monkeypatch, "_repartition", st)
    for row in fillers:
        st.on_update("R", row, -1)
        if st.counters.major_rebalances:
            break
    assert (st.N, st.M, st.counters.major_rebalances) == (24, 49, 1)  # threshold 7
    assert [(key, insert) for _, _, key, insert in moved] == [((1,), False), ((2,), False)]
    assert rebuilt == [] and lp_s.content.size == 0
    _assert_fresh(st, q, 0.5)
    st.check_invariants(deep=True)
    assert st.result_multiset() == brute_force_eval(q, st.db_snapshot())


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("name", sorted(SUITE))
def test_no_update_writes_h_deltas_that_cancel(name, eps):
    # a key that enters (or leaves) All and L in one update never touches H:
    # each triple's H is settled once per pass, after the All and light
    # passes.  Skewed inserts from the empty database, then deletes of half
    # of the tuples, so keys enter and leave both ways and majors and
    # minors run in between
    q = parse(name)
    st = preprocess(q, {s: {} for s in q.symbols()}, eps, mode="dynamic")
    support = {t.support_name for t in st.triples}
    for triple in st.triples:  # what lets the light pass run before H's
        above_h = {id(n) for n, _, _ in st.dag.leaf_paths[triple.support_name]}
        for lp in triple.light_parts:
            assert not above_h & {id(n) for n, _, _ in st.dag.leaf_paths[lp.name]}
    writes: list[tuple[str, dict]] = []
    apply = st._apply

    def spy(dag, leaf_name, delta):
        if leaf_name in support:
            writes.append((leaf_name, delta))
        return apply(dag, leaf_name, delta)

    st._apply = spy
    trace = skewed_trace(q, 400, seed=zlib.crc32(name.encode()))
    rng = random.Random(zlib.crc32(f"{name}:{eps}".encode()))
    deletes = [(sym, row, -1) for sym, row, _ in rng.sample(trace, len(trace) // 2)]
    cancelled = 0
    for sym, row, mult in trace + deletes:
        writes.clear()
        st.on_update(sym, row, mult)
        net: dict[tuple, list[int]] = {}
        for leaf_name, delta in writes:
            for key, m in delta.items():
                net.setdefault((leaf_name, key), []).append(m)
        cancelled += sum(1 for ms in net.values() if len(ms) > 1 and sum(ms) == 0)
    assert cancelled == 0
    assert st.counters.major_rebalances > 0
    st.check_invariants(deep=True)
    assert st.result_multiset() == brute_force_eval(q, st.db_snapshot())


# share of a random trace's inserts on its hot key (see ``run_trace``): with
# these seeds every trace at eps=0.5 then starts a minor rebalancing; a key
# whose degree grows more slowly is made heavy by a major instead
HOT = 0.9


@pytest.mark.parametrize("eps", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("text", (
    "Q(A) = R(A,B), R(B,C).",
    "Q(A) = R(A), R(A).",
    "Q(A,B) = R(A,B), R(A,B), R(A,B).",
), ids=("RAB-RBC", "RA-RA", "RAB-RAB-RAB"))
def test_repeated_symbol_fan_out(text, eps):
    # each pass of a self-join update must see the occurrences before it
    # new and those after it old
    q = parse_query(text)
    rng = random.Random(97)
    st = preprocess(q, {"R": {}}, eps, mode="dynamic")
    run_trace(st, q, rng, steps=120, dom=5)
    st.check_invariants(deep=True)
    assert st.result_multiset() == brute_force_eval(q, st.db_snapshot())


def test_post_state_equals_rematerialization_after_traces():
    rng = random.Random(101)
    for name in ("chain2", "semi", "fc3"):
        q = parse(name)
        for eps in (0.0, 0.5, 1.0):
            st = preprocess(q, {s: {} for s in q.symbols()}, eps, mode="dynamic")
            run_trace(st, q, rng, steps=80, dom=5, hot=HOT)
            st.check_invariants(deep=True)
            if eps == 0.5:
                assert st.counters.minor_rebalances > 0, name


@pytest.mark.parametrize("name,eps", [(n, e) for n in ("fc4", "deep4") for e in (0.25, 0.5)])
def test_shared_views_track_oracle_and_fresh_state(name, eps):
    # fc4 and deep4 share the most views between their trees (fc4: 44
    # positions, 24 distinct views).  A skewed trace grows the database, a
    # burst of 30 tuples of one relation on a new key -2 crosses the light
    # bound before the next major, then everything is deleted in a shuffled
    # order, the tuples of keys -1 and -2 last.  Every few steps the views
    # match their recomputation and the result the oracle; after each major
    # the partition is strict, and the whole state equals a fresh one
    q = parse(name)
    seed = zlib.crc32(f"dag:{name}:{eps}".encode())
    inserts = skewed_trace(q, 160, seed)
    sym, row, _ = next(u for u in inserts if -1 in u[1])
    inserts += [(sym, tuple(-2 if v == -1 else v + 1000 * k for v in row), 1)
                for k in range(1, 31)]
    deletes = [(sym, row, -1) for sym, row, _ in inserts]
    random.Random(seed).shuffle(deletes)
    deletes.sort(key=lambda update: min(update[1]) < 0)
    st = preprocess(q, {s: {} for s in q.symbols()}, eps, mode="dynamic")
    majors = 0
    for step, update in enumerate(inserts + deletes):
        st.on_update(*update)
        if step % 20 == 19:
            st.check_invariants(deep=True)
            assert st.result_multiset() == brute_force_eval(q, st.db_snapshot())
        if st.counters.major_rebalances > majors:
            majors = st.counters.major_rebalances
            _assert_fresh(st, q, eps)
    assert st.N == 0 and majors > 10 and st.counters.minor_rebalances > 0


def test_update_trace_tracks_oracle():
    rng = random.Random(103)
    q = parse("deep4")
    st = preprocess(q, {s: {} for s in q.symbols()}, 0.5, mode="dynamic")

    def check(step):
        st.check_invariants()
        if step % 20 == 19:
            assert st.result_multiset() == brute_force_eval(q, st.db_snapshot())

    run_trace(st, q, rng, steps=120, dom=5, on_step=check, hot=HOT)
    assert st.counters.minor_rebalances > 0


def _reference_apply(self, dag, leaf_name, delta):
    """``EngineState._apply`` over the reference fold, writing each view
    delta row by row with ``Relation.delta``."""
    out = []
    if not delta:
        return out
    for node, plan, src in dag.leaf_paths.get(leaf_name, ()):
        current = delta if src < 0 else out[src]
        if current:
            current = reference_run_join(plan, node.children, current.items())
            for row, m in current.items():
                node.content.add({row: m})
        out.append(current)
    return out


def _relations(st):
    rels = list(st.base.values()) + list(st.atom_rels.values())
    for triple in st.triples:
        rels.append(triple.h_content)
        rels.extend(lp.content for lp in triple.light_parts)
    rels.extend(node.content for node in st.dag.nodes)
    return rels


def _dict_ids(st):
    """Identity of every relation's entries and index dicts: the bound
    plans read them, so no load, clear or rebuild may replace one."""
    return {id(rel): (id(rel.entries), {p: id(ix) for p, ix in rel.indexes.items()})
            for rel in _relations(st)}


def _pinned_replay(q, eps, db, replay, reference, m_override=None):
    """Per-update ops, final fingerprint, minor rebalances and keys moved
    by majors of ``replay(state, on_step)`` over a fresh state, which
    propagates through ``_reference_apply`` if ``reference``; the state's
    dicts keep their identity throughout."""
    st = preprocess(q, db, eps, mode="dynamic", m_override=m_override)
    if reference:
        st._apply = MethodType(_reference_apply, st)
    moved = [0]
    move_key = st._move_key

    def counted_move(*args):
        moved[0] += 1
        move_key(*args)

    st._move_key = counted_move
    ids = _dict_ids(st)
    ops = []
    replay(st, lambda _: ops.append(st.counters.last_update_ops))
    assert _dict_ids(st) == ids
    minors = st.counters.minor_rebalances
    return ops, st.fingerprint(), minors, moved[0] - minors


def test_compiled_propagation_matches_the_unbound_path():
    # bound plans, the one-row fold and one write per view delta change no
    # count and no content: every update of a skewed trace costs what it
    # does over the reference fold with per-row writes, on every query and eps
    minors = major_moves = 0
    for name in SUITE:
        q = parse(name)
        for eps in EPS_GRID:
            def replay(st, on_step):
                run_trace(st, q, random.Random(f"pin/{name}/{eps}"), steps=80, dom=5,
                          on_step=on_step, hot=HOT)

            empty = {s: {} for s in q.symbols()}
            compiled = _pinned_replay(q, eps, empty, replay, reference=False)
            assert compiled == _pinned_replay(q, eps, empty, replay, reference=True), (name, eps)
            minors += compiled[2]
            major_moves += compiled[3]
    assert minors > 0 and major_moves > 0


def test_compiled_propagation_matches_the_unbound_path_across_a_rebuild():
    # the rebuild fallback of test_major_rebuilds_when_moving_costs_more
    # reloads light parts, H and views in place, under the bound plans
    q = parse("semi")
    db = {"R": {(a, b): 1 for b in range(8) for a in range(24)},
          "S": {(b,): 1 for b in range(8)}}

    def replay(st, on_step):
        assert _light_part(st, "R").content.size == 0
        for i in range(200):
            st.on_update("S", (100 + i,), 1)
            on_step(i)
        st.on_update("R", (0, 0), -1)
        on_step(-1)
        assert st.counters.major_rebalances == 1
        assert _light_part(st, "R").content.size == 191

    compiled = _pinned_replay(q, 0.5, db, replay, reference=False, m_override=400)
    assert compiled[3] == 0  # the major moved no key: it rebuilt
    assert compiled == _pinned_replay(q, 0.5, db, replay, reference=True, m_override=400)


def test_views_end_nonnegative_after_full_updates():
    rng = random.Random(107)
    q = parse("chain2")
    st = preprocess(q, {"R": {}, "S": {}}, 0.25, mode="dynamic")
    run_trace(st, q, rng, steps=100, dom=4)
    for tree in st.trees:
        for node in tree.nodes:
            assert all(m > 0 for m in node.content.entries.values()), node.name


def test_delta0_update_ops_bounded_by_frozen_constant():
    # per-update primitive ops for a delta0 query stay under a fixed bound
    # regardless of database size
    q = parse_query("Q(A,E) = R(A,B), S(A,E).")
    for n in (10**2, 10**3, 10**4):
        rng = random.Random(n)
        db = {"R": {(rng.randrange(n), rng.randrange(n)): 1 for _ in range(n // 2)},
              "S": {(rng.randrange(n), rng.randrange(n)): 1 for _ in range(n // 2)}}
        st = preprocess(q, db, 0.5, mode="dynamic")
        st.counters.reset()
        for i in range(50):
            st.on_update("R", (n + i, n + i), 1)
            st.on_update("R", (n + i, n + i), -1)
        assert st.counters.max_update_ops <= 8


def test_preprocess_validations():
    q = parse("chain2")
    with pytest.raises(EngineError):
        preprocess(q, {"R": {}, "S": {}}, 1.5)
    with pytest.raises(EngineError):
        preprocess(q, {"R": {}}, 0.5)  # missing relation S
    for epsilon in ("0.5", None, True):
        with pytest.raises(EngineError, match="epsilon"):
            preprocess(q, {"R": {}, "S": {}}, epsilon)
    for m_override in ("7", True, 7.0):
        with pytest.raises(EngineError, match="threshold base"):
            preprocess(q, {"R": {(1, 2): 1}, "S": {}}, 0.5, m_override=m_override)
    for m_override in (1, 8):  # N = 1 needs M/4 <= N < M
        with pytest.raises(EngineError, match=f"threshold base {m_override} violates"):
            preprocess(q, {"R": {(1, 2): 1}, "S": {}}, 0.5, m_override=m_override)
    with pytest.raises(EngineError, match="unknown mode 'bogus'"):
        preprocess(q, {"R": {}, "S": {}}, 0.5, mode="bogus")
    with pytest.raises(NotHierarchicalError) as caught:
        preprocess("Q(A) = R(A,B), S(B,C), T(C).", {"R": {}, "S": {}, "T": {}}, 0.5)
    assert caught.value.pair == ("B", "C")
    for rows in ([(1, 2)], {(1, 2)}, None):
        with pytest.raises(EngineError, match="R: .* is not a mapping"):
            preprocess(q, {"R": rows, "S": {}}, 0.5)
    with pytest.raises(EngineError, match="not a mapping"):
        preprocess(q, [("R", {}), ("S", {})], 0.5)
    st = preprocess(q, {"R": {}, "S": {}}, 0.5, mode="dynamic")
    with pytest.raises(EngineError):
        st.on_update("Zebra", (1,), 1)


# ---------------------------------------------------------------------------
# input validation at the API boundary
# ---------------------------------------------------------------------------


def _chain2_state():
    db = {"R": {(1, 7): 1, (2, 7): 2, (3, 4): 1}, "S": {(7, 5): 1, (4, 4): 3}}
    return preprocess(parse("chain2"), db, 0.5, mode="dynamic")


def _observable(st):
    return st.N, st.db_snapshot(), st.generation, st.fingerprint()


@pytest.mark.parametrize("symbol,row,mult,error", [
    ("R", (1,), 1, ArityMismatchError),
    ("R", (1,), 0, ArityMismatchError),
    ("R", (1, 7, 9), -1, ArityMismatchError),
    ("R", [1, 7], 1, ArityMismatchError),
    ("R", (1, 7), 1.5, InvalidMultiplicityError),
    ("R", (1, 7), True, InvalidMultiplicityError),
    ("R", (1, 7), "1", InvalidMultiplicityError),
    ("Zebra", (1, 7), 1, MissingRelationError),
    ("R", (1, 7), -2, RejectedDeleteError),
    ("R", ([1], 7), 1, UnhashableValueError),
])
def test_rejected_update_changes_nothing(symbol, row, mult, error):
    st = _chain2_state()
    before = _observable(st)
    with pytest.raises(error):
        st.on_update(symbol, row, mult)
    assert _observable(st) == before
    st.check_invariants(deep=True)


def test_zero_multiplicity_update_changes_nothing():
    st = _chain2_state()
    it = st.enumerate_result()  # still valid after the no-op updates
    before, ops = _observable(st), st.counters.storage_ops
    for row in ((1, 7), (9, 9)):
        st.on_update("R", row, 0)
    assert _observable(st) == before and st.counters.storage_ops == ops
    assert dict(it) == brute_force_eval(st.query, st.db_snapshot()) != {}


@pytest.mark.parametrize("mult", (1.5, True, None))
def test_preprocess_rejects_non_int_multiplicities(mult):
    with pytest.raises(InvalidMultiplicityError):
        preprocess(parse("chain2"), {"R": {(1, 2): mult}, "S": {}}, 0.5)


@pytest.mark.parametrize("row", ("ab", 5, (1,), (1, 2, 3)), ids=repr)
def test_preprocess_rejects_rows_that_are_not_tuples_of_the_arity(row):
    # a string of the right length and a bare value included, as on_update
    # rejects them
    with pytest.raises(ArityMismatchError, match="R: .* is not a tuple of arity 2"):
        preprocess(parse("chain2"), {"R": {(1, 2): 1, row: 1}, "S": {}}, 0.5)


def test_deleting_a_light_keys_last_tuple_starts_no_minor_rebalance():
    db = {"R": {**{(i, 7): 1 for i in range(12)}, (1, 1): 1, (2, 3): 1},
          "S": {(7, 1): 1, (1, 1): 1, (3, 5): 1, (3, 6): 1}}
    st = preprocess(parse("chain2"), db, 0.5, mode="dynamic")
    (triple,) = st.triples
    lp_r = next(lp for lp in triple.light_parts if lp.atom.symbol == "R")
    assert lp_r.content.count(lp_r.key_positions, (1,)) == 1  # key 1 is light
    minors, majors = st.counters.minor_rebalances, st.counters.major_rebalances
    st.on_update("R", (1, 1), -1)
    assert st.counters.major_rebalances == majors
    assert st.counters.minor_rebalances == minors
    st.check_invariants(deep=True)


# ---------------------------------------------------------------------------
# invariant checks raise a typed error, also under python -O
# ---------------------------------------------------------------------------


def test_corrupted_view_raises_invariant_violation():
    st = _chain2_state()
    node = next(n for t in st.trees for n in t.nodes if not n.is_leaf)
    node.content.entries[(99,) * len(node.schema)] = 1
    st.check_invariants()  # the shallow check reads no tree view
    with pytest.raises(InvariantViolationError, match=re.escape(node.name)):
        st.check_invariants(deep=True)


def test_corrupted_h_support_raises_invariant_violation():
    st = _chain2_state()
    (triple,) = st.triples
    triple.h_content.entries[(99,)] = 1
    with pytest.raises(InvariantViolationError, match=re.escape(triple.h_name)):
        st.check_invariants()


def test_h_entry_other_than_one_raises_invariant_violation():
    # the join folds multiply by H's entries, so each must be 1; B=7 is heavy
    db = {"R": {(a, 7): 1 for a in range(4)}, "S": {(7, 5): 1}}
    st = preprocess(parse("chain2"), db, 0.5, mode="dynamic")
    (triple,) = st.triples
    assert triple.h_content.entries == {(7,): 1}
    st.check_invariants(deep=True)
    triple.h_content.entries[(7,)] = 2
    with pytest.raises(InvariantViolationError, match="H_B"):
        st.check_invariants()


def _light_part(st, symbol):
    return next(lp for lp in st.triples[0].light_parts if lp.atom.symbol == symbol)


def _overfull_light_key(st):
    # M = 11: a light key holds at most iceil(1.5 * 11^0.5) - 1 = 4 tuples;
    # key B=7 holds 2
    for a in range(10, 13):
        _light_part(st, "R").content.entries[(a, 7)] = 1
    return "R#0^B: light key (7,) has degree 5 >= 5"


def _light_key_not_in_base(st):
    _light_part(st, "R").content.entries[(9, 9)] = 1
    return "R#0^B: light key (9,) not in base"


def _underfull_heavy_key(st):
    # key B=4 has one base tuple, below 0.5 * 11^0.5, so it must be light
    del _light_part(st, "S").content.entries[(4, 4)]
    return "S#0^B: heavy key (4,) has base degree 1 < "


def _broken_size_invariant(st):
    st.M = 4 * st.N + 4
    return "size invariant broken: M=24 N=5"


@pytest.mark.parametrize("corrupt", (_overfull_light_key, _light_key_not_in_base,
                                     _underfull_heavy_key, _broken_size_invariant),
                         ids=lambda f: f.__name__.lstrip("_"))
def test_broken_partition_raises_invariant_violation(corrupt):
    st = _chain2_state()
    st.check_invariants(deep=True)
    message = corrupt(st)
    with pytest.raises(InvariantViolationError, match=re.escape(message)):
        st.check_invariants()


def test_diverged_occurrence_relation_raises_invariant_violation():
    q = parse_query("Q(A) = R(A,B), R(B,C).")
    st = preprocess(q, {"R": {(1, 2): 1, (2, 3): 1}}, 0.5, mode="dynamic")
    st.check_invariants(deep=True)
    st.atom_rels["R#1"].entries[(9, 9)] = 1
    with pytest.raises(InvariantViolationError, match="R#1"):
        st.check_invariants(deep=True)


def _root_with_duplicate_leaf() -> ViewNode:
    leaves = [ViewNode(f"R{i}", ("A",), ATOM, leaf_name="R#0") for i in range(2)]
    return ViewNode("V", ("A",), JOIN, leaves)


def test_duplicate_leaf_name_raises_invariant_violation():
    with pytest.raises(InvariantViolationError, match="duplicate leaf R#0"):
        ViewTree(_root_with_duplicate_leaf(), "t0")


def test_union_of_exhausted_member_raises_invariant_violation():
    class Member:
        def __init__(self, rows, held):
            self.rows, self.held = list(rows), held
            self.node = SimpleNamespace(enum=SimpleNamespace(out_schema=("A",)))

        def next(self):
            return self.rows.pop(0) if self.rows else None

        def lookup(self, t):
            return self.held.get(t[0], 0)

    # member 1 claims to hold (1,) but its cursor has nothing left
    with pytest.raises(InvariantViolationError):
        union_next([Member([((1,), 1)], {1: 1}), Member([], {1: 1})])


def test_invariant_checks_survive_python_O():
    script = (
        "from skewivm.engine import preprocess\n"
        "from skewivm.errors import InvariantViolationError\n"
        "from skewivm.query import parse_query\n"
        "st = preprocess(parse_query('Q(A,C) = R(A,B), S(B,C).'),\n"
        "                {'R': {(1, 7): 1}, 'S': {(7, 5): 1}}, 0.5)\n"
        "st.check_invariants(deep=True)\n"
        "st.trees[0].root.content.entries[(9, 9)] = 1\n"
        "try:\n"
        "    st.check_invariants(deep=True)\n"
        "except InvariantViolationError:\n"
        "    print('caught')\n"
        "from skewivm.engine import ViewTree\n"
        "from skewivm.viewtree import ATOM, JOIN, ViewNode\n"
        "leaves = [ViewNode(f'R{i}', ('A',), ATOM, leaf_name='R#0') for i in range(2)]\n"
        "try:\n"
        "    ViewTree(ViewNode('V', ('A',), JOIN, leaves), 't0')\n"
        "except InvariantViolationError:\n"
        "    print('caught')\n"
        "st = preprocess(parse_query('Q(A,C) = R(A,B), S(B,C).'),\n"
        "                {'R': {(a, 7): 1 for a in range(4)}, 'S': {(7, 5): 1}}, 0.5)\n"
        "st.triples[0].h_content.entries[(7,)] = 2\n"
        "try:\n"
        "    st.check_invariants()\n"
        "except InvariantViolationError as e:\n"
        "    print('caught', 'H_B' in str(e))\n"
        "st.triples[0].h_content.entries[(7,)] = 1\n"
        "lp = st.triples[0].light_parts[0]\n"
        "lp.content.entries[(9, 9)] = 1\n"
        "try:\n"
        "    st.check_invariants()\n"
        "except InvariantViolationError as e:\n"
        "    print('caught', 'not in base' in str(e))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["caught", "caught", "caught", "True", "caught", "True"]
