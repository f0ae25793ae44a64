"""Acceptance criteria: one test per criterion, exact tolerances pinned.

Asymptotic claims are checked as counter-based scaling ratios, never as
wall-clock times; everything else is exact oracle equivalence.
"""

from __future__ import annotations

import random
import zlib

from skewivm.bench import run_point
from skewivm.engine import preprocess
from skewivm.oracle import brute_force_eval, brute_force_widths
from skewivm.query import (
    connected_components,
    delta_index,
    is_free_connex,
    is_q_hierarchical,
    parse_query,
)
from skewivm.vorder import dynamic_width, static_width

from conftest import SUITE, fingerprint, leaf_rows, parse, random_hierarchical_query

EPS_GRID = (0.0, 0.25, 0.5, 1.0)


def _random_db(q, rng, total_cap=300, dom=25):
    """Random database: mostly small, tail up to the N <= 300 cap."""
    total = rng.randint(20, total_cap)
    per = max(3, total // len(q.symbols()))
    db = {}
    for sym in q.symbols():
        arity = len(q.occurrences(sym)[0].schema)
        rel = {}
        for _ in range(per):
            rel[tuple(rng.randrange(dom) for _ in range(arity))] = rng.randint(1, 3)
        db[sym] = rel
    return db


def test_ac1_static_oracle_equivalence():
    """Full enumeration after preprocessing equals the brute-force result,
    exactly, over the suite x epsilon grid x 50 random databases."""
    rng = random.Random(20260810)
    checked = 0
    for name in SUITE:
        q = parse(name)
        for _ in range(50):
            db = _random_db(q, rng)
            want = brute_force_eval(q, db)
            for eps in EPS_GRID:
                st = preprocess(q, db, eps, mode="static")
                assert st.result_multiset() == want, (name, eps)
                checked += 1
    assert checked == len(SUITE) * 50 * len(EPS_GRID)
    print(f"\n[AC1] PASS static oracle equivalence ({checked} runs)")


def test_ac2_dynamic_oracle_equivalence():
    """500-step random traces from the empty database; exact oracle match at
    every 25-step checkpoint; partition and size invariants after every
    step."""
    for name in SUITE:
        q = parse(name)
        for eps in EPS_GRID:
            rng = random.Random(zlib.crc32(f"{name}:{eps}".encode()))
            st = preprocess(q, {s: {} for s in q.symbols()}, eps, mode="dynamic")
            live = {s: [] for s in q.symbols()}
            for step in range(500):
                sym = rng.choice(q.symbols())
                arity = len(q.occurrences(sym)[0].schema)
                if rng.random() < 0.7 or not live[sym]:
                    row = tuple(rng.randrange(25) for _ in range(arity))
                    st.on_update(sym, row, rng.randint(1, 3))
                    if row not in live[sym]:
                        live[sym].append(row)
                else:
                    row = rng.choice(live[sym])
                    cur = st.base[sym].entries.get(row, 0)
                    st.on_update(sym, row, -1)
                    if cur == 1:
                        live[sym].remove(row)
                st.check_invariants()
                if step % 25 == 24:
                    got = st.result_multiset()
                    want = brute_force_eval(q, st.db_snapshot())
                    assert got == want, (name, eps, step)
    print("\n[AC2] PASS dynamic oracle equivalence "
          f"({len(SUITE) * len(EPS_GRID)} traces x 500 steps)")


def test_ac3_width_classification_table():
    """(w, delta, delta-index, free-connex, q-hierarchical) per suite query
    equals the exhaustive width oracle, with the paper-pinned cells checked
    verbatim."""
    golden = {}
    for name in SUITE:
        q = parse(name)
        w_oracle, d_oracle = brute_force_widths(q)
        golden[name] = (w_oracle, d_oracle, delta_index(q),
                        is_free_connex(q), is_q_hierarchical(q))
        assert static_width(q) == w_oracle, name
        assert dynamic_width(q) == d_oracle, name
    # frozen golden values (derived from the width oracle)
    assert golden == {
        "chain2": (2, 1, 1, False, False),
        "semi": (1, 1, 1, True, False),
        "fc3": (1, 1, 1, True, False),
        "fc4": (1, 1, 1, True, False),
        "deep4": (3, 3, 3, False, False),
        "star3": (3, 2, 2, False, False),
    }
    for name, (w, d, didx, fc, qh) in golden.items():
        if fc:
            assert w == 1, name  # free-connex queries have width 1
        assert qh == (didx == 0), name  # q-hierarchical iff index 0
        assert d in (w, w - 1), name
    assert golden["deep4"][:2] == (3, 3)  # the four-atom example's exponents
    assert golden["chain2"][:2] == (2, 1)
    print("\n[AC3] PASS width/classification table")


def test_ac4_delta0_constant_time_updates():
    """Max per-update primitive op count for a q-hierarchical query varies
    by < 10% across N in {1e3, 1e4, 1e5}."""
    q = parse_query("Q(A,E) = R(A,B), S(A,E).")
    maxes = []
    for n in (10**3, 10**4, 10**5):
        rng = random.Random(n)
        db = {"R": {}, "S": {}}
        while len(db["R"]) < n // 2:
            db["R"][(rng.randrange(n), rng.randrange(n))] = 1
        while len(db["S"]) < n - n // 2:
            db["S"][(rng.randrange(n), rng.randrange(n))] = 1
        st = preprocess(q, db, 0.5, mode="dynamic")
        st.counters.reset()
        for i in range(200):
            st.on_update("R", (n + i, n + i), 1)
            st.on_update("R", (n + i, n + i), -1)
            st.on_update("S", (n + i, n + i), 1)
            st.on_update("S", (n + i, n + i), -1)
        maxes.append(st.counters.max_update_ops)
    spread = (max(maxes) - min(maxes)) / max(maxes)
    assert spread < 0.10, maxes
    print(f"\n[AC4] PASS delta0 constant-time updates (max ops {maxes})")


def test_ac5_tradeoff_scaling():
    """Counter scaling for the two-hop chain when N quadruples from 2^12 to
    2^14: at eps=0.5 amortized update ops and max delay ops grow by at most
    3.0x; at eps=1 the delay counter is flat while amortized ops grow with
    ratio >= 2.5."""
    q = parse("chain2")
    half = {n: run_point(q, n, 0.5, seed=42) for n in (2**12, 2**14)}
    amort_ratio = half[2**14].amortized_ops / half[2**12].amortized_ops
    delay_ratio = half[2**14].max_delay_ops / max(1, half[2**12].max_delay_ops)
    assert amort_ratio <= 3.0, amort_ratio
    assert delay_ratio <= 3.0, delay_ratio

    one = {n: run_point(q, n, 1.0, seed=42) for n in (2**12, 2**14)}
    d12, d14 = one[2**12].max_delay_ops, one[2**14].max_delay_ops
    assert abs(d14 - d12) / max(1, d12) <= 0.10, (d12, d14)
    growth = one[2**14].amortized_ops / one[2**12].amortized_ops
    assert growth >= 2.5, growth
    print(f"\n[AC5] PASS trade-off scaling "
          f"(eps=.5: amort x{amort_ratio:.2f}, delay x{delay_ratio:.2f}; "
          f"eps=1: delay {d12}->{d14}, amort x{growth:.2f})")


def test_ac6_forest_equivalence():
    """For 200 random hierarchical queries and random small databases, the
    union of per-tree leaf-joins equals the query result as a set of
    distinct tuples (per connected component)."""
    from skewivm.query import Atom, ConjunctiveQuery

    rng = random.Random(606)
    for i in range(200):
        q = random_hierarchical_query(rng, max_atoms=5, max_vars=7)
        db = {}
        for sym in q.symbols():
            arity = len(q.occurrences(sym)[0].schema)
            db[sym] = {tuple(rng.randrange(4) for _ in range(arity)): rng.randint(1, 2)
                       for _ in range(rng.randint(3, 12))}
        st = preprocess(q, db, rng.choice(EPS_GRID), mode="dynamic")
        for comp_q, comp in zip(connected_components(q), st.components):
            want = set(brute_force_eval(comp_q, db))
            got = set()
            for tree in comp.trees:
                leaves = [n for n in tree.nodes if n.is_leaf]
                jq = ConjunctiveQuery(
                    "J", comp_q.head_vars,
                    tuple(Atom(n.leaf_name, n.schema, 0) for n in leaves))
                leaf_db = {n.leaf_name: dict(leaf_rows(n).entries) for n in leaves}
                got |= set(brute_force_eval(jq, leaf_db))
            assert got == want, str(q)
    print("\n[AC6] PASS forest equivalence (200 random queries)")


def test_ac7_major_rebalance_state_equivalence():
    """Immediately after any major rebalancing the engine state equals a
    fresh preprocessing of the current database at the same (M, epsilon) -
    view-by-view exact content comparison."""
    majors_checked = 0
    for name in ("chain2", "semi", "deep4"):
        q = parse(name)
        for eps in (0.0, 0.5, 1.0):
            rng = random.Random(zlib.crc32(f"{name}:{eps}".encode()))
            st = preprocess(q, {s: {} for s in q.symbols()}, eps, mode="dynamic")
            live = {s: [] for s in q.symbols()}
            for _ in range(220):
                sym = rng.choice(q.symbols())
                arity = len(q.occurrences(sym)[0].schema)
                before = st.counters.major_rebalances
                if rng.random() < 0.8 or not live[sym]:
                    row = tuple(rng.randrange(8) for _ in range(arity))
                    st.on_update(sym, row, 1)
                    if row not in live[sym]:
                        live[sym].append(row)
                else:
                    row = rng.choice(live[sym])
                    cur = st.base[sym].entries.get(row, 0)
                    st.on_update(sym, row, -1)
                    if cur == 1:
                        live[sym].remove(row)
                if st.counters.major_rebalances > before:
                    fresh = preprocess(q, st.db_snapshot(), eps, mode="dynamic",
                                       m_override=st.M)
                    assert fingerprint(st) == fingerprint(fresh), (name, eps)
                    majors_checked += 1
    assert majors_checked >= 30
    print(f"\n[AC7] PASS major-rebalance state equivalence "
          f"({majors_checked} majors compared)")
