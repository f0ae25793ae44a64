"""Counter accounting: every storage primitive bumps storage_ops once."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from skewivm import engine, enumeration
from skewivm.metrics import Counters
from skewivm.oracle import brute_force_eval
from skewivm.storage import Relation

from conftest import parse, rand_db, run_trace


def test_primitives_increment_exactly_once():
    c = Counters()
    r = Relation("R", ("A", "B"), c)
    r.register_index((0,))

    before = c.storage_ops
    r.get(("a", "b"))
    assert c.storage_ops == before + 1

    before = c.storage_ops
    r.add({("a", "b"): 1})  # one entry op + one op per index
    assert c.storage_ops == before + 2

    before = c.storage_ops
    assert r.count((0,), ("a",)) == 1
    assert c.storage_ops == before + 1

    before = c.storage_ops
    rows = list(r.scan((0,), ("a",)))  # bucket fetch + one per row
    assert len(rows) == 1
    assert c.storage_ops == before + 2

    before = c.storage_ops
    r.add({("a", "b"): -1})  # removal also touches each index once
    assert c.storage_ops == before + 2

    # a delta of several rows written in one call counts one op per row:
    # an insert and a removal touch the index too, an increment does not
    r.add({("a", "c"): 2})
    before = c.storage_ops
    r.add({("a", "b"): 3, ("a", "c"): 1})  # insert + increment
    assert c.storage_ops == before + 2 + 1
    assert r.entries == {("a", "b"): 3, ("a", "c"): 3}
    assert r.indexes[(0,)] == {("a",): {("a", "c"): None, ("a", "b"): None}}
    before = c.storage_ops
    r.add({("a", "c"): -3, ("a", "b"): -3})  # two removals to 0
    assert c.storage_ops == before + 2 + 2
    assert r.entries == {} and r.indexes[(0,)] == {}

    # without an index: one op per row, and a view may go negative
    v = Relation("V", ("A",), c)
    before = c.storage_ops
    v.add({("x",): -1, ("y",): 2})
    v.add({("x",): 1, ("y",): 1})
    assert c.storage_ops == before + 4
    assert v.entries == {("y",): 3}


def test_snapshot_and_reset():
    c = Counters()
    r = Relation("R", ("A",), c)
    r.add({("x",): 1})
    snap = c.snapshot()
    assert snap.storage_ops == c.storage_ops
    r.add({("y",): 1})
    assert snap.storage_ops < c.storage_ops  # snapshot is a copy
    c.reset()
    assert c.storage_ops == 0 and c.max_update_ops == 0


def test_update_and_next_records():
    c = Counters()
    c.record_update(10)
    c.record_update(4)
    assert c.updates == 2
    assert c.max_update_ops == 10
    assert c.last_update_ops == 4
    assert c.cumulative_update_ops == 14
    assert c.amortized_update_ops == 7.0
    # a next() records its own ops: opening read the first two rows, the
    # first next() reads the third (one ahead) and the second none
    st = engine.preprocess("Q(A) = R(A).", {"R": {(1,): 1, (2,): 1, (3,): 1}}, 1.0)
    it = st.enumerate_result()
    it.next()
    assert (st.counters.last_next_ops, st.counters.max_next_ops) == (1, 1)
    it.next()
    assert (st.counters.last_next_ops, st.counters.max_next_ops) == (0, 1)


def test_cumulative_monotone():
    c = Counters()
    r = Relation("R", ("A",), c)
    seen = [c.storage_ops]
    for i in range(5):
        r.add({(i,): 1})
        seen.append(c.storage_ops)
    assert seen == sorted(seen)


# what perfbench/tracing.py patches
TRACED = (engine, engine.EngineState, enumeration, enumeration.ResultIterator,
          enumeration.TreeIter)


def _load_tracing(monkeypatch):
    """``perfbench/tracing.py`` as a module, read only: no bytecode is
    written."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/tracing.py wraps engine and enumeration functions by name
    # (run_join, materialize_node and strict_partition where skewivm.engine
    # binds them); a refactor that drops one of those names fails here, not
    # only in a traced benchmark run.  No workload runs and no file is
    # written, bytecode included
    tracing = _load_tracing(monkeypatch)
    before = [dict(vars(owner)) for owner in TRACED]
    tracer = tracing.Tracer()
    try:
        tracer.install(engine, enumeration)
        installed = [dict(vars(owner)) for owner in TRACED]
    finally:
        tracer.close()
    assert all(now != then for now, then in zip(installed, before))
    assert [dict(vars(owner)) for owner in TRACED] == before


def test_tracer_sees_every_enumeration_seam(monkeypatch):
    # the compiled cursors still call ResultIterator.__init__ and next,
    # union_next and TreeIter.lookup by name, so a traced run of updates
    # and a full read records a span of each and counts lookups; closing
    # the tracer puts back every attribute it patched
    tracing = _load_tracing(monkeypatch)
    before = [dict(vars(owner)) for owner in TRACED]
    q = parse("chain2")
    db = rand_db(q, random.Random(11), per_rel=40, dom=6)
    tracer = tracing.Tracer()
    tracer.counters = counters = Counters()
    try:
        tracer.install(engine, enumeration)
        st = engine.preprocess(q, db, 0.25, counters=counters)
        run_trace(st, q, random.Random(12), steps=40, dom=6)
        rows = list(st.enumerate_result())
    finally:
        tracer.close()
    spans, lookups = tracer.take()
    assert dict(rows) == brute_force_eval(q, st.db_snapshot())
    names = {span[0] for span in spans}
    assert {"update", "enumeration.open", "enumeration.next", "enumeration.union"} <= names
    assert lookups > 0
    assert [dict(vars(owner)) for owner in TRACED] == before


BENCH_WORKLOADS = ("grow-chain2-e1", "churn-fc4-e05", "read-chain2-e025")


def _measure_smoke(monkeypatch, workload, traced):
    """One ``perfbench/run.py`` measurement of ``workload`` at its small
    check size: ``measure`` writes no file and checks every row it reads
    against the benchmark's own hash-join reference.  run.py puts
    perfbench/ and src/ on the import path and imports reference, tracing
    and workloads; all of it is undone after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run_py = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run_py)
        run = run_py.measure(run_py.smoke(run_py.WORKLOADS[workload]), seed=7,
                             seconds=0.5, traced=traced)
    finally:
        for name in ("reference", "tracing", "workloads"):
            sys.modules.pop(name, None)
    assert run.rounds >= 1 and run.attempted > 0
    assert run.correct and run.failed == 0
    return run


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_benchmark_smoke_run_is_correct(workload, monkeypatch):
    # the engine checked the way the benchmark drives it, untraced
    _measure_smoke(monkeypatch, workload, traced=False)


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_traced_smoke_run_sees_propagation(workload, monkeypatch):
    # the per-layer view of an update, in the spans of the first round: a
    # leaf's trigger folds and writes every view delta inside its
    # engine.propagate span, which holds no span and carries those ops as
    # its own; no join fold runs in an update outside a major's rebuild;
    # the folds that materialize views at set-up are still traced
    run = _measure_smoke(monkeypatch, workload, traced=True)
    spans = run.spans
    has_child = [False] * len(spans)
    for _, _, _, parent, _, _, _ in spans:
        if parent >= 0:
            has_child[parent] = True

    def in_major(i):
        while i >= 0:
            if spans[i][0] == "engine.major":
                return True
            i = spans[i][3]
        return False

    updates = {span[4] for span in spans if span[0] == "update"}
    during = [i for i, span in enumerate(spans) if span[4] in updates]
    propagate = [i for i in during if spans[i][0] == "engine.propagate"]
    assert updates and propagate
    assert not any(has_child[i] for i in propagate)
    assert sum(spans[i][5] for i in propagate) > 0
    assert not any(spans[i][0] == "viewtree.run_join" and not in_major(i) for i in during)
    assert run.layers[0]["engine.propagate.calls"] > 0
    assert run.layers[0]["viewtree.run_join.calls"] > 0


def test_traced_read_smoke_run_sees_enumeration(monkeypatch):
    # perfbench/tracing.py wraps ResultIterator.__init__ and next,
    # union_next and TreeIter.lookup by name: a traced read records an
    # open, a next and a union span, and counts lookups
    run = _measure_smoke(monkeypatch, "read-chain2-e025", traced=True)
    names = {span[0] for span in run.spans}
    assert {"enumeration.open", "enumeration.next", "enumeration.union"} <= names
    assert run.layers[0]["enumeration.lookups_per_row"] > 0
