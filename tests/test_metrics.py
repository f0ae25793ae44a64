"""Counter accounting: every storage primitive bumps storage_ops once."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from skewivm import engine, enumeration
from skewivm.metrics import Counters
from skewivm.storage import Relation


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
    c.record_next(3)
    c.record_next(9)
    assert c.max_next_ops == 9 and c.last_next_ops == 9


def test_cumulative_monotone():
    c = Counters()
    r = Relation("R", ("A",), c)
    seen = [c.storage_ops]
    for i in range(5):
        r.add({(i,): 1})
        seen.append(c.storage_ops)
    assert seen == sorted(seen)


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/tracing.py wraps engine and enumeration functions by name
    # (run_join, materialize_node and strict_partition where skewivm.engine
    # binds them); a refactor that drops one of those names fails here, not
    # only in a traced benchmark run.  No workload runs and no file is
    # written, bytecode included
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (engine, engine.EngineState, enumeration, enumeration.ResultIterator,
              enumeration.TreeIter)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install(engine, enumeration)
        installed = [dict(vars(owner)) for owner in owners]
    finally:
        tracer.close()
    assert all(now != then for now, then in zip(installed, before))
    assert [dict(vars(owner)) for owner in owners] == before


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
