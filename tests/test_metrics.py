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
    r.delta(("a", "b"), 1)  # one entry op + one op per index
    assert c.storage_ops == before + 2

    before = c.storage_ops
    assert r.count((0,), ("a",)) == 1
    assert c.storage_ops == before + 1

    before = c.storage_ops
    rows = list(r.scan((0,), ("a",)))  # bucket fetch + one per row
    assert len(rows) == 1
    assert c.storage_ops == before + 2

    before = c.storage_ops
    r.delta(("a", "b"), -1)  # removal also touches each index once
    assert c.storage_ops == before + 2


def test_snapshot_and_reset():
    c = Counters()
    r = Relation("R", ("A",), c)
    r.delta(("x",), 1)
    snap = c.snapshot()
    assert snap.storage_ops == c.storage_ops
    r.delta(("y",), 1)
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
        r.delta((i,), 1)
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


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_benchmark_smoke_run_is_correct(workload, monkeypatch):
    # perfbench/run.py at each workload's small check size, untraced:
    # ``measure`` writes no file and checks every row it reads against the
    # benchmark's own hash-join reference, so the engine is checked here
    # the way the benchmark drives it.  run.py puts perfbench/ and src/ on
    # the import path and imports reference, tracing and workloads; all of
    # it is undone after the test
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run_py = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run_py)
        run = run_py.measure(run_py.smoke(run_py.WORKLOADS[workload]), seed=7,
                             seconds=0.5, traced=False)
    finally:
        for name in ("reference", "tracing", "workloads"):
            sys.modules.pop(name, None)
    assert run.rounds >= 1 and run.attempted > 0
    assert run.correct and run.failed == 0
