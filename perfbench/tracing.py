"""Span tracing for the per-layer metrics (``run.py --trace 1``).

The tracer wraps the engine's layer functions from outside the package: it
replaces module and class attributes, records one span per call and puts
the originals back when it is closed.  ``skewivm.engine`` imports
``run_join``, ``materialize_node`` and ``strict_partition`` by name, so they
are patched where engine binds them.

A span is ``[name, start_ns, end_ns, parent, request, ops, note]``: the
parent is the index of the enclosing span (-1 at the top), the request is
the index of the script entry (or set-up call) that caused it, ``ops`` is
the change of ``Counters.storage_ops`` over the call and ``note`` is a
layer-specific count.  Spans stay in memory until the round ends.  Self
time is a span's duration minus the durations of its child spans, which lie
inside it because the engine is single-threaded.
"""

from __future__ import annotations

import statistics
import time

FIELDS = ("name", "start_ns", "end_ns", "parent", "request", "ops", "note")


def _leaf_hit(args, out):
    _, tree, leaf_name, _ = args
    return leaf_name in tree.leaf_paths


def _rows_out(args, out):
    return len(out)


def _rows_loaded(args, out):
    return len(args[0].content.entries)


class Tracer:
    """Collects spans for one process; install once, close at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.counters = None
        self.lookups = 0
        self._undo: list[tuple[object, str, object]] = []

    def install(self, engine, enumeration) -> None:
        cls = engine.EngineState
        it = enumeration.ResultIterator
        for owner, attr, name, note in (
            (engine, "preprocess", "setup", None),
            (cls, "on_update", "update", None),
            (cls, "_light_path_conditions", "engine.route", None),
            (cls, "_h_all_change", "engine.indicator", None),
            (cls, "_h_light_change", "engine.indicator", None),
            (cls, "_update_ind_tree", "engine.indicator", None),
            (cls, "_apply", "engine.propagate", _leaf_hit),
            (cls, "_minor_rebalancing", "engine.minor", None),
            (cls, "_major_rebalancing", "engine.major", None),
            (engine, "run_join", "viewtree.run_join", _rows_out),
            (engine, "materialize_node", "viewtree.materialize", _rows_loaded),
            (engine, "strict_partition", "storage.partition", None),
            (it, "__init__", "enumeration.open", None),
            (it, "next", "enumeration.next", None),
            (enumeration, "union_next", "enumeration.union", None),
        ):
            self._patch(owner, attr, self._span(name, getattr(owner, attr), note))
        self._patch(enumeration.TreeIter, "lookup",
                    self._counted(enumeration.TreeIter.lookup))

    def close(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.request, 0, None]
            stack.append(len(spans))
            spans.append(span)
            counters = tracer.counters
            ops = counters.storage_ops
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[5] = counters.storage_ops - ops
            if note is not None:
                span[6] = note(args, out)
            return out

        return traced

    def _counted(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.lookups += 1
            return fn(*args, **kwargs)

        return counted

    def take(self) -> tuple[list[list], int]:
        """Spans and lookup count since the last call; starts afresh."""
        spans, lookups = list(self.spans), self.lookups
        self.spans.clear()
        self.lookups = 0
        return spans, lookups


def layer_metrics(spans: list[list], lookups: int, rows: int, buckets: int,
                  opens: int, shape: dict) -> dict[str, float]:
    """Per-layer metrics of one round.  Times are seconds summed over the
    round; ``.s`` is self time except for the rebalancing phases, whose
    time and ops include everything they call."""
    child_ns = [0] * len(spans)
    child_ops = [0] * len(spans)
    for _, t0, t1, parent, _, ops, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
            child_ops[parent] += ops
    agg: dict[str, list] = {}
    for i, (name, t0, t1, _, _, ops, note) in enumerate(spans):
        a = agg.setdefault(name, [0, 0, 0, 0, 0, 0])
        a[0] += 1
        a[1] += t1 - t0
        a[2] += t1 - t0 - child_ns[i]
        a[3] += ops
        a[4] += ops - child_ops[i]
        a[5] += note or 0  # booleans count as 0/1

    def get(name: str) -> list:
        return agg.get(name, [0, 0, 0, 0, 0, 0])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    route, ind, prop = get("engine.route"), get("engine.indicator"), get("engine.propagate")
    minor, major, setup = get("engine.minor"), get("engine.major"), get("setup")
    join, mat, part = get("viewtree.run_join"), get("viewtree.materialize"), get("storage.partition")
    opn, nxt, union = get("enumeration.open"), get("enumeration.next"), get("enumeration.union")
    useful = sum(1 for s in spans if s[0] == "viewtree.run_join" and s[6])
    out = {
        "engine.route.s": route[2] / 1e9,
        "engine.route.ops": route[4],
        "engine.indicator.s": ind[2] / 1e9,
        "engine.indicator.ops": ind[4],
        "engine.propagate.s": prop[2] / 1e9,
        "engine.propagate.calls": prop[0],
        "engine.propagate.hit_ratio": ratio(prop[5], prop[0]),
        "engine.minor.count": minor[0],
        "engine.minor.s": minor[1] / 1e9,
        "engine.minor.ops": minor[3],
        "engine.major.count": major[0],
        "engine.major.s": major[1] / 1e9,
        "engine.major.ops": major[3],
        "engine.compile.s": setup[2] / 1e9,
        "viewtree.run_join.s": join[2] / 1e9,
        "viewtree.run_join.calls": join[0],
        "viewtree.run_join.rows": join[5],
        "viewtree.run_join.useful_ratio": ratio(useful, join[0]),
        "viewtree.materialize.s": mat[2] / 1e9,
        "viewtree.materialize.rows": mat[5],
        "storage.partition.s": part[2] / 1e9,
        "enumeration.open.s": opn[2] / 1e9,
        "enumeration.ground.buckets": ratio(buckets, opens),
        "enumeration.next.s": nxt[2] / 1e9,
        "enumeration.union.s": union[2] / 1e9,
        "enumeration.lookups_per_row": ratio(lookups, rows),
    }
    out.update(shape)
    return out


def storage_shape(state) -> dict[str, int]:
    """Sizes of everything the engine state stores, at the end of a round:
    tuples in every relation, index entries, tuples held by leaf copies,
    view nodes, and structurally distinct view nodes."""
    trees = list(state.trees)
    for triple in state.triples:
        trees.extend([triple.all_tree, triple.light_tree])
    relations = list(state.base.values())
    for triple in state.triples:
        relations.append(triple.h_content)
        relations.extend(lp.content for lp in triple.light_parts)
    nodes = [node for tree in trees for node in tree.nodes]
    relations.extend(node.content for node in nodes)
    views = [node for node in nodes if not node.is_leaf]
    return {
        "storage.entries": sum(len(r.entries) for r in relations),
        "storage.index_entries": sum(len(bucket) for r in relations
                                     for index in r.indexes.values()
                                     for bucket in index.values()),
        "storage.leaf_copy_entries": sum(len(n.content.entries) for n in nodes if n.is_leaf),
        "storage.views": len(views),
        "storage.distinct_views": len({_signature(n) for n in views}),
    }


def _signature(node) -> tuple:
    if node.is_leaf:
        return (node.kind, node.leaf_name)
    return (node.kind, node.schema, node.semantics,
            tuple(_signature(c) for c in node.children))


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
