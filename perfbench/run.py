#!/usr/bin/env python3
"""Benchmark of skewivm's preprocessing, single-tuple updates and
enumeration, through the public API only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller in this single-threaded process replays whole rounds
of one workload until the next round would overrun ``--seconds``.  A round
is fixed work: ``Spec.setup_calls`` back-to-back ``preprocess`` calls on
the preloaded database, then the workload's script against the last state.  The
script is a seeded list of ``on_update`` calls and reads; a read opens a
fresh iterator with ``enumerate_result()`` and asks it for a fixed number
of rows.  Every returned row is checked against the independent reference
in ``reference.py``, which is updated alongside the engine.  Every round
does the same work, so its operation counts and the digest of its checked
rows must repeat; a round that differs makes the run incorrect.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, each timing taken over one round's calls with every
call at its fastest repetition over the rounds (see ``Run.fold``).  With
``--trace 1`` the engine's layer functions are wrapped (see ``tracing.py``)
and the object holds the per-layer metrics instead, each the median over
rounds of the per-round value.  Results go to ``perfbench/results/`` too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from reference import Reference  # noqa: E402
from tracing import FIELDS, Tracer, layer_metrics, median_metrics, storage_shape  # noqa: E402
from workloads import WORKLOADS, Spec, generate, smoke  # noqa: E402


def load_engine():
    """Imports skewivm from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "skewivm" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no skewivm sources under {src}")
    sys.path.insert(0, str(src))
    from skewivm import engine, enumeration, metrics
    if Path(engine.__file__).resolve().parent != src / "skewivm":
        raise SystemExit(f"run.py: imported skewivm from {engine.__file__}, not {src}")
    return engine, enumeration, metrics.Counters


class Run:
    """What a run keeps of its rounds, and its operation tally.

    Per-call timings are folded into one running minimum per call as each
    round ends, so what the run holds (and its peak RSS) does not grow with
    the number of rounds it fits in."""

    def __init__(self) -> None:
        self.rounds = 0
        self.best: dict[str, list[int]] = {}  # kind -> per-call best ns
        self.counts: dict[str, int] = {}  # of the first round
        self.digest = ""  # of the first round's checked rows
        self.best_round_s = float("inf")
        self.layers: list[dict[str, float]] = []  # per round, traced runs only
        self.spans: list = []  # of the first round, traced runs only
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def fold(self, samples: dict[str, list[int]], counts: dict[str, int],
             digest: str, round_s: float) -> None:
        """Takes in one round.  Every round repeats the same calls, so the
        i-th call of a kind keeps its fastest time over the rounds: on a
        shared machine other tenants can slow whole stretches of seconds (by
        up to 1.8x where the README's figures were taken), and an operation's
        fastest repetition is the steadiest estimate of its cost."""
        if not self.rounds:
            self.best = {kind: list(times) for kind, times in samples.items()}
            self.counts, self.digest = counts, digest
        else:
            for kind, times in samples.items():
                self.best[kind] = list(map(min, self.best[kind], times))
            if counts != self.counts or digest != self.digest:
                print("run.py: a round did different work from the first", file=sys.stderr)
                self.correct = False
        self.best_round_s = min(self.best_round_s, round_s)
        self.rounds += 1


def check_read(rows: list[tuple], asked: int, ref: Reference) -> bool:
    """Each row once, with the reference multiplicity; a short read must
    have returned the whole result."""
    seen = set()
    for row, mult in rows:
        if row in seen or mult <= 0 or ref.multiplicity(row) != mult:
            return False
        seen.add(row)
    if len(rows) < asked:
        return len(rows) == sum(1 for _ in itertools.islice(ref.distinct_rows(), asked))
    return True


def run_round(spec: Spec, preload: dict, script: list, engine, counters_type,
              run: Run, tracer) -> None:
    clock = time.perf_counter_ns
    round_start = clock()
    setup_ns, update_ns, first_ns, delay_ns = [], [], [], []
    state = None
    for k in range(spec.setup_calls):
        state = None  # let the previous state go before the next one is built
        counters = counters_type()
        if tracer:
            tracer.counters, tracer.request = counters, f"setup{k}"
        t0 = clock()
        state = engine.preprocess(spec.query, preload, spec.epsilon,
                                  mode="dynamic", counters=counters)
        setup_ns.append(clock() - t0)
        run.attempted += 1
    setup_ops = counters.storage_ops
    ref = Reference(spec.query, preload)
    digest = hashlib.sha256()
    first_ops = rows_read = buckets = opens = 0
    for i, op in enumerate(script):
        run.attempted += 1
        if tracer:
            tracer.request = i
        try:
            if op[0] == "u":
                _, sym, row, mult = op
                t0 = clock()
                state.on_update(sym, row, mult)
                update_ns.append(clock() - t0)
                ref.apply(sym, row, mult)
                continue
            asked = op[1]
            ops0 = counters.storage_ops
            t0 = clock()
            it = state.enumerate_result()
            got = it.next()
            first_ns.append(clock() - t0)
            first_ops = max(first_ops, counters.storage_ops - ops0)
            if tracer:
                buckets += it.grounded_buckets()
                opens += 1
            rows = []
            while got is not None:
                rows.append(got)
                if len(rows) == asked:
                    break
                t0 = clock()
                got = it.next()
                if got is not None:
                    delay_ns.append(clock() - t0)
        except Exception:  # count it as failed, keep measuring the rest
            traceback.print_exc(file=sys.stderr)
            run.failed += 1
            continue
        rows_read += len(rows)
        if not check_read(rows, asked, ref):
            print(f"run.py: read {i} disagrees with the reference", file=sys.stderr)
            run.correct = False
        digest.update(repr(rows).encode())
    round_s = (clock() - round_start) / 1e9
    c = state.counters
    if tracer:
        spans, lookups = tracer.take()
        if not run.rounds:
            run.spans = spans
        run.layers.append(layer_metrics(spans, lookups, rows_read, buckets, opens,
                                        storage_shape(state)))
    run.fold({"setup": setup_ns, "update": update_ns, "first": first_ns, "delay": delay_ns},
             {"setup_ops": setup_ops,
              "update_ops_amortized": c.amortized_update_ops,
              "update_ops_max": c.max_update_ops,
              "delay_ops_max": c.max_next_ops,
              "first_row_ops": first_ops},
             digest.hexdigest(), round_s)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Timings over the operations of one round, each operation at its best
    time over the rounds (see ``Run.fold``).  Counts are the same in every
    round."""
    best = run.best
    update, first, delay = best["update"], best["first"], best["delay"]
    out = {
        "setup_s": (statistics.median(best["setup"]) / 1e9, "s"),
        "update_throughput_ups": (len(update) / (sum(update) / 1e9), "1/s"),
        "update_p50_us": (statistics.median(update) / 1e3, "us"),
        "update_p99_us": (percentile(update, 99) / 1e3, "us"),
        "first_row_us": (statistics.median(first) / 1e3, "us"),
        "enum_delay_p50_us": (statistics.median(delay) / 1e3, "us"),
        "enum_delay_p99_us": (percentile(delay, 99) / 1e3, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    out.update((name, (value, "ops")) for name, value in run.counts.items())
    return out


LAYER_UNITS = {"s": "s", "ops": "ops", "calls": "count", "count": "count",
               "rows": "rows", "hit_ratio": "ratio", "useful_ratio": "ratio",
               "buckets": "buckets", "lookups_per_row": "lookups/row",
               "entries": "entries", "index_entries": "entries",
               "leaf_copy_entries": "entries", "views": "views",
               "distinct_views": "views"}


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    medians = median_metrics(run.layers)
    return {name: (value, LAYER_UNITS[name.rsplit(".", 1)[1]])
            for name, value in medians.items()}


def measure(spec: Spec, seed: int, seconds: float, traced: bool) -> Run:
    engine, enumeration, counters_type = load_engine()
    preload, script = generate(spec, seed)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(engine, enumeration)
    run = Run()
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            run_round(spec, preload, script, engine, counters_type, run, tracer)
            elapsed = time.perf_counter() - start
            if elapsed * (run.rounds + 1) / run.rounds > seconds:
                break
    finally:
        if tracer:
            tracer.close()
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its small check size")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = smoke(spec)
    run = measure(spec, args.seed, args.seconds, bool(args.trace))
    e2e = end_to_end(run)
    metrics = per_layer(run) if args.trace else e2e
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    # the end-to-end figures of a traced run, against an untraced one, give
    # the tracing overhead
    summary = dict(result, workload=args.workload, seed=args.seed, smoke=args.smoke,
                   rounds=run.rounds, digest=run.digest, best_round_s=run.best_round_s,
                   end_to_end={name: value for name, (value, _) in e2e.items()})
    (RESULTS / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as f:
            f.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in run.spans:
                f.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
