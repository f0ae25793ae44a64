#!/usr/bin/env python3
"""The benchmark's own checks, at sizes that run in seconds.

    python3 perfbench/selfcheck.py

1. The whole-result hash join equals ``skewivm.brute_force_eval`` on seeded
   inputs under the oracle's 2000-tuple cap, before and after each script.
2. At the smoke size of every workload, the per-row reference gives every
   row of the hash join its multiplicity and finds no other row, and the
   engine's full ``result_multiset()`` equals the hash join after the
   preload and after the script.
3. Two runs of ``run.py --smoke`` with one seed, under different
   ``PYTHONHASHSEED`` values, give identical counts and identical checked
   rows, and report exactly the metrics ``BENCHMARK.json`` lists.
4. A traced smoke run reports every per-layer metric; grounding sees no
   bucket at eps=1 and only the grow workload rebalances majorly.

Prints one line per check and exits with 1 if any fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import Reference, hash_join  # noqa: E402
from workloads import WORKLOADS, generate, smoke  # noqa: E402

SEEDS = (1, 2)


def replay(spec, seed: int):
    """Preload, script and the database after the script."""
    preload, script = generate(spec, seed)
    ref = Reference(spec.query, preload)
    for op in script:
        if op[0] == "u":
            ref.apply(*op[1:])
    return preload, script, ref.db


def tiny(spec):
    """Smoke size again, small enough for nested-loop evaluation."""
    s = smoke(spec)
    return replace(s, preload=max(4, s.preload // 8), final=max(8, s.final // 8),
                   updates=min(s.updates, 24))


def check_hash_join(fail) -> None:
    from skewivm import brute_force_eval, parse_query
    for name, spec in WORKLOADS.items():
        q = parse_query(spec.query)
        for seed in SEEDS:
            preload, _, final = replay(tiny(spec), seed)
            for db in (preload, final):
                if sum(map(len, db.values())) > 2000:
                    fail(f"{name} seed {seed}: tiny input over the oracle cap")
                elif hash_join(spec.query, db) != brute_force_eval(q, db):
                    fail(f"{name} seed {seed}: hash join differs from brute_force_eval")


def check_smoke_results(fail) -> None:
    from skewivm import preprocess
    for name, spec in WORKLOADS.items():
        s = smoke(spec)
        for seed in SEEDS:
            preload, script, final = replay(s, seed)
            ref = Reference(s.query, final)
            whole = hash_join(s.query, final)
            if any(ref.multiplicity(row) != m for row, m in whole.items()) \
                    or set(ref.distinct_rows()) != set(whole):
                fail(f"{name} seed {seed}: per-row reference differs from the hash join")
            state = preprocess(s.query, preload, s.epsilon, mode="dynamic")
            if state.result_multiset() != hash_join(s.query, preload):
                fail(f"{name} seed {seed}: engine result after preload differs")
            for op in script:
                if op[0] == "u":
                    state.on_update(*op[1:])
            if state.result_multiset() != whole:
                fail(f"{name} seed {seed}: engine result after the script differs")
            if not whole:
                fail(f"{name} seed {seed}: empty smoke result checks nothing")


def smoke_run(name: str, seed: int, trace: int, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    stem = f"{name}-smoke-seed{seed}-trace{trace}"
    summary = json.loads((HERE / "results" / f"{stem}.json").read_text())
    return {"stdout": last, "summary": summary}


def check_runs(fail) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in WORKLOADS:
        a = smoke_run(name, 5, 0, "1")
        b = smoke_run(name, 5, 0, "2")
        for r in (a, b):
            got = {k: v["unit"] for k, v in r["stdout"]["metrics"].items()}
            if got != e2e:
                fail(f"{name}: end-to-end metrics differ from BENCHMARK.json")
            if not r["stdout"]["correct"] or r["stdout"]["failed"]:
                fail(f"{name}: smoke run incorrect or with failed operations")

        def counts(r):
            return {k: v["value"] for k, v in r["stdout"]["metrics"].items()
                    if v["unit"] == "ops"}

        if counts(a) != counts(b) or a["summary"]["digest"] != b["summary"]["digest"]:
            fail(f"{name}: two runs with one seed did different work")
        t = smoke_run(name, 5, 1, "3")
        got = {k: v["unit"] for k, v in t["stdout"]["metrics"].items()}
        if got != layers:
            fail(f"{name}: per-layer metrics differ from BENCHMARK.json")
        if t["summary"]["digest"] != a["summary"]["digest"]:
            fail(f"{name}: the traced run checked other rows")
        value = {k: v["value"] for k, v in t["stdout"]["metrics"].items()}
        if name.startswith("grow") and value["enumeration.ground.buckets"] != 0:
            fail(f"{name}: grounding at eps=1 saw a heavy bucket")
        if not name.startswith("grow") and value["engine.major.count"] != 0:
            fail(f"{name}: a major rebalance ran at fixed N")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures: list[str] = []

    def fail(msg: str) -> None:
        failures.append(msg)
        print(f"  {msg}")

    for check, what in (
        (check_hash_join, "hash join equals brute_force_eval on tiny seeded inputs"),
        (check_smoke_results, "smoke-size results equal the reference"),
        (check_runs, "smoke runs repeat exactly and report the listed metrics"),
    ):
        before = len(failures)
        check(fail)
        print("ok  " if len(failures) == before else "FAIL", what)
    print("selfcheck:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
