"""Command-line entry points: analyze, run, bench.

Exit codes, the same for every subcommand: 0 success, 1 query syntax error
or data error (a bad relation file, input multiplicity, epsilon or update
line, or a file that cannot be read), 2 non-hierarchical query, 3
verification failure, 4 rejected delete.  The subcommands let errors
propagate; :func:`main` alone maps each to its exit code and a one-line
message on stderr.  ``analyze`` also reports a syntax error and a
non-hierarchical query as JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .datafiles import format_result_row, load_database, read_updates
from .engine import preprocess
from .errors import (
    EngineError,
    InvariantViolationError,
    NotHierarchicalError,
    QuerySyntaxError,
    RejectedDeleteError,
    TooLargeError,
)
from .metrics import BenchRow
from .oracle import brute_force_eval
from .query import (
    ConjunctiveQuery,
    delta_index,
    hierarchy_violation,
    is_free_connex,
    is_q_hierarchical,
    parse_query,
)
from .viewtree import dot_graph
from .vorder import canonical_vo, dynamic_width, free_top, kappa_measure, static_width, xi_measure

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_NOT_HIERARCHICAL = 2
EXIT_VERIFY = 3
EXIT_REJECTED = 4


def _read_query(spec: str) -> ConjunctiveQuery:
    path = Path(spec)
    text = path.read_text() if path.exists() else spec
    return parse_query(text.strip())


def cmd_analyze(args) -> int:
    try:
        q = _read_query(args.query)
    except QuerySyntaxError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_SYNTAX
    pair = hierarchy_violation(q)
    if pair is not None:
        print(json.dumps({"hierarchical": False, "violating_pair": list(pair)}))
        return EXIT_NOT_HIERARCHICAL
    vo = canonical_vo(q)
    free = set(q.free)
    report = {
        "query": str(q),
        "hierarchical": True,
        "free_connex": is_free_connex(q),
        "q_hierarchical": is_q_hierarchical(q),
        "delta_index": delta_index(q),
        "static_width": static_width(q),
        "dynamic_width": dynamic_width(q),
        "xi_root": max(xi_measure(vo, r, free) for r in vo.roots),
        "kappa": kappa_measure(vo, free),
    }
    state = preprocess(q, {sym: {} for sym in q.symbols()}, args.epsilon, mode="dynamic")
    report["views"] = state.view_counts()
    report["plan"] = state.plan_json()
    if args.dot:
        parts = [dot_graph(name, order.roots, order.kids, str, lambda n: False)
                 for name, order in (("canonical", vo), ("free_top", free_top(vo)))]
        parts.append(state.dot())
        Path(args.dot).write_text("\n".join(parts) + "\n")
    print(json.dumps(report, indent=None if args.json else 2))
    return EXIT_OK


def cmd_run(args) -> int:
    q = _read_query(args.query)
    db = load_database(q, args.data)
    mode = "dynamic" if args.updates else "static"
    state = preprocess(q, db, args.epsilon, mode=mode)

    def verify() -> bool:
        try:
            want = brute_force_eval(q, state.db_snapshot())
        except TooLargeError as exc:
            print(f"verification skipped: {exc}", file=sys.stderr)
            want = None
        if mode == "dynamic":
            state.check_invariants()
        return want is None or state.result_multiset() == want

    applied = 0
    if args.updates:
        for update in read_updates(args.updates, q):
            state.on_update(*update)
            applied += 1
            if args.verify and args.checkpoint_every and applied % args.checkpoint_every == 0:
                if not verify():
                    print(f"verification failed after update {applied}", file=sys.stderr)
                    return EXIT_VERIFY
    if args.verify:
        if not verify():
            print("verification failed on final state", file=sys.stderr)
            return EXIT_VERIFY
    if args.dot:
        Path(args.dot).write_text(state.dot() + "\n")
    if args.enumerate:
        rows = state.enumerate_result()
        for row, m in sorted(rows) if args.sorted else rows:
            print(format_result_row(row, m))
    else:
        summary = {
            "n": state.N,
            "m": state.M,
            "epsilon": state.epsilon,
            "mode": mode,
            "updates_applied": applied,
            "distinct_results": len(state.result_multiset()),
            "majors": state.counters.major_rebalances,
            "minors": state.counters.minor_rebalances,
        }
        print(json.dumps(summary, indent=None if args.json else 2))
    return EXIT_OK


def cmd_bench(args) -> int:
    q = _read_query(args.query)
    sizes = [int(s) for s in args.bench_sizes.split(",")]
    epsilons = [float(e) for e in args.epsilon_grid.split(",")]
    print(",".join(BenchRow.field_order))
    for eps in epsilons:
        for n in sizes:
            print(bench_mod.run_point(q, n, eps, args.seed).as_csv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewivm",
        description="Skew-aware incremental view maintenance for hierarchical queries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a query and report width measures")
    p.add_argument("--query", required=True, help="query text or path to a query file")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--dot", metavar="OUT", help="write DOT of variable orders and view trees")
    p.add_argument("--json", action="store_true", help="compact single-line JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="load data, replay updates, enumerate")
    p.add_argument("--query", required=True)
    p.add_argument("--data", required=True, help="directory of relation CSV files")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--updates", help="update stream file (enables dynamic mode)")
    p.add_argument("--verify", action="store_true",
                   help="compare against the brute-force oracle at checkpoints")
    p.add_argument("--checkpoint-every", type=int, default=25)
    p.add_argument("--enumerate", action="store_true",
                   help="stream results as CSV v1,...,vk,multiplicity")
    p.add_argument("--sorted", action="store_true",
                   help="buffer and sort the enumeration lexicographically")
    p.add_argument("--dot", metavar="OUT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="counter-based scaling measurements")
    p.add_argument("--query", required=True)
    p.add_argument("--bench-sizes", default="1024,4096,16384")
    p.add_argument("--epsilon-grid", dest="epsilon_grid", default="0.5")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


# what main reports for an error a subcommand raises: the first entry
# whose class matches gives the stderr prefix and the exit code
FAILURES = (
    (QuerySyntaxError, "syntax error", EXIT_SYNTAX),
    (NotHierarchicalError, "not hierarchical", EXIT_NOT_HIERARCHICAL),
    (InvariantViolationError, "invariant violated", EXIT_VERIFY),
    (RejectedDeleteError, "rejected delete", EXIT_REJECTED),
    ((EngineError, OSError), "data error", EXIT_SYNTAX),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        prefix, code = next((prefix, code) for cls, prefix, code in FAILURES
                            if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
