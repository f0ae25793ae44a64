"""CLI entry points, file formats, and exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skewivm.cli import main
from skewivm.datafiles import load_database, parse_update_line
from skewivm.engine import EngineState
from skewivm.errors import EngineError, InvariantViolationError, MissingRelationError
from skewivm.query import parse_query

from conftest import SUITE

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def demo(tmp_path):
    (tmp_path / "R.csv").write_text("a1,b1\na1,b2\na2,b1\n")
    (tmp_path / "S.csv").write_text("b1,c1\nb2,c1\nb2,c2\n")
    return tmp_path


QUERY = "Q(A,C) = R(A,B), S(B,C)."
NON_HIERARCHICAL = "Q(A) = R(A,B), S(B,C), T(C)."


# ---------------------------------------------------------------------------
# data files
# ---------------------------------------------------------------------------


def test_load_database_plain(demo):
    q = parse_query(QUERY)
    db = load_database(q, demo)
    assert len(db["R"]) == 3 and len(db["S"]) == 3
    assert all(m == 1 for m in db["R"].values())


def test_load_database_header_and_mult(tmp_path):
    (tmp_path / "R.csv").write_text("A,B,__mult\nx,y,4\n")
    (tmp_path / "S.csv").write_text("B,C\ny,z\n")
    q = parse_query(QUERY)
    db = load_database(q, tmp_path)
    assert list(db["R"].values()) == [4]


def test_load_database_mult_without_header(tmp_path):
    (tmp_path / "R.csv").write_text("x,y,2\n")
    (tmp_path / "S.csv").write_text("y,z\n")
    db = load_database(parse_query(QUERY), tmp_path)
    assert list(db["R"].values()) == [2]


def test_load_database_occurrence_suffix(tmp_path):
    (tmp_path / "R.0.csv").write_text("x,y\n")
    q = parse_query("Q(A) = R(A,B).")
    db = load_database(q, tmp_path)
    assert len(db["R"]) == 1


def test_load_database_missing(tmp_path):
    with pytest.raises(MissingRelationError):
        load_database(parse_query(QUERY), tmp_path)


def test_update_line_parsing():
    q = parse_query(QUERY)
    arities = {"R": 2, "S": 2}
    assert parse_update_line("+ R, a, b", 1, arities)[0] == "R"
    sym, row, m = parse_update_line("-S,b,c,2", 2, arities)
    assert (sym, m) == ("S", -2)
    assert parse_update_line("# comment", 3, arities) is None
    assert parse_update_line("", 4, arities) is None
    with pytest.raises(EngineError):
        parse_update_line("R, a, b", 5, arities)
    with pytest.raises(MissingRelationError):
        parse_update_line("+ Z, a", 6, arities)


@pytest.mark.parametrize("content, message", [
    ("x,y,many\n", ":1: bad multiplicity 'many'"),
    ("x,y\nx,y,1,2\n", ":2: 4 values for arity-2 relation R"),
], ids=["bad-multiplicity", "column-count"])
def test_load_database_rejects_a_bad_csv_row(tmp_path, content, message):
    (tmp_path / "R.csv").write_text(content)
    (tmp_path / "S.csv").write_text("y,z\n")
    with pytest.raises(EngineError, match=re.escape(f"{tmp_path / 'R.csv'}{message}")):
        load_database(parse_query(QUERY), tmp_path)


def test_load_database_rejects_disagreeing_occurrence_files(tmp_path):
    (tmp_path / "R.csv").write_text("x,y\n")
    (tmp_path / "R.0.csv").write_text("x,z\n")
    message = f"{tmp_path / 'R.0.csv'}: occurrence file disagrees with {tmp_path / 'R.csv'}"
    with pytest.raises(EngineError, match=re.escape(message)):
        load_database(parse_query("Q(A) = R(A,B)."), tmp_path)


def test_update_line_rejects_a_bad_multiplicity():
    with pytest.raises(EngineError, match=re.escape("update line 3: bad multiplicity 'x'")):
        parse_update_line("+ R, a, b, x", 3, {"R": 2})


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_report(capsys):
    rc = main(["analyze", "--query", QUERY, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["hierarchical"] and not out["free_connex"] and not out["q_hierarchical"]
    assert out["delta_index"] == 1 and out["static_width"] == 2
    assert out["dynamic_width"] == 1 and out["kappa"] == 1 and out["xi_root"] == 2
    assert out["plan"][0]["trees"]


@pytest.mark.parametrize("query,positions,distinct", [
    (QUERY, 10, 8),
    ("Q(A,C,F) = R(A,B,C), S(A,B,D), T(A,E,F), U(A,E,G).", 44, 24),
])
def test_analyze_reports_shared_views(capsys, query, positions, distinct):
    assert main(["analyze", "--query", query, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["views"] == {"positions": positions, "distinct": distinct}


def test_analyze_full_single_atom(capsys):
    rc = main(["analyze", "--query", "Q(A,B) = R(A,B).", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["q_hierarchical"] and out["static_width"] == 1 and out["dynamic_width"] == 0


def test_analyze_non_hierarchical_exit_2(capsys):
    rc = main(["analyze", "--query", "Q(A) = R(A,B), S(B,C), T(C).", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert out["hierarchical"] is False and out["violating_pair"] == ["B", "C"]


def test_analyze_syntax_error_exit_1(capsys):
    assert main(["analyze", "--query", "Q(A = R(A).", "--json"]) == 1


@pytest.mark.parametrize("args", [
    ["analyze", "--query", QUERY, "--epsilon", "3"],
    ["bench", "--query", QUERY, "--bench-sizes", "8", "--epsilon-grid", "2"],
], ids=["analyze", "bench"])
def test_epsilon_out_of_range_exit_1(capsys, args):
    rc = main(args)
    assert rc == 1
    assert re.match(r"data error: epsilon \S+ outside \[0, 1\]\n\Z", capsys.readouterr().err)


def test_module_entry_point_reports_an_error_without_a_traceback():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "skewivm.cli", "analyze", "--query", QUERY, "--epsilon", "3"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr == "data error: epsilon 3.0 outside [0, 1]\n"


def test_analyze_dot_output(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    rc = main(["analyze", "--query", QUERY, "--dot", str(dot), "--json"])
    capsys.readouterr()
    assert rc == 0
    text = dot.read_text()
    assert "digraph" in text and "free_top" in text and "style=dashed" in text


@pytest.mark.parametrize("name", ["fc4", "deep4"])
def test_analyze_dot_is_pinned(name, tmp_path, capsys):
    # recorded before the variable orders and the view trees shared one DOT
    # writer: both orders, every result tree and both indicator triples,
    # byte for byte and in the same order
    dot = tmp_path / "out.dot"
    assert main(["analyze", "--query", SUITE[name], "--dot", str(dot), "--json"]) == 0
    capsys.readouterr()
    assert dot.read_bytes() == (GOLDEN / f"analyze_{name}.dot").read_bytes()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_static_verify_and_enumerate(demo, capsys):
    rc = main(["run", "--query", QUERY, "--data", str(demo), "--epsilon", "0.5",
               "--verify", "--enumerate", "--sorted"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out == ["a1,c1,2", "a1,c2,1", "a2,c1,1"]


def test_run_updates_with_verify(demo, tmp_path, capsys):
    upd = tmp_path / "u.txt"
    upd.write_text("+ R, a3, b1\n- S, b2, c2\n+ S, b1, c9, 2\n")
    rc = main(["run", "--query", QUERY, "--data", str(demo), "--updates", str(upd),
               "--verify", "--checkpoint-every", "1", "--enumerate", "--sorted"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert "a3,c9,2" in out and "a1,c2,1" not in out


def test_run_verify_reports_invariant_violation_exit_3(demo, tmp_path, capsys,
                                                        monkeypatch):
    upd = tmp_path / "u.txt"
    upd.write_text("+ R, a3, b1\n")

    def broken(self, deep=False):
        raise InvariantViolationError("H_B: support mismatch")

    monkeypatch.setattr(EngineState, "check_invariants", broken)
    rc = main(["run", "--query", QUERY, "--data", str(demo), "--updates", str(upd),
               "--verify"])
    assert rc == 3
    assert "invariant violated: H_B: support mismatch" in capsys.readouterr().err


def test_run_verify_failure_at_a_checkpoint_exit_3(demo, tmp_path, capsys, monkeypatch):
    upd = tmp_path / "u.txt"
    upd.write_text("+ R, a3, b1\n+ R, a4, b1\n")
    monkeypatch.setattr("skewivm.cli.brute_force_eval", lambda q, db: {})
    rc = main(["run", "--query", QUERY, "--data", str(demo), "--updates", str(upd),
               "--verify", "--checkpoint-every", "1"])
    assert rc == 3
    assert capsys.readouterr().err == "verification failed after update 1\n"


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("query, prefix, code", [
    ("Q(A = R(A).", "syntax error: ", 1),
    (NON_HIERARCHICAL, "not hierarchical: ", 2),
], ids=["syntax", "not-hierarchical"])
def test_query_error_exit_code(demo, capsys, command, query, prefix, code):
    (demo / "T.csv").write_text("c1\n")
    extra = ["--data", str(demo)] if command == "run" else ["--bench-sizes", "8"]
    rc = main([command, "--query", query] + extra)
    assert rc == code
    assert capsys.readouterr().err.startswith(prefix)


def test_run_over_delete_exit_4(demo, tmp_path, capsys):
    upd = tmp_path / "u.txt"
    upd.write_text("- R, a1, b1, 5\n")
    rc = main(["run", "--query", QUERY, "--data", str(demo), "--updates", str(upd)])
    capsys.readouterr()
    assert rc == 4


@pytest.mark.parametrize("extra, bad_data, bad_update, message", [
    ([], "c,d,-1\n", None, "nonpositive input multiplicity"),
    (["--epsilon", "2"], None, None, "epsilon 2.0 outside [0, 1]"),
    ([], None, "+ R,a\n", "1 values for arity-2 relation R"),
], ids=["csv-multiplicity", "epsilon", "update-arity"])
def test_run_data_error_exit_1(demo, tmp_path, capsys, extra, bad_data, bad_update,
                               message):
    if bad_data is not None:
        with open(demo / "S.csv", "a") as fh:
            fh.write(bad_data)
    args = ["run", "--query", QUERY, "--data", str(demo)] + extra
    if bad_update is not None:
        upd = tmp_path / "u.txt"
        upd.write_text("+ R, a3, b1\n" + bad_update)
        args += ["--updates", str(upd)]
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("data error: ") and message in err


def test_run_missing_updates_file_exit_1(demo, tmp_path, capsys):
    rc = main(["run", "--query", QUERY, "--data", str(demo),
               "--updates", str(tmp_path / "missing.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("data error: ") and "missing.txt" in err


def test_run_verify_above_oracle_cap_is_skipped(tmp_path, capsys):
    (tmp_path / "R.csv").write_text("".join(f"a{i},b{i % 7}\n" for i in range(2001)))
    (tmp_path / "S.csv").write_text("b1,c1\n")
    rc = main(["run", "--query", QUERY, "--data", str(tmp_path), "--verify", "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err.startswith("verification skipped: ")
    assert json.loads(captured.out)["n"] == 2002


def test_run_sorted_enumeration_deterministic(demo, capsys):
    args = ["run", "--query", QUERY, "--data", str(demo), "--enumerate", "--sorted"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_run_summary_json(demo, capsys):
    rc = main(["run", "--query", QUERY, "--data", str(demo), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["n"] == 6 and out["mode"] == "static" and out["distinct_results"] == 3


def test_run_emits_forest_dot(demo, tmp_path, capsys):
    dot = tmp_path / "forest.dot"
    rc = main(["run", "--query", QUERY, "--data", str(demo), "--dot", str(dot), "--json"])
    capsys.readouterr()
    assert rc == 0
    assert "xH_B" in dot.read_text()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_csv_shape(capsys):
    rc = main(["bench", "--query", QUERY, "--bench-sizes", "64,128",
               "--epsilon-grid", "0.5", "--seed", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0].startswith("n,epsilon,max_per_update_ops")
    assert len(out) == 3
    n_col = [int(line.split(",")[0]) for line in out[1:]]
    assert n_col == sorted(n_col)


def test_bench_deterministic_for_fixed_seed(capsys):
    args = ["bench", "--query", QUERY, "--bench-sizes", "64",
            "--epsilon-grid", "0.5", "--seed", "7"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_run_empty_update_file_with_verify(demo, tmp_path, capsys):
    upd = tmp_path / "empty.txt"
    upd.write_text("# nothing\n\n")
    rc = main(["run", "--query", QUERY, "--data", str(demo), "--updates", str(upd),
               "--verify", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["updates_applied"] == 0 and out["mode"] == "dynamic"
