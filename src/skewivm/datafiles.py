"""File formats: relation CSVs and single-tuple update streams.

Relation data lives in one CSV per relation symbol, columns in the atom's
schema order, with an optional trailing integer ``__mult`` column (default
multiplicity 1) and an optional header row naming the variables.  Update
streams hold one update per line, ``+|- symbol, v1, ..., vk [, m]``; the
sign negates ``m`` and blank lines or ``#`` comments are skipped.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path
from typing import Iterator

from .errors import EngineError, MissingRelationError
from .query import ConjunctiveQuery

Row = tuple
Multiset = dict[Row, int]


def _candidate_files(data_dir: Path, symbol: str, occurrences: list[int]) -> list[Path]:
    names = [f"{symbol}.csv"] + [f"{symbol}.{o}.csv" for o in occurrences]
    return [data_dir / n for n in names if (data_dir / n).exists()]


def _parse_row(cells: list[str], arity: int, where: str, symbol: str) -> tuple[Row, int]:
    """``cells``, stripped values with an optional trailing integer
    multiplicity (default 1), as an interned row and its multiplicity;
    ``where`` (``path:line`` or ``update line N``) starts each message."""
    mult = 1
    if len(cells) == arity + 1:
        try:
            mult = int(cells[-1])
        except ValueError as exc:
            raise EngineError(f"{where}: bad multiplicity {cells[-1]!r}") from exc
        cells = cells[:-1]
    if len(cells) != arity:
        raise EngineError(
            f"{where}: {len(cells)} values for arity-{arity} relation {symbol}")
    return tuple(sys.intern(c) for c in cells), mult


def load_relation_csv(path: Path, schema: tuple[str, ...]) -> Multiset:
    symbol = path.name.split(".")[0]  # R.csv or R.<occurrence>.csv
    out: Multiset = {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return out
    start = 0
    header = [c.strip() for c in rows[0]]
    if header == list(schema) or header == list(schema) + ["__mult"]:
        start = 1
    for lineno, raw in enumerate(rows[start:], start + 1):
        cells = [c.strip() for c in raw]
        if not cells or cells == [""]:
            continue
        row, mult = _parse_row(cells, len(schema), f"{path}:{lineno}", symbol)
        out[row] = out.get(row, 0) + mult
    return {r: m for r, m in out.items() if m != 0}


def load_database(q: ConjunctiveQuery, data_dir: str | Path) -> dict[str, Multiset]:
    """One multiset per relation symbol; occurrence-suffixed files are
    accepted but every file for the same symbol must agree."""
    data_dir = Path(data_dir)
    db: dict[str, Multiset] = {}
    for sym in q.symbols():
        occs = [a.occurrence for a in q.occurrences(sym)]
        schema = q.occurrences(sym)[0].schema
        files = _candidate_files(data_dir, sym, occs)
        if not files:
            raise MissingRelationError(f"no data file for relation {sym} in {data_dir}")
        contents = [load_relation_csv(f, schema) for f in files]
        for other, f in zip(contents[1:], files[1:]):
            if other != contents[0]:
                raise EngineError(
                    f"{f}: occurrence file disagrees with {files[0]} for symbol {sym}")
        db[sym] = contents[0]
    return db


def parse_update_line(line: str, lineno: int,
                      arities: dict[str, int]) -> tuple[str, Row, int] | None:
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    if text[0] not in "+-":
        raise EngineError(f"update line {lineno}: expected leading + or -")
    sign = 1 if text[0] == "+" else -1
    fields = [f.strip() for f in text[1:].split(",")]
    symbol = fields[0]
    if symbol not in arities:
        raise MissingRelationError(f"update line {lineno}: unknown relation {symbol}")
    row, mult = _parse_row(fields[1:], arities[symbol], f"update line {lineno}", symbol)
    return symbol, row, sign * abs(mult)


def read_updates(path: str | Path, q: ConjunctiveQuery) -> Iterator[tuple[str, Row, int]]:
    arities = {sym: len(q.occurrences(sym)[0].schema) for sym in q.symbols()}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parsed = parse_update_line(line, lineno, arities)
            if parsed is not None:
                yield parsed


def format_result_row(row: Row, mult: int) -> str:
    return ",".join([*row, str(mult)])
