"""Independent reference results for the benchmark's checks.

Nothing here uses the engine.  The benchmark keeps its own copy of the
database and applies every update to it as well, and two evaluators read
that copy:

- :meth:`Reference.multiplicity` binds the head variables of one result row
  and runs index nested loops over the body atoms.  Atoms that share no
  unbound variable are summed separately and multiplied, so a row costs the
  degrees along its own join paths, not the product of all of them; such
  sums are remembered until the next update.
- :func:`hash_join` computes the whole result by folding in one atom at a
  time, summing out each variable as soon as neither the head nor a later
  atom needs it.  It is cross-checked against ``brute_force_eval``.
"""

from __future__ import annotations

from workloads import parse_atoms

Row = tuple
Multiset = dict[Row, int]


class Reference:
    """The benchmark's copy of the database, with per-row evaluation."""

    def __init__(self, query: str, db: dict[str, Multiset]):
        self.head, self.atoms = parse_atoms(query)
        self.db = {sym: dict(rel) for sym, rel in db.items()}
        # (symbol, positions) -> {key -> {row -> None}}, built on first use
        self.indexes: dict[tuple, dict[Row, dict[Row, None]]] = {}
        # (atoms, their bound values) -> sum over the atoms; rows of one read
        # share most of these, and every update clears them
        self.memo: dict[tuple, int] = {}

    def apply(self, sym: str, row: Row, mult: int) -> None:
        self.memo.clear()
        rel = self.db[sym]
        old = rel.get(row, 0)
        new = old + mult
        if new < 0:
            raise ValueError(f"{sym}: delete of {row} by {mult} exceeds {old}")
        if new:
            rel[row] = new
        else:
            del rel[row]
        if old and new:
            return
        for (isym, positions), index in self.indexes.items():
            if isym != sym:
                continue
            key = tuple(row[p] for p in positions)
            if new:
                index.setdefault(key, {})[row] = None
            else:
                bucket = index[key]
                del bucket[row]
                if not bucket:
                    del index[key]

    def _index(self, sym: str, positions: tuple[int, ...]) -> dict[Row, dict[Row, None]]:
        index = self.indexes.get((sym, positions))
        if index is None:
            index = {}
            for row in self.db[sym]:
                index.setdefault(tuple(row[p] for p in positions), {})[row] = None
            self.indexes[(sym, positions)] = index
        return index

    def _matches(self, atom: int, binding: dict) -> list[tuple[Row, int]]:
        sym, schema = self.atoms[atom]
        positions = tuple(p for p, v in enumerate(schema) if v in binding)
        rel = self.db[sym]
        if len(positions) == len(schema):
            row = tuple(binding[v] for v in schema)
            m = rel.get(row, 0)
            return [(row, m)] if m else []
        key = tuple(binding[schema[p]] for p in positions)
        return [(row, rel[row]) for row in self._index(sym, positions).get(key, ())]

    def multiplicity(self, head_row: Row) -> int:
        """Sum over every body binding that agrees with ``head_row`` of the
        product of the atoms' multiplicities."""
        binding = dict(zip(self.head, head_row))
        return self._count(list(range(len(self.atoms))), binding)

    def _count(self, atoms: list[int], binding: dict) -> int:
        total = 1
        for group in self._groups(atoms, binding):
            bound = {v: binding[v] for a in group for v in self.atoms[a][1] if v in binding}
            key = (tuple(group), tuple(sorted(bound.items())))
            s = self.memo.get(key)
            if s is None:
                s = self.memo[key] = self._group_sum(group, binding)
            total *= s
            if not total:
                return 0
        return total

    def _group_sum(self, group: list[int], binding: dict) -> int:
        first = max(group, key=lambda a: sum(v in binding for v in self.atoms[a][1]))
        rest = [a for a in group if a != first]
        schema = self.atoms[first][1]
        s = 0
        for row, m in self._matches(first, binding):
            fresh = {}
            for v, val in zip(schema, row):
                if binding.get(v, val) != val or fresh.get(v, val) != val:
                    break
                if v not in binding:
                    fresh[v] = val
            else:
                binding.update(fresh)
                s += m * self._count(rest, binding)
                for v in fresh:
                    del binding[v]
        return s

    def _groups(self, atoms: list[int], binding: dict) -> list[list[int]]:
        """Partition ``atoms`` into groups linked by unbound variables."""
        groups: list[tuple[set, list[int]]] = []
        for a in atoms:
            free = {v for v in self.atoms[a][1] if v not in binding}
            joined = [g for g in groups if g[0] & free]
            merged = (free.union(*(g[0] for g in joined)),
                      [a] + [x for g in joined for x in g[1]])
            groups = [g for g in groups if not any(g is j for j in joined)] + [merged]
        return [sorted(g[1]) for g in groups]

    def distinct_rows(self):
        """Yield each distinct result row once, in no particular order.

        Head values are drawn atom by atom from the atoms that hold an
        unbound head variable; a complete candidate is kept when its
        multiplicity is positive."""
        binding: dict = {}

        def walk():
            atom = next((a for a, (_, schema) in enumerate(self.atoms)
                         if any(v in self.head and v not in binding for v in schema)), None)
            if atom is None:
                row = tuple(binding[v] for v in self.head)
                if self.multiplicity(row):
                    yield row
                return
            schema = self.atoms[atom][1]
            fresh = [v for v in dict.fromkeys(schema) if v in self.head and v not in binding]
            at = [schema.index(v) for v in fresh]
            for values in dict.fromkeys(tuple(row[p] for p in at)
                                        for row, _ in self._matches(atom, binding)):
                binding.update(zip(fresh, values))
                yield from walk()
                for v in fresh:
                    del binding[v]

        yield from walk()


def hash_join(query: str, db: dict[str, Multiset]) -> Multiset:
    """The whole result of ``query`` over ``db`` by a left-deep hash join."""
    head, atoms = parse_atoms(query)
    acc_vars: tuple[str, ...] = ()
    acc: dict[Row, int] = {(): 1}
    for i, (sym, schema) in enumerate(atoms):
        shared = [v for v in schema if v in acc_vars]
        added = [v for v in dict.fromkeys(schema) if v not in acc_vars]
        by_key: dict[Row, list[tuple[Row, int]]] = {}
        for row, m in db[sym].items():
            values = dict(zip(schema, row))
            if any(values[v] != val for v, val in zip(schema, row)):
                continue  # a repeated variable with two values
            by_key.setdefault(tuple(values[v] for v in shared), []).append(
                (tuple(values[v] for v in added), m))
        needed = set(head).union(*(s for _, s in atoms[i + 1:]))
        joined_vars = acc_vars + tuple(added)
        keep = tuple(v for v in joined_vars if v in needed)
        keep_pos = [joined_vars.index(v) for v in keep]
        shared_pos = [acc_vars.index(v) for v in shared]
        out: dict[Row, int] = {}
        for arow, am in acc.items():
            for nrow, nm in by_key.get(tuple(arow[p] for p in shared_pos), ()):
                full = arow + nrow
                k = tuple(full[p] for p in keep_pos)
                out[k] = out.get(k, 0) + am * nm
        acc, acc_vars = out, keep
    head_pos = [acc_vars.index(v) for v in head]
    result: Multiset = {}
    for row, m in acc.items():
        k = tuple(row[p] for p in head_pos)
        result[k] = result.get(k, 0) + m
    return {k: m for k, m in result.items() if m}
