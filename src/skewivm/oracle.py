"""Independent brute-force ground truth for tests and verification.

Nothing here shares evaluation or width code with the engine modules: the
evaluator is a nested-loop join over atom-tuple combinations, and the width
oracle enumerates every free-top variable order outright.  Deliberately slow
and deliberately separate.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import MissingRelationError, TooLargeError
from .query import Atom, ConjunctiveQuery

Row = tuple
Multiset = dict[Row, int]

EVAL_SIZE_CAP = 2000  # nested loops are O(N^n); keep desk-sized


def brute_force_eval(q: ConjunctiveQuery, db: dict[str, Multiset]) -> Multiset:
    """Definitional join: sum over consistent atom-tuple combinations of the
    product of their multiplicities, projected to the head variables."""
    for sym in q.symbols():
        if sym not in db:
            raise MissingRelationError(sym)
    total = sum(len(db[sym]) for sym in q.symbols())
    if total > EVAL_SIZE_CAP:
        raise TooLargeError(f"database of size {total} exceeds oracle cap {EVAL_SIZE_CAP}")

    head = list(q.head_vars)
    result: Multiset = {}
    atoms = list(q.atoms)

    def walk(i: int, binding: dict[str, object], mult: int) -> None:
        if i == len(atoms):
            key = tuple(binding[v] for v in head)
            result[key] = result.get(key, 0) + mult
            return
        atom = atoms[i]
        for row, m in db[atom.symbol].items():
            if len(row) != len(atom.schema):
                raise MissingRelationError(
                    f"{atom.symbol}: arity {len(row)} does not match atom {atom}")
            # a variable may be bound to None, which is a value like any other
            if any(var in binding and binding[var] != val
                   for var, val in zip(atom.schema, row)):
                continue
            fresh = [v for v, val in zip(atom.schema, row) if v not in binding]
            for v, val in zip(atom.schema, row):
                binding[v] = val
            walk(i + 1, binding, mult * m)
            for v in fresh:
                del binding[v]

    walk(0, {}, 1)
    return {k: v for k, v in result.items() if v != 0}


# ---------------------------------------------------------------------------
# Exhaustive width search
# ---------------------------------------------------------------------------

WIDTH_VAR_CAP = 7


def brute_force_widths(q: ConjunctiveQuery) -> tuple[int, int]:
    """(static width, dynamic width) minimized over *all* free-top variable
    orders, found by exhaustive enumeration of valid forests."""
    if len(_vars(q)) > WIDTH_VAR_CAP:
        raise TooLargeError(f"{len(_vars(q))} variables exceed the width-search cap")
    best_w = None
    best_d = None
    per_component: list[list[tuple[int, int]]] = []
    for comp_vars, comp_atoms in _components(q):
        widths = []
        for tree in _all_trees(frozenset(comp_vars), _dep_graph(comp_atoms), q.free,
                               comp_atoms):
            widths.append(_tree_widths(tree, comp_atoms, q.free, q))
        if not widths:
            raise AssertionError("no valid free-top order found for a component")
        per_component.append(widths)
    # widths of a forest are maxima over its trees; minimize per component
    best_w = max(min(w for w, _ in ws) for ws in per_component)
    best_d = max(min(d for _, d in ws) for ws in per_component)
    return best_w, best_d


def _vars(q: ConjunctiveQuery) -> set[str]:
    return set().union(*(a.schema for a in q.atoms))


def _components(q: ConjunctiveQuery):
    remaining = list(q.atoms)
    comps = []
    while remaining:
        group = [remaining.pop(0)]
        group_vars = set(group[0].schema)
        changed = True
        while changed:
            changed = False
            for a in list(remaining):
                if group_vars & set(a.schema):
                    group.append(a)
                    group_vars |= set(a.schema)
                    remaining.remove(a)
                    changed = True
        comps.append((group_vars, tuple(group)))
    return comps


def _dep_graph(atoms: tuple[Atom, ...]) -> dict[str, set[str]]:
    g: dict[str, set[str]] = {}
    for a in atoms:
        for v in a.schema:
            g.setdefault(v, set())
        for v, w in itertools.combinations(a.schema, 2):
            g[v].add(w)
            g[w].add(v)
    return g


Tree = tuple  # (root, (child trees...))


def _all_trees(var_set: frozenset, dep: dict[str, set[str]], free: frozenset,
               atoms: tuple[Atom, ...]) -> list[Tree]:
    """Every tree over exactly ``var_set`` in which dependent variables are
    comparable and no bound variable has a free descendant."""

    @lru_cache(maxsize=None)
    def gen(vs: frozenset) -> tuple[Tree, ...]:
        out: list[Tree] = []
        for root in sorted(vs):
            rest = vs - {root}
            if root not in free and rest & free:
                continue  # a free variable may not sit below a bound one
            if not rest:
                out.append((root, ()))
                continue
            # any two dependent variables must share a subtree
            cells = _dependence_cells(rest, dep)
            for grouping in _partitions(cells):
                kid_lists = [gen(frozenset().union(*cell_group))
                             for cell_group in grouping]
                for combo in itertools.product(*kid_lists):
                    out.append((root, tuple(combo)))
        return tuple(out)

    candidates = gen(var_set)
    return [t for t in candidates if _atoms_on_paths(t, atoms)]


def _dependence_cells(vs: frozenset, dep: dict[str, set[str]]) -> list[frozenset]:
    left = set(vs)
    cells = []
    while left:
        seed = left.pop()
        cell = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in dep[v] & left:
                left.discard(w)
                cell.add(w)
                frontier.append(w)
        cells.append(frozenset(cell))
    return cells


def _partitions(cells: list[frozenset]):
    """All set partitions of the cell list (each block becomes one subtree)."""
    if not cells:
        yield []
        return
    head, rest = cells[0], cells[1:]
    for part in _partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]


def _atoms_on_paths(tree: Tree, atoms: tuple[Atom, ...]) -> bool:
    paths: dict[str, frozenset] = {}

    def walk(node: Tree, above: frozenset) -> None:
        root, kids = node
        here = above | {root}
        paths[root] = here
        for k in kids:
            walk(k, here)

    walk(tree, frozenset())
    for a in atoms:
        lowest = max(a.schema, key=lambda v: len(paths[v]))
        if not set(a.schema) <= paths[lowest]:
            return False
    return True


def _tree_widths(tree: Tree, atoms: tuple[Atom, ...], free: frozenset,
                 q: ConjunctiveQuery) -> tuple[int, int]:
    anc: dict[str, tuple[str, ...]] = {}
    below: dict[str, set[str]] = {}

    def walk(node: Tree, above: tuple[str, ...]) -> set[str]:
        root, kids = node
        anc[root] = above
        vs = {root}
        for k in kids:
            vs |= walk(k, above + (root,))
        below[root] = vs
        return vs

    walk(tree, ())
    depth = {v: len(a) for v, a in anc.items()}
    schemas = {a.key: set(a.schema) for a in atoms}
    # an atom hangs under its deepest schema variable
    lowest = {a.key: max(a.schema, key=lambda v: depth[v]) for a in atoms}
    co = {v: set() for v in anc}
    for a in atoms:
        for v in a.schema:
            co[v].update(a.schema)

    w = 0
    d = 0
    for x in anc:
        dep_x = {z for z in anc[x] if any(z in co[b] for b in below[x])}
        target = {x} | dep_x
        w = max(w, _cover(target, schemas))
        for k, s in schemas.items():
            if lowest[k] in below[x]:
                d = max(d, _cover(target - s, schemas))
    return w, d


def _cover(target: set[str], schemas: dict) -> int:
    if not target:
        return 0
    keys = sorted(schemas)
    for size in range(1, len(keys) + 1):
        for combo in itertools.combinations(keys, size):
            if target <= set().union(*(schemas[k] for k in combo)):
                return size
    raise AssertionError(f"uncoverable target {target}")
