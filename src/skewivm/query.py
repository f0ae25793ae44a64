"""Conjunctive-query model: parsing, printing, and classification.

A query is a head over free variables plus an ordered list of atoms.
Repeated relation symbols are legal; each textual occurrence becomes its own
atom identified by ``(symbol, occurrence)``, and all classification is done
over those occurrence keys.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DuplicateVariableInAtomError,
    EmptySchemaAtomError,
    HeadVarNotInBodyError,
    NotHierarchicalError,
    QueryError,
    QuerySyntaxError,
    UncoverableVariableError,
)

AtomKey = tuple[str, int]


@dataclass(frozen=True)
class Atom:
    """One atom occurrence ``symbol(schema)`` in a query body."""

    symbol: str
    schema: tuple[str, ...]
    occurrence: int = 0

    def __post_init__(self) -> None:
        if len(set(self.schema)) != len(self.schema):
            raise DuplicateVariableInAtomError(
                f"atom {self.symbol}({', '.join(self.schema)}) repeats a variable")

    @property
    def key(self) -> AtomKey:
        return (self.symbol, self.occurrence)

    @property
    def name(self) -> str:
        return f"{self.symbol}#{self.occurrence}"

    def __str__(self) -> str:
        return f"{self.symbol}({','.join(self.schema)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``head_name(head_vars) = atom, ..., atom.``"""

    head_name: str
    head_vars: tuple[str, ...]
    atoms: tuple[Atom, ...]
    free: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "free", frozenset(self.head_vars))
        if not self.atoms:
            raise EmptySchemaAtomError("a query needs at least one atom")
        body_vars = set().union(*(a.schema for a in self.atoms)) if self.atoms else set()
        for a in self.atoms:
            if not a.schema:
                raise EmptySchemaAtomError(
                    f"atom {a.name} has an empty schema; every atom needs at least one variable")
        missing = self.free - body_vars
        if missing:
            raise HeadVarNotInBodyError(
                f"head variable(s) {sorted(missing)} do not occur in the body")
        keys = [a.key for a in self.atoms]
        if len(set(keys)) != len(keys):
            raise QueryError(f"duplicate atom occurrence ids in {keys}")

    # -- derived views -----------------------------------------------------

    @cached_property
    def variables(self) -> frozenset[str]:
        return frozenset().union(*(a.schema for a in self.atoms))

    @cached_property
    def bound(self) -> frozenset[str]:
        return self.variables - self.free

    @cached_property
    def atoms_of(self) -> dict[str, frozenset[AtomKey]]:
        """Variable -> set of atom occurrence keys containing it."""
        out: dict[str, set[AtomKey]] = {v: set() for v in self.variables}
        for a in self.atoms:
            for v in a.schema:
                out[v].add(a.key)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def atom_by_key(self) -> dict[AtomKey, Atom]:
        return {a.key: a for a in self.atoms}

    def symbols(self) -> list[str]:
        seen: dict[str, None] = {}
        for a in self.atoms:
            seen.setdefault(a.symbol, None)
        return list(seen)

    def occurrences(self, symbol: str) -> list[Atom]:
        return [a for a in self.atoms if a.symbol == symbol]

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.head_name}({','.join(self.head_vars)}) = {body}."


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),=.])")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> tuple[str, int]:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            rest = self.text[self.pos:].strip()
            if rest:
                raise QuerySyntaxError(self.pos, "a token", rest[0])
            return ("", len(self.text))
        return (m.group(1), m.start(1))

    def take(self) -> tuple[str, int]:
        tok, at = self.peek()
        if tok:
            self.pos = at + len(tok)
        return tok, at

    def expect(self, what: str) -> str:
        tok, at = self.take()
        if what == "ident":
            if not _IDENT.match(tok or ""):
                raise QuerySyntaxError(at, "an identifier", tok)
            return tok
        if tok != what:
            raise QuerySyntaxError(at, repr(what), tok)
        return tok


def _var_list(toks: _Tokens) -> list[str]:
    names: list[str] = []
    tok, _ = toks.peek()
    if tok == ")":
        return names
    names.append(toks.expect("ident"))
    while True:
        tok, _ = toks.peek()
        if tok != ",":
            return names
        toks.take()
        names.append(toks.expect("ident"))


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse ``Head(vars) = Atom, ..., Atom.`` into a query.

    Atoms keep textual order; repeated relation symbols get occurrence ids
    0, 1, 2, ... in that order.
    """
    toks = _Tokens(text)
    head = toks.expect("ident")
    toks.expect("(")
    head_vars = _var_list(toks)
    toks.expect(")")
    toks.expect("=")
    occ_counter: dict[str, int] = {}
    atoms: list[Atom] = []
    while True:
        sym = toks.expect("ident")
        toks.expect("(")
        schema = _var_list(toks)
        toks.expect(")")
        occ = occ_counter.get(sym, 0)
        occ_counter[sym] = occ + 1
        atoms.append(Atom(sym, tuple(schema), occ))
        tok, at = toks.take()
        if tok == ".":
            break
        if tok != ",":
            raise QuerySyntaxError(at, "',' or '.'", tok)
    tok, at = toks.peek()
    if tok:
        raise QuerySyntaxError(at, "end of input", tok)
    dupes = [v for v, n in Counter(head_vars).items() if n > 1]
    if dupes:
        raise DuplicateVariableInAtomError(f"head repeats variable(s) {sorted(dupes)}")
    return ConjunctiveQuery(head, tuple(head_vars), tuple(atoms))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def hierarchy_violation(q: ConjunctiveQuery) -> tuple[str, str] | None:
    """A pair of variables whose atom sets overlap without nesting, if any."""
    names = sorted(q.variables)
    ao = q.atoms_of
    for x, y in itertools.combinations(names, 2):
        ax, ay = ao[x], ao[y]
        if ax & ay and not (ax <= ay or ay <= ax):
            return (x, y)
    return None


def is_hierarchical(q: ConjunctiveQuery) -> bool:
    return hierarchy_violation(q) is None


def require_hierarchical(q: ConjunctiveQuery) -> None:
    pair = hierarchy_violation(q)
    if pair is not None:
        raise NotHierarchicalError(pair)


def is_q_hierarchical(q: ConjunctiveQuery) -> bool:
    """Hierarchical, and no bound variable strictly dominates a free one."""
    if not is_hierarchical(q):
        return False
    ao = q.atoms_of
    for a in q.free:
        for b in q.variables:
            if ao[a] < ao[b] and b not in q.free:
                return False
    return True


def _free_of_atoms(q: ConjunctiveQuery, keys: frozenset[AtomKey]) -> set[str]:
    out: set[str] = set()
    for k in keys:
        out.update(v for v in q.atom_by_key[k].schema if v in q.free)
    return out


def is_free_connex(q: ConjunctiveQuery) -> bool:
    """Single-atom cover test at every bound variable.

    For hierarchical queries the free-connex property holds exactly when, for
    each bound variable X, one atom of X covers all free variables occurring
    in the atoms of X.  Two free variables under X left uncovered by every
    single atom put a cycle into the hypergraph extended with the head atom.
    """
    require_hierarchical(q)
    ao = q.atoms_of
    for x in q.bound:
        free_around = _free_of_atoms(q, ao[x])
        if not free_around:
            continue
        if not any(free_around <= set(q.atom_by_key[k].schema) for k in ao[x]):
            return False
    return True


def delta_index(q: ConjunctiveQuery) -> int:
    """Least i such that, around every bound variable X and every atom
    R(Y) of X, i extra atoms cover free(atoms(X)) - Y.

    Exhaustive search over atom subsets; query-size exponential only.
    """
    require_hierarchical(q)
    ao = q.atoms_of
    worst = 0
    schemas = [a.schema for a in q.atoms]
    for x in q.bound:
        free_around = _free_of_atoms(q, ao[x])
        for k in ao[x]:
            target = free_around - set(q.atom_by_key[k].schema)
            worst = max(worst, len(min_cover(schemas, target)))
    return worst


def min_cover(schemas: list[tuple[str, ...]], target: set[str]) -> tuple[int, ...]:
    """Positions in ``schemas`` of the first subset whose variables cover
    ``target``: smaller sizes first, and within a size in
    ``itertools.combinations`` order over ``schemas`` as given, so the
    caller's order breaks ties.  ``()`` for an empty target."""
    for size in range(len(schemas) + 1):
        for combo in itertools.combinations(range(len(schemas)), size):
            if target <= set().union(*(schemas[i] for i in combo)):
                return combo
    raise UncoverableVariableError(f"no atom subset covers {sorted(target)}")


def connected_components(q: ConjunctiveQuery) -> list[ConjunctiveQuery]:
    """Partition the atoms by transitive variable sharing.

    Each component keeps the free variables it contains, in head order.
    """
    parent: dict[str, str] = {v: v for v in q.variables}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a in q.atoms:
        for v in a.schema[1:]:
            parent[find(v)] = find(a.schema[0])

    groups: dict[str, list[Atom]] = {}
    for a in q.atoms:
        groups.setdefault(find(a.schema[0]), []).append(a)
    comps = []
    for i, (_, atoms) in enumerate(sorted(groups.items(), key=lambda kv: min(a.name for a in kv[1]))):
        comp_vars = set().union(*(a.schema for a in atoms))
        head_vars = tuple(v for v in q.head_vars if v in comp_vars)
        comps.append(ConjunctiveQuery(f"{q.head_name}_{i}", head_vars, tuple(atoms)))
    return comps
