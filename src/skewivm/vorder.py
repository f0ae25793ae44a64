"""Variable orders and width measures.

Builds the canonical variable order of a hierarchical query, the free-top
transform of it, and evaluates the width measures that drive the engine's
cost exponents: the integral/fractional edge cover rho, the static width w,
the dynamic width delta, and the auxiliary measures xi (preprocessing) and
kappa (maintenance).

For hierarchical queries the integral and fractional edge cover numbers
coincide, so rho* is computed by exhaustive subset search; widths are query
complexity and queries are desk-sized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCanonicalError
from .query import Atom, ConjunctiveQuery, connected_components, min_cover, require_hierarchical

Node = object  # a variable name (str) or an Atom


class VariableOrder:
    """A forest whose inner nodes are variables and whose leaves are atoms."""

    def __init__(self, query: ConjunctiveQuery, roots: list[Node],
                 children: dict[Node, list[Node]]):
        self.query = query
        self.roots = roots
        self.children = children
        self.parent: dict[Node, Node | None] = {}
        for r in roots:
            self.parent[r] = None
        for p, kids in children.items():
            for k in kids:
                self.parent[k] = p

    # -- navigation ----------------------------------------------------

    def kids(self, node: Node) -> list[Node]:
        return self.children.get(node, [])

    def anc(self, node: Node) -> tuple[str, ...]:
        """Ancestor variables from the root down to (excluding) ``node``."""
        out: list[str] = []
        p = self.parent.get(node)
        while p is not None:
            out.append(p)  # parents are always variables
            p = self.parent.get(p)
        out.reverse()
        return tuple(out)

    def has_sibling(self, node: Node) -> bool:
        p = self.parent.get(node)
        return p is not None and len(self.children[p]) > 1

    def subtree_nodes(self, node: Node) -> list[Node]:
        out: list[Node] = []
        stack = [node]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(reversed(self.kids(n)))
        return out

    def subtree_vars(self, node: Node) -> list[str]:
        return [n for n in self.subtree_nodes(node) if isinstance(n, str)]

    def subtree_atoms(self, node: Node) -> list[Atom]:
        return [n for n in self.subtree_nodes(node) if isinstance(n, Atom)]

    def variables(self) -> list[str]:
        return [v for r in self.roots for v in self.subtree_vars(r)]

    def atoms(self) -> list[Atom]:
        return [a for r in self.roots for a in self.subtree_atoms(r)]

    def depth(self, node: Node) -> int:
        return len(self.anc(node))

    def dep(self, x: str) -> frozenset[str]:
        """Ancestors of ``x`` that share an atom with a variable in the
        subtree rooted at ``x``."""
        below = set(self.subtree_vars(x))
        out = set()
        ao = self.query.atoms_of
        for a in self.anc(x):
            if any(ao[a] & ao[b] for b in below):
                out.add(a)
        return frozenset(out)

    # -- validity flags --------------------------------------------------

    def is_valid(self) -> bool:
        """Atom variables lie on the atom's root path; atoms sit at their
        lowest variable."""
        placed = {a.key for a in self.atoms()}
        if placed != {a.key for a in self.query.atoms}:
            return False
        for a in self.query.atoms:
            node = self._find_atom(a)
            path = set(self.anc(node))
            if not set(a.schema) <= path:
                return False
            parent = self.parent[node]
            if parent is not None and parent not in a.schema and a.schema:
                return False
        return True

    def _find_atom(self, a: Atom) -> Atom:
        for node in self.parent:
            if isinstance(node, Atom) and node.key == a.key:
                return node
        raise KeyError(a.key)

    def is_canonical(self) -> bool:
        """Each leaf atom's schema equals exactly its root path."""
        if not self.is_valid():
            return False
        for a in self.query.atoms:
            node = self._find_atom(a)
            if set(a.schema) != set(self.anc(node)):
                return False
        return True

    def is_free_top(self) -> bool:
        free = self.query.free
        for v in self.variables():
            if v not in free and any(b in free for b in self.subtree_vars(v) if b != v):
                return False
        return True


# ---------------------------------------------------------------------------
# Canonical and free-top orders
# ---------------------------------------------------------------------------


def canonical_vo(q: ConjunctiveQuery) -> VariableOrder:
    """Canonical variable order of a hierarchical query.

    Variables are ordered by strict containment of their atom sets; variables
    with identical atom sets are chained lexicographically; each atom hangs
    under its lowest variable.  Unique up to those lexicographic tie-breaks.
    """
    require_hierarchical(q)
    roots: list[Node] = []
    children: dict[Node, list[Node]] = {}
    for comp in connected_components(q):
        ao = comp.atoms_of
        groups: dict[frozenset, list[str]] = {}
        for v in comp.variables:
            groups.setdefault(ao[v], []).append(v)
        for g in groups.values():
            g.sort()
        keys = sorted(groups, key=lambda k: (-len(k), sorted(k)))
        # parent group = smallest proper superset (supersets form a chain)
        top_of: dict[frozenset, str] = {k: groups[k][0] for k in keys}
        bottom_of: dict[frozenset, str] = {k: groups[k][-1] for k in keys}
        for k in keys:
            chain = groups[k]
            for upper, lower in zip(chain, chain[1:]):
                children.setdefault(upper, []).append(lower)
            supersets = [k2 for k2 in keys if k < k2]
            if not supersets:
                roots.append(chain[0])
            else:
                parent_key = min(supersets, key=len)
                children.setdefault(bottom_of[parent_key], []).append(chain[0])
        for a in comp.atoms:
            lowest = bottom_of[ao[a.schema[0]] if len(a.schema) == 1 else _atom_group(ao, a)]
            children.setdefault(lowest, []).append(q.atom_by_key[a.key])
    _sort_children(children)
    return VariableOrder(q, roots, children)


def _atom_group(ao: dict[str, frozenset], a: Atom) -> frozenset:
    """Atom set of the lowest variable of ``a`` (the smallest atom set)."""
    return min((ao[v] for v in a.schema), key=len)


def _sort_children(children: dict[Node, list[Node]]) -> None:
    for kids in children.values():
        kids.sort(key=lambda n: (1, str(n)) if isinstance(n, Atom) else (0, n))


def free_top(vo: VariableOrder) -> VariableOrder:
    """Free-top transform of a canonical variable order.

    Every highest bound variable with free descendants gets its subtree
    replaced by the path of the subtree's free variables (subtree partial
    order, lexicographic tie-break) followed by the restriction of the
    subtree to its bound variables.
    """
    if not vo.is_canonical():
        raise NotCanonicalError("free_top needs a canonical variable order")
    q = vo.query
    free = q.free
    targets = [
        v for v in vo.variables()
        if v not in free
        and any(b in free for b in vo.subtree_vars(v))
        and all(a in free for a in vo.anc(v))
    ]
    children = {n: list(kids) for n, kids in vo.children.items()}
    roots = list(vo.roots)
    for x in targets:
        seq = _free_sequence(vo, x)
        spliced_roots = _restrict_to_bound(vo, x, children)
        # seq path, then the restricted subtree under the last free var
        parent = vo.parent[x]
        head = seq[0]
        for upper, lower in zip(seq, seq[1:]):
            children[upper] = [lower]
        children[seq[-1]] = spliced_roots
        if parent is None:
            roots[roots.index(x)] = head
        else:
            kids = children[parent]
            kids[kids.index(x)] = head
    out = VariableOrder(q, roots, children)
    return out


def _free_sequence(vo: VariableOrder, x: str) -> list[str]:
    """Free variables of the subtree at ``x`` in subtree partial order,
    lexicographic among currently-minimal elements."""
    frees = [v for v in vo.subtree_vars(x) if v in vo.query.free]
    remaining = set(frees)
    out: list[str] = []
    while remaining:
        minimal = [v for v in remaining
                   if not (set(vo.anc(v)) & remaining)]
        pick = min(minimal)
        out.append(pick)
        remaining.remove(pick)
    return out


def _restrict_to_bound(vo: VariableOrder, x: str,
                       children: dict[Node, list[Node]]) -> list[Node]:
    """Subtree of ``x`` with its free variables eliminated (children splice
    up to the eliminated node's parent).  Mutates ``children`` for the kept
    nodes and returns the resulting root list (rooted at ``x``; the root is
    bound so it is never eliminated)."""
    free = vo.query.free

    def build(node: Node) -> list[Node]:
        if isinstance(node, Atom):
            return [node]
        spliced: list[Node] = []
        for k in vo.kids(node):
            spliced.extend(build(k))
        if node in free:
            return spliced
        children[node] = spliced
        return [node]

    return build(x)


# ---------------------------------------------------------------------------
# Width measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCover:
    """An integral edge cover: chosen atoms, covered variables, and size."""

    atoms: tuple[Atom, ...]
    covered: frozenset[str]
    total: int


def integral_edge_cover(q: ConjunctiveQuery, target: set[str],
                        within: tuple[Atom, ...] | None = None) -> EdgeCover:
    """Minimum-cardinality atom subset covering ``target``.

    Exhaustive search in increasing size (:func:`~skewivm.query.min_cover`),
    atoms considered in name order so ties break deterministically.  For
    hierarchical queries this integral optimum equals the fractional edge
    cover number.
    """
    pool = sorted(within if within is not None else q.atoms, key=lambda a: a.name)
    combo = min_cover([a.schema for a in pool], target)
    return EdgeCover(tuple(pool[i] for i in combo), frozenset(target), len(combo))


def rho_star(q: ConjunctiveQuery, target: set[str],
             within: tuple[Atom, ...] | None = None) -> int:
    return integral_edge_cover(q, target, within).total


def order_static_width(vo: VariableOrder) -> int:
    """w(omega) = max over variables of rho*({X} u dep(X))."""
    q = vo.query
    return max(rho_star(q, {x} | set(vo.dep(x))) for x in vo.variables())


def order_dynamic_width(vo: VariableOrder) -> int:
    """delta(omega): like the static width but with one atom's schema
    dropped from each target set."""
    q = vo.query
    worst = 0
    for x in vo.variables():
        base = {x} | set(vo.dep(x))
        for a in vo.subtree_atoms(x):
            worst = max(worst, rho_star(q, base - set(a.schema)))
    return worst


def static_width(q: ConjunctiveQuery) -> int:
    """Width of the free-top transform of the canonical order.

    This matches every paper-stated value and upper-bounds the exponents the
    engine actually uses; global minimality over all free-top orders is not
    claimed.
    """
    require_hierarchical(q)
    return order_static_width(free_top(canonical_vo(q)))


def dynamic_width(q: ConjunctiveQuery) -> int:
    require_hierarchical(q)
    return order_dynamic_width(free_top(canonical_vo(q)))


def xi_measure(vo: VariableOrder, node: Node, free: set[str]) -> int:
    """Preprocessing measure: worst residual cover below ``node`` among
    variables whose root path leaves ``free``."""
    if isinstance(node, Atom):
        return 0
    atoms_here = tuple(vo.subtree_atoms(node))
    worst = 0
    for y in vo.subtree_vars(node):
        if set(vo.anc(y)) | {y} <= free:
            continue
        target = set(vo.subtree_vars(y)) & free
        worst = max(worst, rho_star(vo.query, target, within=atoms_here))
    return worst


def kappa_measure(vo: VariableOrder, free: set[str]) -> int:
    """Maintenance measure: worst cover of the free variables under a bound
    variable once one atom's schema is excluded."""
    worst = 0
    for x in vo.variables():
        if x in free:
            continue
        atoms_here = tuple(vo.subtree_atoms(x))
        below_free = set(vo.subtree_vars(x)) & free
        for a in atoms_here:
            target = below_free - set(a.schema)
            worst = max(worst, rho_star(vo.query, target, within=atoms_here))
    return worst
