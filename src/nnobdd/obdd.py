"""Canonical reduced ordered binary decision diagrams.

Nodes live in a per-manager store and are hash-consed through a unique
table, with reduction (no node whose branches coincide) applied eagerly at
construction.  As a consequence two handles produced by the same manager
denote the same Boolean function if and only if they are equal, which is
what makes validity and satisfiability checks plain comparisons against
the terminals.  A node is always created after its children, so its id
exceeds theirs and ascending ids are a topological order.

Every combining operation is one memoized if-then-else, `ite`: conjunction,
disjunction, exclusive or and negation all reduce to it and share its
cache.  Substitution (`compose`) replaces a node testing variable k by
``ite(s_k, g, h)``, with g and h the substituted branches.  When every
variable of ``s_k`` comes before the top variables of both g and h, that
ite is ``s_k`` with its TRUE terminal replaced by g and its FALSE terminal
by h, so `compose` grafts g and h onto a copy of ``s_k`` in one pass over
its nodes, without the ite cache; otherwise it calls `ite`.

There are no complement edges, so a negation is a diagram of its own.
There is no garbage collection; node stores only grow, which is fine at
the sizes this package targets, and an optional node budget turns runaway
growth into a `BudgetExceededError` instead of an out-of-memory failure.

A manager and every handle it produced must be confined to a single thread
of control at a time.  Distinct managers are fully independent and may be
used in parallel.  No operation ever mutates an existing diagram; the
operation caches are the only mutable state.
"""

from __future__ import annotations

import re
from typing import Sequence

from .formats import PathOrFile, opened


class OBDDError(Exception):
    """Base class for diagram construction and query errors."""


class BudgetExceededError(OBDDError):
    """The manager's node budget would be exceeded by this operation."""


#: A total assignment: one bit per variable, in variable order.
Instance = Sequence[int]

_OPS = ("and", "or", "xor")


class NodeRef:
    """Opaque handle to a diagram rooted in a manager's node store.

    Handles compare equal exactly when they come from the same manager and
    denote the same function.  The bitwise operators build new diagrams
    through the owning manager.
    """

    __slots__ = ("manager", "i")

    def __init__(self, manager: "Manager", i: int):
        self.manager = manager
        self.i = i

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NodeRef)
            and self.manager is other.manager
            and self.i == other.i
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((id(self.manager), self.i))

    def __and__(self, other: "NodeRef") -> "NodeRef":
        return self.manager.apply("and", self, other)

    def __or__(self, other: "NodeRef") -> "NodeRef":
        return self.manager.apply("or", self, other)

    def __xor__(self, other: "NodeRef") -> "NodeRef":
        return self.manager.apply("xor", self, other)

    def __invert__(self) -> "NodeRef":
        return self.manager.negate(self)

    @property
    def is_false(self) -> bool:
        return self.i == 0

    @property
    def is_true(self) -> bool:
        return self.i == 1

    @property
    def is_terminal(self) -> bool:
        return self.i <= 1

    def __repr__(self) -> str:
        if self.i == 0:
            return "<NodeRef FALSE>"
        if self.i == 1:
            return "<NodeRef TRUE>"
        var = self.manager._nodes[self.i][0]
        return "<NodeRef %d var=%d>" % (self.i, var)


def _reachable(f: NodeRef) -> list[int]:
    """Nonterminal nodes reachable from ``f``, children before parents.

    Each node is queued once, when first met, onto the list being read,
    and the list is sorted once at the end: a node's id exceeds its
    children's.
    """
    if f.i <= 1:
        return []
    nodes = f.manager._nodes
    seen = {0, 1, f.i}  # the terminals stop the walk without a test of their own
    order = [f.i]
    for u in order:
        _, lo, hi = nodes[u]
        if lo not in seen:
            seen.add(lo)
            order.append(lo)
        if hi not in seen:
            seen.add(hi)
            order.append(hi)
    order.sort()
    return order


class Manager:
    """Node store plus operation caches for diagrams over a fixed variable order.

    Variables are the integers ``0 .. num_vars-1``; every edge goes from a
    variable to a strictly larger variable or to a terminal.  ``node_budget``,
    when set, caps the total number of nodes ever allocated (terminals
    included).
    """

    def __init__(self, num_vars: int, node_budget: int | None = None):
        if num_vars < 0:
            raise ValueError("variable count must be nonnegative")
        if node_budget is not None and node_budget < 2:
            raise ValueError("node budget must allow at least the terminals")
        self.num_vars = num_vars
        self.node_budget = node_budget
        # id 0 is FALSE, id 1 is TRUE; terminals sit at sentinel level num_vars
        self._nodes: list[tuple[int, int, int]] = [
            (num_vars, 0, 0),
            (num_vars, 1, 1),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._count_cache: dict[int, int] = {}
        self.false = NodeRef(self, 0)
        self.true = NodeRef(self, 1)

    def __repr__(self) -> str:
        return "<Manager vars=%d nodes=%d>" % (self.num_vars, len(self._nodes))

    @property
    def allocated(self) -> int:
        """Total nodes ever created, terminals included."""
        return len(self._nodes)

    # ---------------------------------------------------------------- core

    def _own(self, f: NodeRef) -> NodeRef:
        if not isinstance(f, NodeRef) or f.manager is not self:
            raise ValueError("handle does not belong to this manager")
        return f

    def _mk_id(self, var: int, lo: int, hi: int) -> int:
        """Hash-consed, reduced node constructor (internal id form)."""
        if lo == hi:
            return lo
        nodes = self._nodes
        if var >= nodes[lo][0] or var >= nodes[hi][0]:
            raise OBDDError("ordering violation at variable %d" % var)
        key = (var, lo, hi)
        u = self._unique.get(key)
        if u is None:
            u = len(nodes)
            if self.node_budget is not None and u >= self.node_budget:
                raise BudgetExceededError(
                    "node budget of %d exhausted" % self.node_budget
                )
            nodes.append(key)
            self._unique[key] = u
        return u

    def charge_cells(self, count: int) -> None:
        """Raise if ``count`` work items already exceed the node budget.

        Construction algorithms that build tables before allocating nodes
        use this so the budget also bounds their intermediate state.
        """
        if self.node_budget is not None and count > self.node_budget:
            raise BudgetExceededError(
                "node budget of %d exhausted (%d cells)" % (self.node_budget, count)
            )

    # ------------------------------------------------------------ building

    def literal(self, var: int, positive: bool = True) -> NodeRef:
        """Diagram of a single variable or its negation."""
        if not 0 <= var < self.num_vars:
            raise ValueError(
                "variable %d out of range for %d variables" % (var, self.num_vars)
            )
        if positive:
            return NodeRef(self, self._mk_id(var, 0, 1))
        return NodeRef(self, self._mk_id(var, 1, 0))

    def apply(self, op: str, f: NodeRef, g: NodeRef) -> NodeRef:
        """Combine two diagrams with a binary Boolean connective."""
        op = op.lower()
        if op not in _OPS:
            raise ValueError("unsupported operation %r" % op)
        a, b = self._own(f).i, self._own(g).i
        if op == "and":
            return NodeRef(self, self._ite_id(a, b, 0))
        if op == "or":
            return NodeRef(self, self._ite_id(a, 1, b))
        return NodeRef(self, self._ite_id(a, self._ite_id(b, 0, 1), b))

    def negate(self, f: NodeRef) -> NodeRef:
        """Complement a diagram; an involution on handles."""
        return NodeRef(self, self._ite_id(self._own(f).i, 0, 1))

    def ite(self, i: NodeRef, t: NodeRef, e: NodeRef) -> NodeRef:
        """If-then-else: ``(i and t) or (not i and e)``."""
        self._own(i)
        self._own(t)
        self._own(e)
        return NodeRef(self, self._ite_id(i.i, t.i, e.i))

    def _ite_id(self, f: int, g: int, h: int) -> int:
        """The one memoized combining operation; every connective reduces to it."""
        if f <= 1:
            return g if f else h
        if g == f:
            g = 1
        if h == f:
            h = 0
        if g == h:
            return g
        if h == 0:
            if g == 1:
                return f
            if f > g:  # f & g and g & f share one key
                f, g = g, f
        elif g == 1 and f > h:  # likewise f | h and h | f
            f, h = h, f
        key = (f, g, h)
        r = self._ite_cache.get(key)
        if r is None:
            nodes = self._nodes
            vf, f0, f1 = nodes[f]
            vg, g0, g1 = nodes[g]
            vh, h0, h1 = nodes[h]
            v = vf
            if vg < v:
                v = vg
            if vh < v:
                v = vh
            if vf != v:
                f0 = f1 = f
            if vg != v:
                g0 = g1 = g
            if vh != v:
                h0 = h1 = h
            r = self._mk_id(v, self._ite_id(f0, g0, h0), self._ite_id(f1, g1, h1))
            self._ite_cache[key] = r
        return r

    def condition(self, f: NodeRef, var: int, value: int) -> NodeRef:
        """Restrict ``f`` by fixing one variable; the result never mentions it."""
        self._own(f)
        if not 0 <= var < self.num_vars:
            raise ValueError("variable %d out of range" % var)
        if value not in (0, 1):
            raise ValueError("value must be 0 or 1")
        nodes = self._nodes
        mk = self._mk_id
        # the nodes above var that f reaches without passing var; only they change
        above = [f.i] if nodes[f.i][0] < var else []
        seen = set(above)
        for u in above:
            _, lo, hi = nodes[u]
            if lo not in seen and nodes[lo][0] < var:
                seen.add(lo)
                above.append(lo)
            if hi not in seen and nodes[hi][0] < var:
                seen.add(hi)
                above.append(hi)
        above.sort()  # a node's id exceeds its children's
        res: dict[int, int] = {}

        def cut(u: int) -> int:
            v, lo, hi = nodes[u]
            if v < var:
                return res[u]
            if v == var:
                return hi if value else lo
            return u

        for u in above:
            v, lo, hi = nodes[u]
            res[u] = mk(v, cut(lo), cut(hi))
        return NodeRef(self, cut(f.i))

    def compose(self, f: NodeRef, subs: Sequence[NodeRef]) -> NodeRef:
        """Substitute a diagram of this manager for every variable of ``f``.

        ``f`` may come from a different (placeholder) manager; ``subs[k]``
        replaces its variable ``k``.  For every instance x of this manager,
        the result evaluates to f applied to the evaluations of the
        substituents at x.

        One children-first loop over the nodes of ``f``: a node ``(k, lo,
        hi)`` becomes ``ite(s, g, h)`` with ``s = subs[k]`` and g, h the
        results for hi and lo.  When s is not a terminal, g differs from h
        and the deepest variable of s comes before the top variables of
        both g and h, the result is s with TRUE replaced by g and FALSE by
        h, built in one children-first pass over the nodes of s.
        """
        if not isinstance(f, NodeRef):
            raise ValueError("expected a NodeRef")
        src = f.manager
        if len(subs) != src.num_vars:
            raise ValueError(
                "arity mismatch: %d substituents for %d variables"
                % (len(subs), src.num_vars)
            )
        for s in subs:
            self._own(s)
        nodes = self._nodes
        src_nodes = src._nodes
        mk = self._mk_id
        # per distinct substituent id: (deepest variable, its nodes children first)
        grafts: dict[int, tuple[int, list[int]]] = {}
        res = {0: 0, 1: 1}
        for u in _reachable(f):
            k, lo, hi = src_nodes[u]
            s = subs[k].i
            g = res[hi]
            h = res[lo]
            if s > 1 and g != h:
                plan = grafts.get(s)
                if plan is None:
                    order = _reachable(subs[k])
                    plan = grafts[s] = (max(nodes[w][0] for w in order), order)
                deepest, order = plan
                if deepest < nodes[g][0] and deepest < nodes[h][0]:
                    new = {0: h, 1: g}
                    for w in order:
                        v, wlo, whi = nodes[w]
                        new[w] = mk(v, new[wlo], new[whi])
                    res[u] = new[s]
                    continue
            res[u] = self._ite_id(s, g, h)
        return NodeRef(self, res[f.i])

    # ------------------------------------------------------------- queries

    def evaluate(self, f: NodeRef, x: Instance) -> int:
        """Follow the branch selected by each tested variable; 0 or 1."""
        self._own(f)
        if len(x) != self.num_vars:
            raise ValueError(
                "instance has %d bits, expected %d" % (len(x), self.num_vars)
            )
        nodes = self._nodes
        u = f.i
        while u > 1:
            var, lo, hi = nodes[u]
            bit = x[var]
            if bit == 1:
                u = hi
            elif bit == 0:
                u = lo
            else:
                raise ValueError("instance bits must be 0 or 1")
        return u

    def model_count(self, f: NodeRef) -> int:
        """Exact number of satisfying assignments over all the variables.

        Variables skipped by reduction are counted as free.  Arbitrary
        precision: the result may be as large as ``2**num_vars``.
        """
        return self._count_id(self._own(f).i) << self._nodes[f.i][0]

    def _count_id(self, u: int) -> int:
        """Models over the variables from this node's level to the end.

        Fills ``_count_cache`` for every uncached node below ``u``, children
        first, without recursion, so no diagram depth can overflow the
        interpreter stack.  The walk is `_reachable`'s, with cached nodes
        stopping it like terminals.
        """
        cache = self._count_cache
        if u <= 1 or u in cache:
            return cache.get(u, u)
        nodes = self._nodes
        seen = {0, 1, u}
        todo = [u]
        for w in todo:
            _, lo, hi = nodes[w]
            if lo not in seen and lo not in cache:
                seen.add(lo)
                todo.append(lo)
            if hi not in seen and hi not in cache:
                seen.add(hi)
                todo.append(hi)
        todo.sort()  # a node's id exceeds its children's
        for w in todo:
            var, lo, hi = nodes[w]
            # a terminal's count is its own id
            cache[w] = (cache.get(lo, lo) << (nodes[lo][0] - var - 1)) + (
                cache.get(hi, hi) << (nodes[hi][0] - var - 1)
            )
        return cache[u]

    def is_valid(self, f: NodeRef) -> bool:
        return self._own(f).i == 1

    def is_sat(self, f: NodeRef) -> bool:
        return self._own(f).i != 0

    def node_count(self, f: NodeRef) -> int:
        """Distinct nonterminal nodes reachable from ``f``."""
        return len(_reachable(self._own(f)))

    def support(self, f: NodeRef) -> set[int]:
        """Variables actually tested somewhere in the diagram."""
        nodes = self._nodes
        return {nodes[u][0] for u in _reachable(self._own(f))}

    def audit(self, f: NodeRef) -> None:
        """Verify ordering, reducedness and hash-consing for all reachable nodes."""
        nodes = self._nodes
        for u in _reachable(self._own(f)):
            var, lo, hi = nodes[u]
            if not 0 <= var < self.num_vars:
                raise OBDDError("node %d labeled with bad variable %d" % (u, var))
            if lo == hi:
                raise OBDDError("node %d is not reduced" % u)
            if var >= nodes[lo][0] or var >= nodes[hi][0]:
                raise OBDDError("node %d violates the variable order" % u)
            if self._unique.get((var, lo, hi)) != u:
                raise OBDDError("node %d is not hash-consed" % u)


# ------------------------------------------------------------- text format
#
# Header line `obdd n=<vars> root=<id>`, then one line `<id> <var> <lo> <hi>`
# per nonterminal node.  Terminals are fixed as ids 0 (FALSE) and 1 (TRUE)
# and are never listed.  Nodes appear in a deterministic topological order
# (children first), so identical functions serialize to identical files.

_HEADER = re.compile(r"^obdd\s+n=(\d+)\s+root=(\d+)\s*$")


def write_obdd(f: NodeRef, dest: PathOrFile) -> None:
    """Serialize a diagram to the diffable text format."""
    mgr = f.manager
    order: list[int] = []
    seen = {0, 1}
    stack: list[tuple[int, bool]] = [(f.i, False)]
    while stack:
        u, expanded = stack.pop()
        if u in seen:
            continue
        if expanded:
            seen.add(u)
            order.append(u)
            continue
        _, lo, hi = mgr._nodes[u]
        stack.append((u, True))
        stack.append((hi, False))
        stack.append((lo, False))
    ids = {0: 0, 1: 1}
    for k, u in enumerate(order):
        ids[u] = k + 2
    with opened(dest, "w") as fp:
        fp.write("obdd n=%d root=%d\n" % (mgr.num_vars, ids[f.i]))
        for u in order:
            var, lo, hi = mgr._nodes[u]
            fp.write("%d %d %d %d\n" % (ids[u], var, ids[lo], ids[hi]))


def read_obdd(src: PathOrFile, manager: Manager | None = None) -> NodeRef:
    """Parse the text format back into a canonical diagram.

    When ``manager`` is given its variable count must match the file; this
    allows round-trip comparisons against handles built in that manager.
    """
    with opened(src) as fp:
        lines = [ln.strip() for ln in fp]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty diagram file")
    m = _HEADER.match(lines[0])
    if m is None:
        raise ValueError("bad header: %r" % lines[0])
    n, root = int(m.group(1)), int(m.group(2))
    if manager is None:
        manager = Manager(n)
    elif manager.num_vars != n:
        raise ValueError(
            "file has %d variables, manager has %d" % (n, manager.num_vars)
        )
    refs = {0: 0, 1: 1}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError("bad node line: %r" % ln)
        ident, var, lo, hi = (int(p) for p in parts)
        if ident in refs:
            raise ValueError("duplicate node id %d" % ident)
        if lo not in refs or hi not in refs:
            raise ValueError("node %d references an undefined child" % ident)
        if not 0 <= var < n:
            raise ValueError("node %d labeled with bad variable %d" % (ident, var))
        refs[ident] = manager._mk_id(var, refs[lo], refs[hi])
    if root not in refs:
        raise ValueError("root id %d is not defined" % root)
    return NodeRef(manager, refs[root])
