"""Canonical reduced ordered binary decision diagrams.

Nodes live in a per-manager store and are hash-consed through one unique
table per manager, with reduction (no node whose branches coincide)
applied eagerly at construction.  As a consequence two handles produced
by the same manager denote the same Boolean function if and only if they
are equal, which is what makes validity and satisfiability checks plain
comparisons against the terminals.  A node is always created after its
children, so its id exceeds theirs and ascending ids are a topological
order.

The unique table is an index completed on first lookup.  A builder that
proves its own nodes distinct from each other and from every older node
(`neuron.compile_pseudo` and `compose`'s graft) appends them to the store
only, leaving a pending suffix of ids that `Manager._index` puts into the
table before the next lookup: `_mk_id` (and so every `ite`, `condition`,
`literal` and `read_obdd`), `compose`, `audit` and the next
`compile_pseudo` call it first.  A diagram that is only counted, walked
or grafted from never pays for its entries.

Every combining operation is one memoized if-then-else, `ite`: conjunction,
disjunction, exclusive or and negation all reduce to it and share its
cache.  Substitution (`compose`) replaces a node testing variable k by
``ite(s_k, g, h)``, with g and h the substituted branches.  When every
variable of ``s_k`` comes before the top variables of both g and h, that
ite is ``s_k`` with its TRUE terminal replaced by g and its FALSE terminal
by h, so `compose` grafts g and h onto a copy of ``s_k`` in one pass over
its nodes, without the ite cache; otherwise it calls `ite`.  The copies are
ordered and reduced by construction, and a copy needs a lookup only when
both its children predate its graft, so they join the pending suffix.

There are no complement edges, so a negation is a diagram of its own.
Within a manager, node stores only grow, and an optional node budget
turns runaway growth into a `BudgetExceededError` instead of an
out-of-memory failure.  A manager lives exactly as long as a handle or
reference to it: it holds no handle of its own, so reference counting
frees it with the last one, without the cyclic collector.
This module owns that abort: every budget check raises the error that
`Manager._exhausted` builds, and callers name what they were building with
`during` instead of catching it.

A manager and every handle it produced must be confined to a single thread
of control at a time.  Distinct managers are fully independent and may be
used in parallel.  No operation ever mutates an existing diagram; the
unique table, its pending-suffix mark and the if-then-else cache are the
only mutable state besides the node store.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from .formats import PathOrFile, read_text, write_text


class OBDDError(Exception):
    """Base class for diagram construction and query errors."""


class BudgetExceededError(OBDDError):
    """The manager's node budget would be exceeded by this operation."""


@contextmanager
def during(what: str) -> Iterator[None]:
    """Raise a budget abort from the block again as ``"<abort> while <what>"``."""
    try:
        yield
    except BudgetExceededError as e:
        raise BudgetExceededError("%s while %s" % (e, what)) from e


#: A total assignment: one bit per variable, in variable order.
Instance = Sequence[int]

_BITS = frozenset((0, 1))


def _check_bits(bits: Iterable, what: str = "instance bits") -> None:
    """Refuse any bit but 0 or 1 (True, False and 1.0 pass) in one C-level set test."""
    try:
        ok = _BITS.issuperset(bits)
    except TypeError:  # an unhashable bit, such as a list
        ok = False
    if not ok:
        raise ValueError("%s must be 0 or 1" % what)


_OPS = ("and", "or", "xor")


class NodeRef:
    """Opaque handle to a diagram rooted in a manager's node store.

    Handles compare equal exactly when they come from the same manager and
    denote the same function.  The bitwise operators build new diagrams
    through the owning manager.  A handle also keeps, from the first query
    that needs them, its diagram's walk (`_reachable`), a PI explanation's
    certified releases, the last literal set proved to force a label and
    the unateness of its support variables, so later queries on it read
    them instead of walking again.  Diagrams never change and node ids are
    never reused, so all of them stay valid as the manager grows.  Equal
    handles made separately do not share them.
    """

    __slots__ = ("manager", "i", "_walk", "_releases", "_proof", "_unate")

    def __init__(self, manager: "Manager", i: int):
        self.manager = manager
        self.i = i
        self._walk: list[int] | None = None
        self._releases: tuple[list[int], list[int]] | None = None
        self._proof: tuple[tuple[tuple[int, int], ...], int] | None = None
        self._unate: dict[int, str] | None = None  # analysis.Unateness values

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NodeRef)
            and self.manager is other.manager
            and self.i == other.i
        )

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

    The one accessor for a diagram's walk: the first call walks
    (`_walk_from`) and keeps the order on ``f``, and every later call
    returns that same list, so callers must never mutate it.
    """
    order = f._walk
    if order is None:
        order = f._walk = _walk_from(f)
    return order


def _walk_from(f: NodeRef) -> list[int]:
    """The walk `_reachable` keeps, made anew: each node is queued once, when
    first met, onto the list being read, and the list is sorted once at the
    end, as a node's id exceeds its children's.

    The marking rule of every full walk over a handle's nodes: a node's id
    exceeds its children's, so every node ``f`` reaches has an id of at most
    ``f.i``, and a ``bytearray(f.i + 1)`` marks the visited ones; a pass
    that keeps a value per node (`_counts`, PI costs, path mass, the level
    chain) keeps it in a list of ``f.i + 1`` entries.  That costs ``f.i +
    1`` bytes (or list slots) per walk, even for a small diagram made late
    in a large manager, against about 50 bytes per reached node for a set
    of ids, and more for a dict.  Sorting the queued ids reuses the node
    store's int objects.  Sets and dicts stay where keys are not ids of at
    most ``f.i``: the exact PI pass's releases (newer than ``f``),
    `_implies` (pairs of ids), `read_obdd` (file ids) and `compile_pseudo`
    (residuals).  They also stay in the results of `compose`, where a list
    showed no clear gain on compiles, and of `Manager.condition`, often
    called on a small diagram in a large manager, and in `write_obdd`'s
    file ids.
    """
    if f.i <= 1:
        return []
    nodes = f.manager._nodes
    seen = bytearray(f.i + 1)
    # the terminals stop the walk without a test of their own
    seen[0] = seen[1] = seen[f.i] = 1
    order = [f.i]
    for u in order:
        _, lo, hi = nodes[u]
        if not seen[lo]:
            seen[lo] = 1
            order.append(lo)
        if not seen[hi]:
            seen[hi] = 1
            order.append(hi)
    order.sort()
    return order


def _counts(f: NodeRef) -> list[int]:
    """Models of each node over all of the manager's variables, indexed by id.

    One pass over `_reachable(f)`, children first.  TRUE counts
    ``2**num_vars``; a node testing v keeps half of each child's models,
    those that set v its way, and the halving is exact because a child at
    level k > v counts a multiple of ``2**k``.

    The list has ``f.i + 1`` entries, at least 2 for the terminals: the
    per-node values of `_walk_from`'s marking rule.  Entries of ids that
    ``f`` does not reach are 0 and meaningless.
    """
    nodes = f.manager._nodes
    count = [0] * (max(f.i, 1) + 1)
    count[1] = 1 << f.manager.num_vars
    for u in _reachable(f):
        _, lo, hi = nodes[u]
        count[u] = (count[lo] + count[hi]) >> 1
    return count


class Manager:
    """Node store, unique table and ite cache for diagrams over a fixed variable order.

    Variables are the integers ``0 .. num_vars-1``; every edge goes from a
    variable to a strictly larger variable or to a terminal.  The one
    unique table, ``_unique``, maps the ``(var, lo, hi)`` tuple held in the
    node store to the node's id, so a manager over any number of variables
    allocates nothing per variable.  The table holds every node except a
    pending suffix, the ids from ``_unindexed`` on (None when there is
    none), which `compile_pseudo` and `compose` leave there; `_index`
    completes it, and every lookup calls it first; `stats` counts both.
    ``node_budget``, when set, caps the total number of nodes ever
    allocated (terminals included).  Queries keep no state here: a
    diagram's walk is kept on its handle, and model counts are computed per
    call, over all the variables, in one pass over that walk.  `true` and
    `false` make a new handle on each access, so the manager holds none and
    is freed with its last handle or reference; compare them with ``==`` or
    `NodeRef.is_true`, never ``is``.
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
        # the tuple `_nodes` holds -> its id; see the class docstring
        self._unique: dict[tuple[int, int, int], int] = {}
        # first id of the suffix of nodes not in the table yet, or None; see `_index`
        self._unindexed: int | None = None
        self._ite_cache: dict[tuple[int, int, int], int] = {}

    def __repr__(self) -> str:
        return "<Manager vars=%d nodes=%d>" % (self.num_vars, len(self._nodes))

    @property
    def false(self) -> NodeRef:
        """The FALSE terminal, as a new handle on each access."""
        return NodeRef(self, 0)

    @property
    def true(self) -> NodeRef:
        """The TRUE terminal, as a new handle on each access."""
        return NodeRef(self, 1)

    @property
    def allocated(self) -> int:
        """Total nodes ever created, terminals included."""
        return len(self._nodes)

    def stats(self) -> dict[str, int]:
        """Structural counts, computed on call from the manager's state.

        ``allocated`` nodes (terminals included), of them ``pending`` in the
        suffix the unique table does not hold yet and ``indexed`` in the
        table (every other nonterminal), and ``ite_entries`` in the
        if-then-else cache.
        """
        allocated = len(self._nodes)
        start = self._unindexed
        return {
            "allocated": allocated,
            "pending": 0 if start is None else allocated - start,
            "indexed": len(self._unique),
            "ite_entries": len(self._ite_cache),
        }

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
        if self._unindexed is not None:
            self._index()
        key = (var, lo, hi)
        u = self._unique.get(key)
        if u is None:
            u = len(nodes)
            if self.node_budget is not None and u >= self.node_budget:
                raise self._exhausted()
            nodes.append(key)
            self._unique[key] = u
        return u

    def _index(self) -> None:
        """Complete the unique table: put the pending suffix of nodes, from id
        ``_unindexed`` on, into it, in id order."""
        start = self._unindexed
        if start is None:
            return
        self._unindexed = None
        nodes, unique = self._nodes, self._unique
        for u in range(start, len(nodes)):
            unique[nodes[u]] = u

    def _exhausted(self, cells: int | None = None) -> BudgetExceededError:
        """The error every budget check raises; ``cells`` counts the work items
        of a table that exceeds the budget before any node is allocated."""
        text = "node budget of %d exhausted" % self.node_budget
        return BudgetExceededError(text if cells is None else "%s (%d cells)" % (text, cells))

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
        """Restrict ``f`` by fixing one variable; the result never mentions it.

        One pass over the kept walk (`_reachable`), children first, rebuilds
        through `_mk_id` each node above ``var``, the only nodes it changes.
        """
        self._own(f)
        if not 0 <= var < self.num_vars:
            raise ValueError("variable %d out of range" % var)
        if value not in (0, 1):
            raise ValueError("value must be 0 or 1")
        nodes = self._nodes
        mk = self._mk_id
        res: dict[int, int] = {}

        def cut(u: int) -> int:
            v, lo, hi = nodes[u]
            if v < var:
                return res[u]
            if v == var:
                return hi if value else lo
            return u

        for u in _reachable(f):
            v, lo, hi = nodes[u]
            if v < var:
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
        h, built from a plan of s's nodes made once per distinct s.  The
        copies are ordered and reduced, so they skip `_mk_id`'s checks, and
        they are appended as the pending suffix, out of the unique table:
        only a copy whose two children predate its graft is looked up, the
        first copies above the terminals of s.  A budget abort leaves the copies
        made so far pending and the manager usable.
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
        self._index()  # the graft's lookups must see earlier calls' pending nodes
        nodes, unique, budget = self._nodes, self._unique, self.node_budget
        start = len(nodes)  # ids from here on are this call's copies
        # the pending copies made since the last `_index` after a lookup missed
        made: dict[tuple[int, int, int], int] = {}
        src_nodes = src._nodes
        # per distinct substituent id: its deepest variable and its nodes as
        # (var, lo, hi) steps, children first, lo and hi indexing [FALSE, TRUE, steps...]
        grafts: dict[int, tuple[int, list[tuple[int, int, int]]]] = {}
        res = {0: 0, 1: 1}
        for u in _reachable(f):
            k, lo, hi = src_nodes[u]
            s = subs[k].i
            g = res[hi]
            h = res[lo]
            if s > 1 and g != h:
                plan = grafts.get(s)
                if plan is None:
                    pos = {0: 0, 1: 1}
                    steps = []
                    for w in _reachable(subs[k]):
                        v, a, b = nodes[w]
                        steps.append((v, pos[a], pos[b]))
                        pos[w] = len(pos)
                    plan = grafts[s] = (max(steps)[0], steps)
                deepest, steps = plan
                if deepest < nodes[g][0] and deepest < nodes[h][0]:
                    # Copies skip _mk_id's checks, which cannot fail here: every
                    # variable of s comes before the top variables of g and h, so
                    # each copy is ordered, and g != h makes the map from s's
                    # nodes to copies injective, so no copy has lo == hi.
                    # Copies are appended pending, not in the table.  One with a
                    # child made in this step (from `mark` on) is new, as no older
                    # node has a newer child.  One whose children both predate the
                    # step is looked up in the table, complete up to the last
                    # `_index`, then in `made`.  A hit made by this call may lead
                    # on to a copy that an earlier step made new, in neither
                    # index, so it completes the table first.
                    mark = w = len(nodes)  # w: the next copy's id
                    if self._unindexed is None:
                        self._unindexed = mark
                    new = [h, g]
                    for v, a, b in steps:
                        lo = new[a]
                        hi = new[b]
                        key = (v, lo, hi)
                        if lo < mark and hi < mark:
                            found = unique.get(key) or made.get(key)
                            if found is not None:
                                if found >= start:
                                    self._index()
                                    made.clear()
                                    self._unindexed = w
                                new.append(found)
                                continue
                            made[key] = w
                        if budget is not None and w >= budget:
                            if self._unindexed == w:
                                self._unindexed = None  # nothing pending
                            raise self._exhausted()
                        nodes.append(key)
                        new.append(w)
                        w += 1
                    res[u] = new[-1]  # s has the largest id of its nodes
                    continue
            res[u] = self._ite_id(s, g, h)
        if self._unindexed == len(nodes):
            self._unindexed = None  # nothing pending
        return NodeRef(self, res[f.i])

    # ------------------------------------------------------------- queries

    def evaluate(self, f: NodeRef, x: Instance) -> int:
        """Follow the branch selected by each tested variable; 0 or 1.

        Only the bits the path reads are checked, unlike the `analysis`
        queries, which refuse any bad bit before walking: an eager
        `_check_bits` of the whole instance made 200 images through a
        compiled 16x16 network's two outputs take 10.2-10.4 ms against
        8.7-8.8 ms (best of 40, Python 3.11, one 2-vCPU Xeon core).
        """
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

        Variables skipped by reduction or above the root are counted as
        free.  Arbitrary precision: the result may be as large as
        ``2**num_vars``; FALSE counts 0 without that count of TRUE.
        """
        if self._own(f).i == 0:
            return 0
        return _counts(f)[f.i]

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
        self._own(f)
        self._index()
        nodes = self._nodes
        for u in _reachable(f):
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
    nodes = mgr._nodes
    order: list[int] = []
    # the marking rule of `_walk_from`: 0 not met, 1 children pushed, 2 listed
    state = bytearray(max(f.i, 1) + 1)
    state[0] = state[1] = 2  # the terminals are never listed
    stack = [f.i]
    while stack:
        u = stack.pop()
        if state[u] == 1:
            state[u] = 2
            order.append(u)
        elif not state[u]:
            state[u] = 1
            _, lo, hi = nodes[u]
            stack.append(u)
            stack.append(hi)
            stack.append(lo)
    ids = {0: 0, 1: 1}
    for k, u in enumerate(order):
        ids[u] = k + 2
    lines = ["obdd n=%d root=%d" % (mgr.num_vars, ids[f.i])]
    for u in order:
        var, lo, hi = nodes[u]
        lines.append("%d %d %d %d" % (ids[u], var, ids[lo], ids[hi]))
    write_text(dest, "\n".join(lines) + "\n")


def read_obdd(src: PathOrFile, manager: Manager | None = None) -> NodeRef:
    """Parse the text format back into a canonical diagram.

    When ``manager`` is given its variable count must match the file; this
    allows round-trip comparisons against handles built in that manager.
    """
    lines = iter(read_text(src).split("\n"))
    for head in lines:
        head = head.strip()
        if head and head[0] != "#":
            break
    else:
        raise ValueError("empty diagram file")
    m = _HEADER.match(head)
    if m is None:
        raise ValueError("bad header: %r" % head)
    n, root = int(m.group(1)), int(m.group(2))
    if manager is None:
        manager = Manager(n)
    elif manager.num_vars != n:
        raise ValueError(
            "file has %d variables, manager has %d" % (n, manager.num_vars)
        )
    mk = manager._mk_id
    refs = {0: 0, 1: 1}
    for ln in lines:
        parts = ln.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 4:
            raise ValueError("bad node line: %r" % ln.strip())
        ident, var, lo, hi = map(int, parts)
        if ident in refs:
            raise ValueError("duplicate node id %d" % ident)
        if lo not in refs or hi not in refs:
            raise ValueError("node %d references an undefined child" % ident)
        if not 0 <= var < n:
            raise ValueError("node %d labeled with bad variable %d" % (ident, var))
        refs[ident] = mk(var, refs[lo], refs[hi])
    if root not in refs:
        raise ValueError("root id %d is not defined" % root)
    return NodeRef(manager, refs[root])
