"""Independent reference implementations used to check the library.

Everything here works on explicit truth tables, exhaustive enumeration or
plain Shannon expansion, deliberately avoiding the code paths under test.
A truth table is a list of 2**n bits indexed so that bit k of the index is
the value of variable k.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from nnobdd import ConvStep, DenseStep, Manager, NodeRef
from nnobdd.obdd import _reachable


def bits_of(i: int, n: int) -> tuple[int, ...]:
    return tuple((i >> k) & 1 for k in range(n))


def index_of(bits) -> int:
    return sum(b << k for k, b in enumerate(bits))


def all_instances(n: int):
    for i in range(1 << n):
        yield bits_of(i, n)


# ------------------------------------------------------------ expressions
#
# Random formulas as tuples: ("lit", var, positive), ("not", a),
# ("and"|"or"|"xor", a, b).  They evaluate directly and can also be pushed
# through a manager to exercise its operations.


def random_formula(rng, n, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return ("lit", rng.randrange(n), rng.random() < 0.5)
    op = rng.choice(["and", "or", "xor", "not"])
    if op == "not":
        return ("not", random_formula(rng, n, depth - 1))
    return (op, random_formula(rng, n, depth - 1), random_formula(rng, n, depth - 1))


def eval_formula(expr, x) -> int:
    kind = expr[0]
    if kind == "lit":
        _, var, positive = expr
        return x[var] if positive else 1 - x[var]
    if kind == "not":
        return 1 - eval_formula(expr[1], x)
    a = eval_formula(expr[1], x)
    b = eval_formula(expr[2], x)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    return a ^ b


def build_formula(expr, manager):
    kind = expr[0]
    if kind == "lit":
        _, var, positive = expr
        return manager.literal(var, positive)
    if kind == "not":
        return manager.negate(build_formula(expr[1], manager))
    return manager.apply(
        kind, build_formula(expr[1], manager), build_formula(expr[2], manager)
    )


def formula_table(expr, n) -> list[int]:
    return [eval_formula(expr, bits_of(i, n)) for i in range(1 << n)]


def table_of(f, n) -> list[int]:
    """Exhaustive evaluation of a diagram (the semantic fingerprint)."""
    mgr = f.manager
    return [mgr.evaluate(f, bits_of(i, mgr.num_vars)) for i in range(1 << n)]


def set_walk(f) -> list[int]:
    """The nonterminals ``f`` reaches, ascending, marked in a set of ids."""
    nodes = f.manager._nodes
    seen = {0, 1}
    stack = [f.i]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(nodes[u][1:])
    return sorted(seen - {0, 1})


def depth_first_text(f) -> str:
    """The `write_obdd` text, by recursion, lo child first, over a dict of ids."""
    nodes = f.manager._nodes
    ids = {0: 0, 1: 1}
    lines = []

    def visit(u):
        if u not in ids:
            var, lo, hi = nodes[u]
            visit(lo)
            visit(hi)
            ids[u] = len(ids)
            lines.append("%d %d %d %d\n" % (ids[u], var, ids[lo], ids[hi]))

    visit(f.i)
    return "obdd n=%d root=%d\n" % (f.manager.num_vars, ids[f.i]) + "".join(lines)


def bdd_from_table(manager, table, variables=None):
    """Build a diagram for an explicit truth table via Shannon splits.

    Bit k of the table index is the value of ``variables[k]`` (by default
    variable k).
    """
    if variables is None:
        variables = range(manager.num_vars)

    def build(depth, tbl):
        if len(tbl) == 1:
            return manager.true if tbl[0] else manager.false
        lo = build(depth + 1, tbl[0::2])
        hi = build(depth + 1, tbl[1::2])
        return manager.ite(manager.literal(variables[depth]), hi, lo)

    return build(0, list(table))


def activation(unit, x) -> float:
    """A real unit's pre-activation value in float arithmetic, as training sees it."""
    assert len(x) == unit.arity
    return sum(w * b for w, b in zip(unit.weights, x)) + unit.bias


def compile_exact(unit, manager):
    """Reference compiler: memoized Shannon expansion on exact residuals.

    Takes a real unit (``weights``, ``bias``) or an integer one (``weights``,
    ``threshold``); real parameters are read at their printed decimal value
    with ``Fraction(str(v))``.  Level i tests input i.  Exponential in the
    worst case, so only for small arities.
    """
    root, _ = exact_cells(unit, manager)
    return NodeRef(manager, root)


def exact_cells(unit, manager):
    """`compile_exact`'s root id and its memo: the node id of every undecided
    ``(level, residual)`` cell reached from the threshold, each made by one
    `_mk_id` call (a reduced cell's id is its child's)."""
    n = len(unit.weights)
    assert manager.num_vars == n
    w = [Fraction(str(v)) for v in unit.weights]
    if hasattr(unit, "bias"):
        t0 = -Fraction(str(unit.bias))
    else:
        t0 = Fraction(unit.threshold)
    mins = [Fraction(0)] * (n + 1)
    maxs = [Fraction(0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        mins[i] = mins[i + 1] + min(w[i], 0)
        maxs[i] = maxs[i + 1] + max(w[i], 0)
    memo = {}

    def build(i, t):
        if t <= mins[i]:
            return 1
        if t > maxs[i]:
            return 0
        key = (i, t)
        if key not in memo:
            memo[key] = manager._mk_id(i, build(i + 1, t), build(i + 1, t - w[i]))
        return memo[key]

    return build(0, t0), memo


def residual_levels(unit) -> list[set[int]]:
    """Reference forward pass of the pseudo-polynomial compiler.

    The undecided residuals of each level of an integer unit, one set per
    level, built one residual at a time; no levels when the threshold alone
    decides the unit.
    """
    w, t0 = unit.weights, unit.threshold
    n = len(w)
    mins = [0] * (n + 1)
    maxs = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        mins[i] = mins[i + 1] + min(w[i], 0)
        maxs[i] = maxs[i + 1] + max(w[i], 0)
    if not mins[0] < t0 <= maxs[0]:
        return []
    levels = []
    cur = {t0}
    for i in range(n):
        levels.append(cur)
        nxt = set()
        for t in cur:
            for u in (t, t - w[i]):
                if mins[i + 1] < u <= maxs[i + 1]:
                    nxt.add(u)
        cur = nxt
    return levels


def check_unique_tables(manager) -> None:
    """No id of the pending suffix (from ``_unindexed`` on) sits in a table;
    then, once `_index` has completed them, every node id in
    ``2..allocated-1`` sits exactly once, under its own ``(var, lo, hi)``
    tuple, in its own variable's table; no table is empty or holds anything
    else."""
    nodes = manager._nodes
    start = manager._unindexed
    if start is not None:
        assert 2 <= start <= len(nodes), start
        for table in manager._unique.values():
            assert all(u < start for u in table.values()), start
    manager._index()
    assert manager._unindexed is None
    held = []
    for var, table in manager._unique.items():
        assert table, "variable %d has an empty table" % var
        for key, u in table.items():
            assert 2 <= u < len(nodes) and nodes[u] is key and key[0] == var, (var, key, u)
            held.append(u)
    assert sorted(held) == list(range(2, len(nodes)))


def index_spy(monkeypatch) -> list[int]:
    """Wrap `Manager._index` to record, per call, how many pending nodes it
    puts into the unique tables."""
    counts = []
    index = Manager._index

    def spy(manager):
        start = manager._unindexed
        counts.append(0 if start is None else len(manager._nodes) - start)
        index(manager)

    monkeypatch.setattr(Manager, "_index", spy)
    return counts


def covered_pixels(spec) -> set[int]:
    """Raster indices of the input pixels that a network's first layer reads."""
    h, w = spec.input_shape
    if not spec.layers or isinstance(spec.layers[0], DenseStep):
        return set(range(h * w))
    layer = spec.layers[0]
    if isinstance(layer, ConvStep):
        _, fh, fw = layer.filters[0].shape
    else:
        fh, fw = layer.window
    covered = set()
    for r0 in range(0, h - fh + 1, layer.stride):
        for c0 in range(0, w - fw + 1, layer.stride):
            for i in range(fh):
                for j in range(fw):
                    covered.add((r0 + i) * w + (c0 + j))
    return covered


def block_order(size, block):
    """Pixels block by block: block rows, block columns, then raster inside."""
    return tuple(
        (br + i) * size + bc + j
        for br in range(0, size, block)
        for bc in range(0, size, block)
        for i in range(block)
        for j in range(block)
    )


# ------------------------------------------------------------- robustness


def hamming_robustness(table, n) -> list:
    """r(x) for every instance, by multi-source BFS over the hypercube."""
    size = 1 << n
    dist = {0: [math.inf] * size, 1: [math.inf] * size}
    for target in (0, 1):
        d = dist[target]
        frontier = [i for i in range(size) if table[i] == target]
        for i in frontier:
            d[i] = 0
        steps = 0
        while frontier:
            nxt = []
            for i in frontier:
                for k in range(n):
                    j = i ^ (1 << k)
                    if d[j] > steps + 1:
                        d[j] = steps + 1
                        nxt.append(j)
            frontier = nxt
            steps += 1
    return [dist[0][i] if table[i] else dist[1][i] for i in range(size)]


def bottom_up_robustness(f, x):
    """r(x) by costing every node of ``f`` children first.

    The reference for diagrams too big for a truth table: the terminal
    opposite to x's label costs nothing, its own terminal is never left,
    and a node takes the cheaper of x's own branch and one flip to the
    other branch.  Variables skipped by reduction never need flipping.
    """
    mgr = f.manager
    if f.is_terminal:
        return math.inf
    label = mgr.evaluate(f, x)
    nodes = mgr._nodes
    cost = {1 - label: 0, label: math.inf}
    for u in _reachable(f):
        var, lo, hi = nodes[u]
        same, other = (hi, lo) if x[var] else (lo, hi)
        cost[u] = min(cost[same], 1 + cost[other])
    return cost[f.i]


def two_ite_level_chain(f, dilate=False) -> list[NodeRef]:
    """``f`` and its erosions (dilations) with two ITE calls at every node.

    The level recurrence without the unateness shortcut: ``E(u) = mk(v,
    E(lo) & hi, E(hi) & lo)`` and ``D(u) = mk(v, D(lo) | hi, D(hi) | lo)``,
    one children-first pass per level, until FALSE (TRUE).
    """
    mgr = f.manager
    nodes = mgr._nodes
    mk = mgr._mk_id
    ite = mgr._ite_id
    levels = [f]
    while True:
        nxt = {0: 0, 1: 1}
        for u in _reachable(levels[-1]):
            var, lo, hi = nodes[u]
            if dilate:
                nxt[u] = mk(var, ite(nxt[lo], 1, hi), ite(nxt[hi], 1, lo))
            else:
                nxt[u] = mk(var, ite(nxt[lo], hi, 0), ite(nxt[hi], lo, 0))
        g = nxt[levels[-1].i]
        if g == (1 if dilate else 0):
            return levels
        levels.append(NodeRef(mgr, g))


def mean_robustness(table, n) -> Fraction:
    values = hamming_robustness(table, n)
    return Fraction(sum(values), 1 << n)


def max_positive_robustness(table, n) -> int:
    values = hamming_robustness(table, n)
    return max(values[i] for i in range(1 << n) if table[i])


def robustness_counts(table, n, positive=True) -> dict[int, int]:
    values = hamming_robustness(table, n)
    counts: dict[int, int] = {}
    for i in range(1 << n):
        if bool(table[i]) == positive:
            counts[values[i]] = counts.get(values[i], 0) + 1
    return counts


# ------------------------------------------------------------ explanations


def min_sufficient_size(table, n, x) -> int:
    """Brute-force minimum cardinality of a label-forcing subset of x."""
    idx = index_of(x)
    label = table[idx]
    g = table if label else [1 - v for v in table]
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for var in combo:
                mask |= 1 << var
            base = idx & mask
            free = full ^ mask
            sub = free
            good = True
            while True:
                if not g[base | sub]:
                    good = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & free
            if good:
                return size
    raise AssertionError("an instance always forces its own label")


def forces_label(table, n, pairs, label) -> bool:
    """Whether fixing the given (var, bit) pairs forces the label everywhere."""
    mask = 0
    base = 0
    for var, bit in pairs:
        mask |= 1 << var
        base |= bit << var
    full = (1 << n) - 1
    free = full ^ mask
    sub = free
    while True:
        if table[base | sub] != label:
            return False
        if sub == 0:
            break
        sub = (sub - 1) & free
    return True


def recursive_pi_explanation(f, x) -> tuple[tuple[int, int], ...]:
    """PI-explanation literals by the memoized recursive dynamic program.

    At each node, the cheaper of committing the instance's literal and
    releasing the variable, whose release is the conjunction of the
    cofactors for label 1 and their disjunction for label 0; ties commit.
    Recursion depth grows with the diagram's, so only for small inputs.
    """
    mgr = f.manager
    label = mgr.evaluate(f, x)
    ite = mgr._ite_id
    nodes = mgr._nodes
    cost = {label: 0, 1 - label: math.inf}
    include = {}

    def release(lo, hi):
        return ite(lo, hi, 0) if label else ite(lo, 1, hi)

    def best(u):
        if u not in cost:
            var, lo, hi = nodes[u]
            committed = 1 + best(hi if x[var] else lo)
            released = best(release(lo, hi))
            include[u] = committed <= released
            cost[u] = min(committed, released)
        return cost[u]

    best(f.i)
    literals = []
    u = f.i
    while u > 1:
        var, lo, hi = nodes[u]
        if include[u]:
            literals.append((var, x[var]))
            u = hi if x[var] else lo
        else:
            u = release(lo, hi)
    return tuple(literals)


# ------------------------------------------------------ per-variable views


def tt_marginal(table, n, var) -> Fraction:
    num = sum(table[i] for i in range(1 << n) if (i >> var) & 1)
    den = sum(table)
    return Fraction(num, den)


def tt_unateness(table, n, var) -> str:
    bit = 1 << var
    up = down = changed = False
    for i in range(1 << n):
        if i & bit:
            continue
        lo, hi = table[i], table[i | bit]
        if lo != hi:
            changed = True
            if lo < hi:
                up = True
            else:
                down = True
    if not changed:
        return "unused"
    if not down:
        return "pos"
    if not up:
        return "neg"
    return "none"
