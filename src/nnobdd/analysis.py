"""Exact verification and explanation queries on compiled diagrams.

All quantities here are exact.  Counts are arbitrary-precision integers,
ratios are `fractions.Fraction`, and the robustness of a trivial function
is `math.inf` (a real sentinel, never a large integer, so it cannot
silently poison an average).

Instance robustness, fooling completions, marginals and unateness are
single passes over the nodes the diagram already has: they allocate no
nodes, never negate, condition or combine diagrams, and use explicit
stacks, so no diagram depth can raise `RecursionError`.  A query about the
negative label swaps the roles of the terminals instead of complementing
the diagram.  Node ids order a diagram's nodes children first, because a
node is always created after both of its children.

PI explanation walks without recursion of its own too, but it also visits
releases: conjunctions (or disjunctions) of a node's two cofactors, built
through `ite`, whose own calls still recurse.  A release of incomparable
cofactors can be built after the node that needs it, so ids do not order
that walk; variable levels do, since a release tests only deeper variables.

The robustness of an instance is the least number of input flips that
changes the classifier's label; the robustness of a whole function is
summarized by `RobustnessProfile`: exact per-level counts of how many
instances need exactly k flips, their sum of flips, and the normalizations
of that sum both by all 2**n instances and by the instances of the
polarity alone.  The per-level sets come from repeated erosion, which
peels away the instances that sit within one flip of the boundary in one
pass over the previous level's nodes; the negative label's levels come
from dilating the function instead of eroding its complement.

A sufficient reason for an instance is a minimum-cardinality subset of its
bits that forces the classification no matter how the remaining bits are
filled in; `fooling_complete` exploits exactly that guarantee to build
adversarial-looking completions that provably keep the label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .obdd import NodeRef, _reachable

POSITIVE = "positive"
NEGATIVE = "negative"
BOTH = "both"


class Unateness(str, Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"
    UNUSED = "unused"
    NONE = "none"


def _check_instance(x: Sequence[int], n: int) -> None:
    if len(x) != n:
        raise ValueError("instance has %d bits, expected %d" % (len(x), n))
    if any(b not in (0, 1) for b in x):
        raise ValueError("instance bits must be 0 or 1")


def _nontrivial(f: NodeRef) -> None:
    if f.is_terminal:
        raise ValueError("trivial function: every instance has infinite robustness")


def instance_robustness(f: NodeRef, x: Sequence[int]) -> int | float:
    """Least number of bit flips of ``x`` that changes the label; inf if trivial.

    One bottom-up pass over the diagram: the terminal opposite to the
    instance's label costs nothing more, its own label's terminal is never
    left, and at a decision node the choice is between following the
    instance's own branch and paying one flip to follow the other.
    Variables skipped by reduction never need flipping, so each node's
    cost is computed once.
    """
    _check_instance(x, f.manager.num_vars)
    if f.is_terminal:
        return math.inf
    return _robustness(f, _reachable(f), x)


def _robustness(f: NodeRef, order: list[int], x: Sequence[int]) -> int:
    """`instance_robustness` of a checked ``x``; ``order`` is `_reachable(f)`."""
    mgr = f.manager
    label = mgr.evaluate(f, x)
    nodes = mgr._nodes
    cost: dict[int, int | float] = {1 - label: 0, label: math.inf}
    for u in order:
        var, lo, hi = nodes[u]
        same, other = (hi, lo) if x[var] else (lo, hi)
        cost[u] = min(cost[same], 1 + cost[other])
    return cost[f.i]


def robust_sets(f: NodeRef) -> list[NodeRef]:
    """Diagrams of the positive instances with robustness >= k, for k = 1, 2, ...

    The first entry is ``f`` itself; each next level is the erosion of the
    previous one, keeping only instances that stay positive under any single
    flip.  The list stops before the first unsatisfiable level, which for a
    non-trivial function arrives after at most n steps.
    """
    return _level_chain(f, dilate=False)


def _level_chain(f: NodeRef, dilate: bool) -> list[NodeRef]:
    """``f`` and its repeated erosions (or dilations) until FALSE (or TRUE).

    Erosion keeps the instances whose every single flip satisfies the
    function, node by node ``E(u) = mk(v, E(lo) & hi, E(hi) & lo)``; a
    variable skipped by reduction never changes the value, so it imposes
    nothing.  Dilation is its dual ``D(u) = mk(v, D(lo) | hi, D(hi) | lo)``,
    adding every instance within one flip, and equals the complement of
    eroding the complement.  One children-first pass per level.
    """
    mgr = f.manager
    _nontrivial(f)
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


@dataclass(frozen=True)
class PolaritySummary:
    """Exact robustness tallies for the instances of one label."""

    polarity: str
    num_vars: int
    counts: tuple[tuple[int, int], ...]  # (k, number of instances with robustness k)

    @property
    def instance_count(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def flip_sum(self) -> int:
        """Total flips over the polarity's instances: sum of k * count(k)."""
        return sum(k * c for k, c in self.counts)

    @property
    def max_robustness(self) -> int:
        return max((k for k, c in self.counts if c), default=0)

    @property
    def mean_over_all(self) -> Fraction:
        """Flip sum normalized by all 2**n instances."""
        return Fraction(self.flip_sum, 2**self.num_vars)

    @property
    def mean_over_polarity(self) -> Fraction:
        """Flip sum normalized by the polarity's own instance count."""
        return Fraction(self.flip_sum, self.instance_count)


@dataclass(frozen=True)
class RobustnessProfile:
    num_vars: int
    positive: PolaritySummary | None
    negative: PolaritySummary | None

    @property
    def mr(self) -> Fraction:
        """Sum of flips over the covered polarities, normalized by 2**n."""
        total = 0
        for side in (self.positive, self.negative):
            if side is not None:
                total += side.flip_sum
        return Fraction(total, 2**self.num_vars)

    @property
    def maxr(self) -> int:
        return max(
            side.max_robustness
            for side in (self.positive, self.negative)
            if side is not None
        )


def polarity_summary(f: NodeRef, polarity: str) -> PolaritySummary:
    """Exact per-level robustness counts for one polarity of ``f``.

    The negative side dilates ``f`` instead of eroding its complement: the
    negative instances with robustness > k are those outside ``D^k(f)``.
    """
    mgr = f.manager
    n = mgr.num_vars
    if polarity == POSITIVE:
        levels = _level_chain(f, dilate=False)
        sizes = [mgr.model_count(level) for level in levels]
    elif polarity == NEGATIVE:
        levels = _level_chain(f, dilate=True)
        sizes = [2**n - mgr.model_count(level) for level in levels]
    else:
        raise ValueError("polarity must be 'positive' or 'negative'")
    sizes.append(0)  # the level after the last satisfiable one is empty
    counts = tuple(
        (k, sizes[k - 1] - sizes[k])
        for k in range(1, len(levels) + 1)
        if sizes[k - 1] - sizes[k]
    )
    return PolaritySummary(polarity, n, counts)


def model_robustness(f: NodeRef, polarity: str = BOTH) -> RobustnessProfile:
    """Exact robustness profile of a non-trivial function.

    ``polarity`` selects whose instances are tallied: the positive ones,
    the negative ones (levels from dilation rather than erosion), or both.
    """
    _nontrivial(f)
    if polarity not in (POSITIVE, NEGATIVE, BOTH):
        raise ValueError("polarity must be 'positive', 'negative' or 'both'")
    pos = polarity_summary(f, POSITIVE) if polarity in (POSITIVE, BOTH) else None
    neg = polarity_summary(f, NEGATIVE) if polarity in (NEGATIVE, BOTH) else None
    return RobustnessProfile(f.manager.num_vars, pos, neg)


def max_robustness(f: NodeRef) -> int:
    """Largest robustness among the positive instances.

    Equals the number of satisfiable robustness levels; the level chain can
    be abandoned as soon as one level empties out.
    """
    _nontrivial(f)
    return len(robust_sets(f))


# ------------------------------------------------------------ explanations


@dataclass(frozen=True)
class Explanation:
    """A minimum-cardinality sufficient reason for one classification."""

    literals: tuple[tuple[int, int], ...]  # (variable, bit), ascending variables
    label: int

    @property
    def cardinality(self) -> int:
        return len(self.literals)


def pi_explanation(f: NodeRef, x: Sequence[int]) -> Explanation:
    """Smallest subset of ``x`` that forces its classification.

    Minimizes over each decision variable the cheaper of keeping the
    instance's literal (one more committed bit) and releasing the variable
    entirely, which requires both cofactors to still force the label: their
    conjunction must reach TRUE for label 1, and by De Morgan their
    disjunction must reach FALSE for label 0.  Among equal-cardinality
    witnesses the lower-indexed variable is committed first, so the result
    is deterministic.

    Every node builds the conjunction of its cofactors, whatever the
    label, so both labels share one family of ITE entries.  When the
    conjunction is one of the cofactors they are ordered and the
    disjunction is the other one; only a label-0 query on incomparable
    cofactors also builds their disjunction.  Three steps without
    recursion: queue each node reached through an instance branch or a
    release once, cost them deepest variable first (not by id: a release
    may be newer than the node that needs it), then follow the cheaper
    choice down from the root.
    """
    mgr = f.manager
    _check_instance(x, mgr.num_vars)
    _nontrivial(f)
    label = mgr.evaluate(f, x)
    ite = mgr._ite_id
    nodes = mgr._nodes
    step: dict[int, tuple[int, int]] = {}  # node: (instance branch, release)
    seen = {0, 1, f.i}
    order = [f.i]
    for u in order:
        var, lo, hi = nodes[u]
        both = ite(lo, hi, 0)
        if label:
            release = both
        elif both == lo:
            release = hi
        elif both == hi:
            release = lo
        else:
            release = ite(lo, 1, hi)
        branch = hi if x[var] else lo
        step[u] = (branch, release)
        if branch not in seen:
            seen.add(branch)
            order.append(branch)
        if release not in seen:
            seen.add(release)
            order.append(release)
    order.sort(key=lambda u: nodes[u][0], reverse=True)  # both edges go deeper
    cost: dict[int, int | float] = {label: 0, 1 - label: math.inf}
    commit: dict[int, bool] = {}
    for u in order:
        branch, release = step[u]
        committed = 1 + cost[branch]
        released = cost[release]
        commit[u] = committed <= released
        cost[u] = min(committed, released)
    literals: list[tuple[int, int]] = []
    u = f.i
    while u > 1:
        branch, release = step[u]
        if commit[u]:
            var = nodes[u][0]
            literals.append((var, x[var]))
            u = branch
        else:
            u = release
    assert len(literals) == cost[f.i]
    return Explanation(tuple(literals), label)


def fooling_complete(
    f: NodeRef,
    reason: Explanation | Mapping[int, int],
    fill: Sequence[int],
) -> tuple[int, ...]:
    """Extend a sufficient reason with arbitrary filler bits.

    The filler may be crafted to *look* like the opposite class; because
    the reason already forces the classification, the returned instance is
    still classified the same way, which is verified before returning.
    Raises `ValueError` when the reason does not force a label.
    """
    mgr = f.manager
    _check_instance(fill, mgr.num_vars)
    pairs = dict(reason.literals if isinstance(reason, Explanation) else reason)
    for var, bit in pairs.items():
        if not 0 <= var < mgr.num_vars or bit not in (0, 1):
            raise ValueError("bad literal (%r, %r)" % (var, bit))
    label = _forced_label(f, pairs)
    out = tuple(pairs.get(v, fill[v]) for v in range(mgr.num_vars))
    assert mgr.evaluate(f, out) == label
    return out


def _forced_label(f: NodeRef, pairs: Mapping[int, int]) -> int:
    """The label that fixing ``pairs`` forces on ``f``, in one walk.

    Follows the fixed variables' branches and both branches of every free
    variable, collecting the terminals reached; the label is forced exactly
    when only one terminal is reachable.
    """
    nodes = f.manager._nodes
    seen: set[int] = set()
    reached: set[int] = set()
    stack = [f.i]
    while stack:
        u = stack.pop()
        if u <= 1:
            reached.add(u)
            if len(reached) == 2:
                raise ValueError("the given assignment is not a sufficient reason")
        elif u not in seen:
            seen.add(u)
            var, lo, hi = nodes[u]
            bit = pairs.get(var)
            if bit != 1:
                stack.append(lo)
            if bit != 0:
                stack.append(hi)
    (label,) = reached
    return label


# ------------------------------------------------------- per-variable views


def _marginals(f: NodeRef) -> list[Fraction]:
    """Probability that each variable is 1 among the satisfying instances.

    Darwiche's differential pass: bottom-up model counts (the manager's
    count cache) times top-down path mass give the models flowing along
    every edge.  The models through a node labelled v's high edge are those
    with v = 1; an edge that skips variables carries them with each skipped
    variable free, so half of its models set it to 1, which a difference
    array spreads over the skipped range.
    """
    mgr = f.manager
    if not mgr.is_sat(f):
        raise ValueError("marginals of an unsatisfiable function are undefined")
    nvars = mgr.num_vars
    nodes = mgr._nodes
    root_level = nodes[f.i][0]
    total = mgr._count_id(f.i) << root_level
    count = mgr._count_cache  # filled for every node below f by the line above
    on = [0] * nvars  # models through the high edges of each variable's nodes
    skipped = [0] * (nvars + 1)  # difference array of models on skipping edges
    skipped[0] = total  # the variables above the root are free
    skipped[root_level] -= total
    mass = {f.i: 1 << root_level}  # assignments above a node that reach it
    for u in reversed(_reachable(f)):
        var, lo, hi = nodes[u]
        m = mass.pop(u)
        for child in (lo, hi):
            if child == 0:
                continue
            level = nodes[child][0]
            gap = level - var - 1
            if child > 1:
                mass[child] = mass.get(child, 0) + (m << gap)
            flow = (m * count.get(child, child)) << gap  # TRUE counts 1
            if child == hi:
                on[var] += flow
            if gap:
                skipped[var + 1] += flow
                skipped[level] -= flow
    result = []
    running = 0
    for v in range(nvars):
        running += skipped[v]
        result.append(Fraction(on[v] + (running >> 1), total))
    return result


def marginal(f: NodeRef, var: int) -> Fraction:
    """Probability that ``var`` is 1 among the satisfying instances."""
    _check_var(f, var)
    return _marginals(f)[var]


def _implies(nodes: list[tuple[int, int, int]], memo: dict, a: int, b: int) -> bool:
    """Whether every model of node ``a`` is a model of node ``b``.

    Walks both diagrams in lockstep with an explicit stack; ``memo`` holds
    the answers for node pairs and may be shared between calls.
    """

    def known(a: int, b: int) -> bool | None:
        if a == 0 or b == 1 or a == b:
            return True
        if a == 1 or b == 0:  # the other side is neither terminal nor equal
            return False
        return memo.get((a, b))

    stack = [(a, b)]
    while stack:
        p, q = stack[-1]
        if known(p, q) is not None:
            stack.pop()
            continue
        vp, lp, hp = nodes[p]
        vq, lq, hq = nodes[q]
        v = vp if vp <= vq else vq
        p0, p1 = (lp, hp) if vp == v else (p, p)
        q0, q1 = (lq, hq) if vq == v else (q, q)
        r = known(p0, q0)
        if r is None:
            stack.append((p0, q0))
            continue
        if r:
            r = known(p1, q1)
            if r is None:
                stack.append((p1, q1))
                continue
        memo[(p, q)] = r
        stack.pop()
    return known(a, b)


def _unateness(f: NodeRef, only: int | None = None) -> list[Unateness]:
    """Unateness of every variable (or just ``only``) in one pass.

    A variable is positive exactly when ``lo => hi`` holds at every
    reachable node labelled with it, negative when ``hi => lo`` does, and
    unused when no reachable node is labelled with it.
    """
    mgr = f.manager
    nodes = mgr._nodes
    used = [False] * mgr.num_vars
    pos = [True] * mgr.num_vars
    neg = [True] * mgr.num_vars
    memo: dict[tuple[int, int], bool] = {}
    for u in _reachable(f):
        var, lo, hi = nodes[u]
        if only is not None and var != only:
            continue
        used[var] = True
        if pos[var] and not _implies(nodes, memo, lo, hi):
            pos[var] = False
        if neg[var] and not _implies(nodes, memo, hi, lo):
            neg[var] = False

    def label(v: int) -> Unateness:
        if not used[v]:
            return Unateness.UNUSED
        if pos[v]:
            return Unateness.POSITIVE
        if neg[v]:
            return Unateness.NEGATIVE
        return Unateness.NONE

    return [label(v) for v in range(mgr.num_vars)]


def unateness(f: NodeRef, var: int) -> Unateness:
    """How flipping ``var`` from 0 to 1 can move the output, if at all."""
    _check_var(f, var)
    return _unateness(f, var)[var]


def marginal_grid(
    f: NodeRef, height: int, width: int
) -> list[tuple[int, int, int, Fraction]]:
    """(var, row, col, marginal) rows for a raster-ordered pixel grid."""
    _check_grid(f, height, width)
    return _grid(_marginals(f), width)


def unateness_grid(
    f: NodeRef, height: int, width: int
) -> list[tuple[int, int, int, Unateness]]:
    """(var, row, col, unateness) rows for a raster-ordered pixel grid."""
    _check_grid(f, height, width)
    return _grid(_unateness(f), width)


def _grid(values: list, width: int) -> list[tuple]:
    return [(v, v // width, v % width, value) for v, value in enumerate(values)]


def _check_var(f: NodeRef, var: int) -> None:
    if not 0 <= var < f.manager.num_vars:
        raise ValueError("variable %d out of range" % var)


def _check_grid(f: NodeRef, height: int, width: int) -> None:
    if height < 1 or width < 1:
        raise ValueError("grid %dx%d: height and width must be positive" % (height, width))
    if height * width != f.manager.num_vars:
        raise ValueError(
            "grid %dx%d does not cover %d variables"
            % (height, width, f.manager.num_vars)
        )


def dataset_average_robustness(f: NodeRef, dataset) -> Fraction:
    """Mean instance robustness over dataset rows (features only)."""
    _nontrivial(f)
    rows = dataset.features.tolist() if hasattr(dataset, "features") else list(dataset)
    if not rows:
        raise ValueError("empty dataset")
    n = f.manager.num_vars
    order = _reachable(f)  # one walk serves every row
    total = 0
    for row in rows:
        _check_instance(row, n)
        total += _robustness(f, order, row)
    return Fraction(total, len(rows))
