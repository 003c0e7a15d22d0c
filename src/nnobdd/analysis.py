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
node is always created after both of its children.  Every instance query,
one image or each row of a dataset, is the same 0-1 breadth-first search
from the root, free along the instance's own branches and one flip across
the other, that stops at the first flip count reaching the opposite
terminal, so it reads the nodes near the instance's path and, at worst,
every node.

PI explanation first runs a certified pass that allocates nothing: it
releases a variable into one of the node's own cofactors, chosen by model
count, which gives a lower bound on every cost, and one walk checks that
the traced literals force the label.  They always do on a unate function.
When they do not, the exact pass visits releases: conjunctions (or
disjunctions) of a node's two cofactors, built through `ite`, whose own
calls still recurse.  Both passes record one release id per node and
share one cost rule and trace-back.  Model counts are over all of the
manager's variables at every node, so they compare and add without a
level correction.

What does not depend on the instance is built once per handle and kept
on it: the children-first walk, which every query reads through
`obdd._reachable`; on the first PI explanation the certified releases of
both labels, one list each, aligned with the walk; and on the first
unateness query or level chain the unateness of each support variable,
a dict that `_unate_kinds` fills and every later query reads.  Every
later PI explanation on that handle runs only its cost pass, trace-back
and `_forced_label` check.  That check keeps the last literal set it
proved with its label, and the exact pass keeps its reason the same way
without a walk, as its true releases force the label by construction,
so `fooling_complete` of the reason just explained, by either pass,
reads the proof instead of walking again.  Model counts stay per call.
Equal handles made separately keep all of these on their own.

The robustness of an instance is the least number of input flips that
changes the classifier's label; the robustness of a whole function is
summarized by `RobustnessProfile`: exact per-level counts of how many
instances need exactly k flips, their sum of flips, and the normalizations
of that sum both by all 2**n instances and by the instances of the
polarity alone.  The per-level sets come from repeated erosion, which
peels away the instances that sit within one flip of the boundary in one
pass over the previous level's nodes; the negative label's levels come
from dilating the function instead of eroding its complement.  At a node
of a unate variable one of erosion's (dilation's) two conjunctions
(disjunctions) is the identity, so the kept unateness saves one ITE call
there.

A sufficient reason for an instance is a minimum-cardinality subset of its
bits that forces the classification no matter how the remaining bits are
filled in; `fooling_complete` exploits exactly that guarantee to build
adversarial-looking completions that provably keep the label.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, Sequence

from .obdd import NodeRef, _counts, _reachable, during

POSITIVE = "positive"
NEGATIVE = "negative"
BOTH = "both"

class Unateness(str, Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"
    UNUSED = "unused"
    NONE = "none"


def _certified_releases(f: NodeRef, order: list[int]) -> tuple[list[int], list[int]]:
    """Both labels' certified releases of the nodes of ``order``.

    Label 1 releases into the cofactor with fewer models (`_counts`), label
    0 into the other one, so a tie gives label 1 the high cofactor and
    label 0 the low one.
    """
    nodes = f.manager._nodes
    count = _counts(f, order)
    more: list[int] = []
    fewer: list[int] = []
    for u in order:
        _, lo, hi = nodes[u]
        if count[lo] < count[hi]:
            fewer.append(lo)
            more.append(hi)
        else:
            fewer.append(hi)
            more.append(lo)
    return more, fewer


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

    The shortest path from the root to the terminal opposite to the
    instance's label, where following ``x``'s own branch costs nothing and
    taking the other branch costs one flip; the label's own terminal is
    never left, and variables skipped by reduction cost nothing on either
    path.  A 0-1 breadth-first search settles nodes one flip count at a
    time: a stack closes the current count over its free edges, and a list
    collects the nodes one flip further.  The search stops at the first
    count that reaches the opposite terminal, so it reads only the nodes
    within that many flips of ``x``'s path; at worst, every node.
    """
    mgr = f.manager
    _check_instance(x, mgr.num_vars)
    label = mgr.evaluate(f, x)
    target = 1 - label
    nodes = mgr._nodes
    done = bytearray(f.i + 1)  # the marking rule of `obdd._walk_from`
    done[label] = 1  # the label's own terminal is a dead end
    level = [f.i]
    flips = 0
    while level:
        stack, level = level, []
        while stack:
            u = stack.pop()
            if done[u]:
                continue
            if u == target:
                return flips
            done[u] = 1
            var, lo, hi = nodes[u]
            if x[var]:
                stack.append(hi)
                level.append(lo)
            else:
                stack.append(lo)
                level.append(hi)
        flips += 1
        if target in level:
            return flips
    return math.inf  # only a terminal f has no path to the other terminal


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

    Erosion and dilation keep each variable's unateness, so the one pass
    `_unate_kinds` keeps on ``f`` serves every level.  Where v is positive,
    ``lo => hi`` at every node labelled v, so ``E(lo) & hi`` is ``E(lo)``
    and ``D(hi) | lo`` is ``D(hi)``; where v is negative, ``E(hi) & lo`` is
    ``E(hi)`` and ``D(lo) | hi`` is ``D(lo)``.  That side takes the lower
    level's node as it is: an ITE call would only have found it, so the
    nodes made, and their ids, are those of two calls per node.  A budget
    abort names the chain and the level it was building, ``f`` being 1.
    """
    mgr = f.manager
    _nontrivial(f)
    nodes = mgr._nodes
    mk = mgr._mk_id
    ite = mgr._ite_id
    kinds = _unate_kinds(f)
    positive, negative = Unateness.POSITIVE, Unateness.NEGATIVE
    levels = [f]
    while True:
        nxt = {0: 0, 1: 1}
        with during(
            "building robustness level %d by %s"
            % (len(levels) + 1, "dilation" if dilate else "erosion")
        ):
            for u in _reachable(levels[-1]):
                var, lo, hi = nodes[u]
                kind = kinds[var]
                if dilate:
                    low = nxt[lo] if kind is negative else ite(nxt[lo], 1, hi)
                    high = nxt[hi] if kind is positive else ite(nxt[hi], 1, lo)
                else:
                    low = nxt[lo] if kind is positive else ite(nxt[lo], hi, 0)
                    high = nxt[hi] if kind is negative else ite(nxt[hi], lo, 0)
                nxt[u] = mk(var, low, high)
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


def _sides(polarity: str) -> tuple[str, ...]:
    """The labels ``polarity`` selects, positive first."""
    if polarity not in (POSITIVE, NEGATIVE, BOTH):
        raise ValueError("polarity must be 'positive', 'negative' or 'both'")
    return tuple(side for side in (POSITIVE, NEGATIVE) if polarity in (side, BOTH))


def model_robustness(f: NodeRef, polarity: str = BOTH) -> RobustnessProfile:
    """Exact robustness profile of a non-trivial function.

    ``polarity`` selects whose instances are tallied: the positive ones,
    the negative ones, or both.  Each side's per-level counts are the
    differences of its level sizes.  The negative side dilates ``f``
    instead of eroding its complement: the negative instances with
    robustness > k are those outside ``D^k(f)``.  Both chains read the
    unateness kept on ``f`` (`_level_chain`), so after `unateness` or
    `unateness_grid` on the same handle they run no implication check.
    """
    _nontrivial(f)
    mgr = f.manager
    n = mgr.num_vars
    summaries = {}
    for side in _sides(polarity):
        levels = _level_chain(f, dilate=side == NEGATIVE)
        sizes = [mgr.model_count(level) for level in levels]
        if side == NEGATIVE:
            sizes = [2**n - size for size in sizes]
        sizes.append(0)  # the level after the last satisfiable one is empty
        counts = tuple(
            (k, sizes[k - 1] - sizes[k])
            for k in range(1, len(levels) + 1)
            if sizes[k - 1] - sizes[k]
        )
        summaries[side] = PolaritySummary(side, n, counts)
    return RobustnessProfile(n, summaries.get(POSITIVE), summaries.get(NEGATIVE))


def max_robustness(f: NodeRef, polarity: str = POSITIVE) -> int:
    """Largest robustness among the instances of ``polarity``.

    Level k of the erosion (dilation) chain loses (gains) exactly the
    instances of robustness k, and no level of a non-trivial function
    equals the one before, so the largest robustness is the chain's
    length.  ``both`` takes the longer chain.  No level is counted, so the
    cost does not grow with the number of variables.
    """
    _nontrivial(f)
    return max(
        len(_level_chain(f, dilate=side == NEGATIVE)) for side in _sides(polarity)
    )


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
    is the greatest minimum reason in variable order.

    A certified pass comes first and allocates nothing.  Its releases, made
    once per handle by one children-first pass over the existing nodes and
    kept on it, release into one cofactor instead of combining both: the
    one with fewer models over all the variables for label 1, more for
    label 0.  When one cofactor implies the other, that one is exactly their
    conjunction (for label 0, their disjunction).  Otherwise it is implied
    by the conjunction (implies the disjunction), and a weaker function
    never takes more literals to force, so every cost is a lower bound.  If
    the traced literals force the label, which one `_forced_label` walk
    checks, their number meets the bound: they are a minimum reason, and
    the one the exact pass would choose.  Unate functions always pass.

    Otherwise the exact pass builds each release through `ite`: the
    conjunction of the node's cofactors for label 1, their disjunction for
    label 0.  Three steps without recursion of its own: queue each node
    reached through an instance branch or a release once, cost them deepest
    variable first (not by id: a release may be newer than the node that
    needs it), then follow the cheaper choice down from the root.  Its
    reason forces the label by construction and is kept on ``f`` as the
    proof `_forced_label` reads.  That queue keeps a set of ids, not the
    byte marks of `obdd._walk_from`: releases may be newer than ``f``.  A
    budget abort names the query.
    """
    mgr = f.manager
    _check_instance(x, mgr.num_vars)
    _nontrivial(f)
    label = mgr.evaluate(f, x)
    order = _reachable(f)
    if f._releases is None:
        f._releases = _certified_releases(f, order)
    literals = _cheapest_reason(
        f, x, label, order, f._releases[label], partial(bisect_left, order)
    )
    if _forced_label(f, dict(literals)) == label:
        return Explanation(literals, label)
    nodes = mgr._nodes
    ite = mgr._ite_id
    release: dict[int, int] = {}
    seen = {0, 1, f.i}
    order = [f.i]
    with during("building the releases of a PI explanation"):
        for u in order:
            var, lo, hi = nodes[u]
            r = release[u] = ite(lo, hi, 0) if label else ite(lo, 1, hi)
            for v in (hi if x[var] else lo, r):  # the instance branch, the release
                if v not in seen:
                    seen.add(v)
                    order.append(v)
    order.sort(key=lambda u: nodes[u][0], reverse=True)  # both edges go deeper
    position = {u: k for k, u in enumerate(order)}
    literals = _cheapest_reason(
        f, x, label, order, [release[u] for u in order], position.__getitem__
    )
    f._proof = (literals, label)  # `_forced_label`'s key: literals ascend by variable
    return Explanation(literals, label)


def _cheapest_reason(
    f: NodeRef,
    x: Sequence[int],
    label: int,
    order: list[int],
    release: list[int],
    position: Callable[[int], int],
) -> tuple[tuple[int, int], ...]:
    """Literals of the cheapest reason under the given releases.

    ``release[k]`` is the release of ``order[k]``, and ``position(u)`` is
    the k with ``order[k] == u``.  ``order`` lists every node after the
    nodes its release and its instance branch, read from ``x``, lead to.  A
    node costs the cheaper of one committed bit plus its instance branch and
    its release, committing on a tie; the trace follows those choices down
    from the root.
    """
    nodes = f.manager._nodes
    cost: dict[int, int | float] = {label: 0, 1 - label: math.inf}
    for u, r in zip(order, release):
        var, lo, hi = nodes[u]
        committed = 1 + cost[hi if x[var] else lo]
        released = cost[r]
        cost[u] = committed if committed <= released else released
    literals: list[tuple[int, int]] = []
    u = f.i
    while u > 1:
        var, lo, hi = nodes[u]
        branch = hi if x[var] else lo
        if cost[u] == 1 + cost[branch]:
            literals.append((var, x[var]))
            u = branch
        else:
            u = release[position(u)]
    assert len(literals) == cost[f.i]
    return tuple(literals)


def fooling_complete(
    f: NodeRef,
    reason: Explanation | Mapping[int, int],
    fill: Sequence[int],
) -> tuple[int, ...]:
    """Extend a sufficient reason with arbitrary filler bits.

    The filler may be crafted to *look* like the opposite class; because
    the reason already forces the classification, the returned instance is
    still classified the same way, which is verified before returning.
    Raises `ValueError` when the reason does not force a label.  That check
    is `_forced_label`: the reason `pi_explanation` last returned on the same
    handle, from either pass, reads the proof kept on ``f`` without a walk.
    """
    mgr = f.manager
    _check_instance(fill, mgr.num_vars)
    pairs = dict(reason.literals if isinstance(reason, Explanation) else reason)
    for var, bit in pairs.items():
        if not 0 <= var < mgr.num_vars or bit not in (0, 1):
            raise ValueError("bad literal (%r, %r)" % (var, bit))
    label = _forced_label(f, pairs)
    if label is None:
        raise ValueError("the given assignment is not a sufficient reason")
    out = tuple(pairs.get(v, fill[v]) for v in range(mgr.num_vars))
    assert mgr.evaluate(f, out) == label
    return out


def _forced_label(f: NodeRef, pairs: Mapping[int, int]) -> int | None:
    """The label that fixing ``pairs`` forces on ``f``, or None.

    The one accessor for a forcing proof: a forced label is kept on ``f``
    with its literal set, and a later call with that same set returns it
    without a walk (`_forcing_walk`).  Only the last proof is kept; the
    exact pass of `pi_explanation` keeps its reason there too, under the
    same key, the literals in ascending variable order.
    """
    literals = tuple(sorted(pairs.items()))
    proof = f._proof
    if proof is not None and proof[0] == literals:
        return proof[1]
    label = _forcing_walk(f, pairs)
    if label is not None:
        f._proof = (literals, label)
    return label


def _forcing_walk(f: NodeRef, pairs: Mapping[int, int]) -> int | None:
    """The proof `_forced_label` keeps, made anew, in one walk.

    Follows the fixed variables' branches and both branches of every free
    variable, collecting the terminals reached; the label is forced exactly
    when only one terminal is reachable, and the walk stops at the second.
    """
    nodes = f.manager._nodes
    seen = bytearray(f.i + 1)  # the marking rule of `obdd._walk_from`
    reached: set[int] = set()
    stack = [f.i]
    while stack:
        u = stack.pop()
        if u <= 1:
            reached.add(u)
            if len(reached) == 2:
                return None
        elif not seen[u]:
            seen[u] = 1
            var, lo, hi = nodes[u]
            bit = pairs.get(var)
            if bit != 1:
                stack.append(lo)
            if bit != 0:
                stack.append(hi)
    (label,) = reached
    return label


# ------------------------------------------------------- per-variable views


def marginals(f: NodeRef) -> list[Fraction]:
    """Probability that each variable is 1 among the satisfying instances.

    Darwiche's differential pass over the kept walk: bottom-up
    model counts (`_counts`) times top-down path mass give the models
    flowing along every edge: an edge from a node labelled v carries its
    path mass times the child's all-variable count shifted down by v + 1,
    which frees v and the variables above it.  The models through the high
    edge are those with v = 1; an edge that skips variables carries them
    with each skipped variable free, so half of its models set it to 1,
    which a difference array spreads over the skipped range.
    """
    mgr = f.manager
    if not mgr.is_sat(f):
        raise ValueError("marginals of an unsatisfiable function are undefined")
    nvars = mgr.num_vars
    nodes = mgr._nodes
    root_level = nodes[f.i][0]
    order = _reachable(f)
    count = _counts(f, order)
    total = count[f.i]
    on = [0] * nvars  # models through the high edges of each variable's nodes
    skipped = [0] * (nvars + 1)  # difference array of models on skipping edges
    skipped[0] = total  # the variables above the root are free
    skipped[root_level] -= total
    mass = {f.i: 1 << root_level}  # assignments above a node that reach it
    for u in reversed(order):
        var, lo, hi = nodes[u]
        m = mass.pop(u)
        for child in (lo, hi):
            if child == 0:
                continue
            level = nodes[child][0]
            gap = level - var - 1
            if child > 1:
                mass[child] = mass.get(child, 0) + (m << gap)
            flow = m * (count[child] >> (var + 1))
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


def _implies(nodes: list[tuple[int, int, int]], memo: dict, a: int, b: int) -> bool:
    """Whether every model of node ``a`` is a model of node ``b``.

    Walks both diagrams in lockstep with an explicit stack of undecided
    pairs; a pair holds when both its cofactor pairs do.  ``memo`` holds
    the answers for node pairs and may be shared between calls.
    """
    if a == 0 or b == 1 or a == b:
        return True
    if a == 1 or b == 0:  # the other side is neither terminal nor equal
        return False
    answer = memo.get((a, b))
    if answer is not None:
        return answer
    stack = [(a, b)]
    while stack:
        p, q = stack[-1]
        vp, p0, p1 = nodes[p]
        vq, q0, q1 = nodes[q]
        if vp < vq:
            q0 = q1 = q
        elif vq < vp:
            p0 = p1 = p
        if p0 == 0 or q0 == 1 or p0 == q0:
            answer = True
        elif p0 == 1 or q0 == 0:
            answer = False
        else:
            answer = memo.get((p0, q0))
            if answer is None:
                stack.append((p0, q0))
                continue
        if answer:
            if p1 == 0 or q1 == 1 or p1 == q1:
                answer = True
            elif p1 == 1 or q1 == 0:
                answer = False
            else:
                answer = memo.get((p1, q1))
                if answer is None:
                    stack.append((p1, q1))
                    continue
        memo[(p, q)] = answer
        stack.pop()
    return memo[(a, b)]


def _unate_kinds(f: NodeRef) -> dict[int, Unateness]:
    """Each support variable's unateness, in one pass, kept on ``f``.

    A variable is positive exactly when ``lo => hi`` holds at every
    reachable node labelled with it, negative when ``hi => lo`` does, and
    neither otherwise.  Only the support has entries, so the pass and what
    it keeps grow with the diagram, not with the number of variables.  The
    first call runs the pass and keeps its result on ``f``; every later
    call returns that same dict, so callers must never mutate it.
    """
    kinds = f._unate
    if kinds is not None:
        return kinds
    nodes = f.manager._nodes
    positive, negative, neither = Unateness.POSITIVE, Unateness.NEGATIVE, Unateness.NONE
    memo: dict[tuple[int, int], bool] = {}
    kinds = {}
    for u in _reachable(f):
        var, lo, hi = nodes[u]
        kind = kinds.get(var)
        if kind is neither:
            continue
        if kind is not negative and _implies(nodes, memo, lo, hi):
            # lo != hi at a reduced node, and equal functions share an id,
            # so hi => lo fails here: var is not negative
            kinds[var] = positive
        elif kind is not positive and _implies(nodes, memo, hi, lo):
            kinds[var] = negative
        else:
            kinds[var] = neither
    f._unate = kinds
    return kinds


def unateness(f: NodeRef) -> list[Unateness]:
    """How flipping each variable from 0 to 1 can move the output.

    Reads `_unate_kinds`, kept on ``f``; a variable that no reachable node
    is labelled with is unused.
    """
    kinds = _unate_kinds(f)
    unused = Unateness.UNUSED
    return [kinds.get(v, unused) for v in range(f.manager.num_vars)]


def marginal_grid(
    f: NodeRef, height: int, width: int
) -> list[tuple[int, int, int, Fraction]]:
    """(var, row, col, marginal) rows for a raster-ordered pixel grid."""
    _check_grid(f, height, width)
    return _grid(marginals(f), width)


def unateness_grid(
    f: NodeRef, height: int, width: int
) -> list[tuple[int, int, int, Unateness]]:
    """(var, row, col, unateness) rows for a raster-ordered pixel grid."""
    _check_grid(f, height, width)
    return _grid(unateness(f), width)


def _grid(values: list, width: int) -> list[tuple]:
    return [(v, v // width, v % width, value) for v, value in enumerate(values)]


def _check_grid(f: NodeRef, height: int, width: int) -> None:
    if height < 1 or width < 1:
        raise ValueError("grid %dx%d: height and width must be positive" % (height, width))
    if height * width != f.manager.num_vars:
        raise ValueError(
            "grid %dx%d does not cover %d variables"
            % (height, width, f.manager.num_vars)
        )


def dataset_average_robustness(f: NodeRef, dataset) -> Fraction:
    """Mean instance robustness over dataset rows of bits.

    Every row is checked before any is scored; each row is then scored by
    `instance_robustness`, the one search that answers every instance query.
    """
    _nontrivial(f)
    n = f.manager.num_vars
    rows = list(dataset)
    if not rows:
        raise ValueError("empty dataset")
    try:
        widths = {len(x) for x in rows}
    except TypeError:  # a row that is a single value
        widths = None
    if widths != {n}:
        raise ValueError("dataset rows must each have %d bits" % n)
    if any(b not in (0, 1) for x in rows for b in x):
        raise ValueError("instance bits must be 0 or 1")
    total = sum(instance_robustness(f, x) for x in rows)
    return Fraction(total, len(rows))
