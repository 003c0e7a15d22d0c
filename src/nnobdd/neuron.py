"""Threshold-unit neurons and their compilation to diagrams.

A neuron with binary inputs and a step activation is just a linear
threshold classifier: it fires exactly when a weighted sum of its input
bits reaches a threshold.  There is one real type and one integer type.
`LinearThresholdUnit` carries real weights and a bias (fires when
``sum(w*x) + bias >= 0``); `IntThresholdUnit` carries integer weights and
an explicit threshold (fires when ``sum(w*x) >= threshold``) and is the
only place a step is decided.

Real parameters are everywhere interpreted at their printed decimal value:
a weight written 1.15 means the rational 115/100 exactly, not the nearest
binary float.  Without this, scaling 1.15 by 100 would truncate to 114.
`exact_decimal` implements the convention.  A real unit's `exact` form
scales its weights and ``-bias`` to integers over the common denominator
of their decimals, so it decides exactly what the decimals decide, and
`LinearThresholdUnit.fires` is that form's `fires`.  `quantize` instead
scales by a fixed power of ten and rounds, which may change decisions.

`compile_pseudo` builds the diagram of an integer unit by dynamic
programming over residual thresholds: processing inputs top-down, every
partial assignment is summarized by the threshold still to be met,
residuals that can no longer fail resolve to TRUE and residuals that can
no longer succeed resolve to FALSE, and each remaining (level, residual)
cell becomes one decision node.  A forward pass lists each level's
undecided residuals in ascending order, in bulk: one sort of the level
before and its shift by the weight, clipped to the level's range by two
bisections.  The backward pass looks up each cell's two children among
the next level's cells; a child that is not a cell is decided, on one
side only: for a weight w >= 0 the low child can only be FALSE and the
high child only TRUE, and for w < 0 the other way round.  Every step is
sized by the cells, never by the weights, so 9-digit weights cost what
small ones with as many cells cost.  The nodes are ordered and reduced
by construction, and two rules keep them distinct without a unique
table: a level's cell functions ``[sum(w_j x_j, j >= i) >= t]`` fall as
the residual t rises, so equal ones are runs of adjacent cells, and a
cell can equal an older node only when both its children are older, so
only such a cell is looked up.  The nodes are therefore appended to the
node store and left out of the tables until a later lookup needs them.
The cells, and so the work and the reduced node count, are at most
``n * (2W + 1)``, where W is the magnitude ``|T| + sum(|w|)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .formats import PathOrFile, read_text, write_text
from .obdd import _NO_TABLE, Manager, NodeRef

_INT_LIMIT = 2**63


class QuantizationError(ValueError):
    """Scaled parameters left the supported integer range."""


def exact_decimal(value) -> Fraction:
    """Exact rational of a number's printed decimal form."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


@dataclass(frozen=True)
class LinearThresholdUnit:
    """A neuron in bias form: fires iff ``sum(w_i * x_i) + bias >= 0``."""

    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "bias", float(self.bias))
        if not all(math.isfinite(w) for w in self.weights) or not math.isfinite(
            self.bias
        ):
            raise ValueError("weights and bias must be finite")

    @property
    def arity(self) -> int:
        return len(self.weights)

    @cached_property
    def exact(self) -> IntThresholdUnit:
        """The same classifier over integers, without rounding.

        Weights and ``-bias`` are scaled by the common denominator of their
        printed decimals; the denominator is positive, so the integer unit
        fires on exactly the instances where the decimals do.
        """
        exact = [exact_decimal(w) for w in self.weights] + [-exact_decimal(self.bias)]
        den = math.lcm(*(q.denominator for q in exact))
        *weights, threshold = (q.numerator * (den // q.denominator) for q in exact)
        return IntThresholdUnit(tuple(weights), threshold)

    def fires(self, x: Sequence[int]) -> int:
        """Step output on one instance, decided in exact decimal arithmetic."""
        return self.exact.fires(x)


@dataclass(frozen=True)
class IntThresholdUnit:
    """Integer-weight classifier: fires iff ``sum(w_i * x_i) >= threshold``."""

    weights: tuple[int, ...]
    threshold: int

    def __post_init__(self):
        if not all(isinstance(w, int) for w in self.weights):
            raise ValueError("weights must be integers")
        if not isinstance(self.threshold, int):
            raise ValueError("threshold must be an integer")
        object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def arity(self) -> int:
        return len(self.weights)

    @property
    def magnitude(self) -> int:
        """``|threshold| + sum(|w|)``, the size parameter of the compiler bound."""
        return abs(self.threshold) + sum(abs(w) for w in self.weights)

    def fires(self, x: Sequence[int]) -> int:
        if len(x) != self.arity:
            raise ValueError("instance width mismatch")
        return 1 if sum(w for w, b in zip(self.weights, x) if b) >= self.threshold else 0


def quantize(
    unit: LinearThresholdUnit,
    digits: int,
    mode: str = "truncate",
) -> IntThresholdUnit:
    """Scale parameters by ``10**digits`` and round to an integer unit.

    ``truncate`` rounds toward zero (the default); ``nearest`` uses
    round-half-even.  The threshold is ``-bias`` scaled; both roundings are
    odd functions, so this equals rounding the scaled bias and negating.
    Raises `QuantizationError` when a scaled parameter leaves the supported
    integer range.
    """
    if not isinstance(unit, LinearThresholdUnit):
        raise TypeError("quantize takes a LinearThresholdUnit")
    if not isinstance(digits, int) or not 0 <= digits <= 9:
        raise ValueError("digits must be an integer in 0..9")
    if mode not in ("truncate", "nearest"):
        raise ValueError("mode must be 'truncate' or 'nearest'")
    scale = 10**digits

    def scaled(value: float) -> int:
        exact = exact_decimal(value) * scale
        n = int(exact) if mode == "truncate" else round(exact)
        if abs(n) > _INT_LIMIT:
            raise QuantizationError(
                "parameter %r scales beyond the integer range at %d digits"
                % (value, digits)
            )
        return n

    return IntThresholdUnit(tuple(scaled(w) for w in unit.weights), scaled(-unit.bias))


def _residual_levels(
    unit: IntThresholdUnit, manager: Manager
) -> tuple[list[int], list[list[int]]]:
    """The forward pass of `compile_pseudo`: ``mins`` and undecided residuals.

    ``mins[i]`` and ``maxs[i]`` are the negative and positive weight mass of
    inputs i..n-1.  Level i lists, ascending, the residuals in
    ``(mins[i], maxs[i]]`` reachable from the threshold; there are no levels
    when the threshold alone decides the unit.  Each next level is made in
    bulk: the level before and its shift by the weight, as one sorted set,
    clipped by two bisections.  The manager's node budget, if any, bounds
    the cells here, before any node is allocated.
    """
    w = unit.weights
    n = len(w)
    mins = [0] * (n + 1)
    maxs = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        mins[i] = mins[i + 1] + (w[i] if w[i] < 0 else 0)
        maxs[i] = maxs[i + 1] + (w[i] if w[i] > 0 else 0)
    levels: list[list[int]] = []
    if not mins[0] < unit.threshold <= maxs[0]:
        return mins, levels
    budget = manager.node_budget
    cur = [unit.threshold]
    cells = 0
    for i in range(n):
        levels.append(cur)
        cells += len(cur)
        if budget is not None and cells > budget:
            raise manager._exhausted(cells)
        wi = w[i]
        nxt = sorted(set(cur).union([t - wi for t in cur]))
        cur = nxt[bisect_right(nxt, mins[i + 1]) : bisect_right(nxt, maxs[i + 1])]
    assert cells <= n * (2 * unit.magnitude + 1)
    return mins, levels


def compile_pseudo(unit: IntThresholdUnit, manager: Manager) -> NodeRef:
    """Compile an integer threshold unit by residual-threshold dynamic programming.

    Level k of the diagram tests input k.  Setting it keeps the residual or
    lowers it by the input's weight; a residual at or below the remaining
    negative mass is TRUE, one above the remaining positive mass is FALSE,
    and the fully assigned case is TRUE iff the residual is <= 0.
    `_residual_levels` lists each level's undecided residuals in ascending
    order.  The backward pass makes one node per cell, from the last level
    up, and looks up each child among the next level's cells with the one
    terminal it can be as the default: for a weight >= 0 the low child can
    only be FALSE and the high child only TRUE, and for a weight < 0 the
    other way round.  Time and memory follow the cells, never the size of
    the weights.  Each cell's node is ordered and reduced by construction,
    and it is appended to the node store without `_mk_id` and without a
    unique-table insert: the call completes the manager's tables on entry
    and leaves its own nodes as the manager's pending suffix, indexed by
    the first later lookup that needs them, so a diagram that is only
    counted or grafted from (`precision_sweep`, `compile_network`'s
    placeholders) never pays for them.  No duplicate can arise.  Within
    level k, the cells' functions ``[sum(w_j x_j, j >= k) >= t]`` fall as
    t rises, so equal ones form runs of adjacent cells, and equal
    functions have equal children, so a cell whose ``(lo, hi)`` equals the
    previous non-reduced cell's takes that cell's node.  An older node has
    only older children, so a cell is looked up in variable k's table only
    when both its children predate the call.  The budget is checked
    before each append; an abort leaves the nodes made so far pending and
    the manager usable.  The pass pops each level's residual list as it
    reaches it, so a level is freed once its nodes are made, not at
    return.  The manager's node budget, if any, also bounds the number of
    cells.
    """
    n = unit.arity
    if manager.num_vars != n:
        raise ValueError(
            "manager has %d variables, unit has %d inputs" % (manager.num_vars, n)
        )
    mins, levels = _residual_levels(unit, manager)
    if not levels:
        return manager.true if unit.threshold <= mins[0] else manager.false
    w = unit.weights
    budget = manager.node_budget

    # backward pass: one node per run of equal cells, appended to the node
    # store and put in no table (the docstring says why no other lookup is
    # needed).  `prev` maps the next level's cells to their nodes.  A cell t
    # lies in (mins[i], maxs[i]], so with wi >= 0 its low child t can leave
    # the next level's range only above it (FALSE) and its high child t - wi
    # only below it (TRUE); with wi < 0 the other way round, and with
    # wi == 0 both children are cells.  _mk_id's ordering check cannot fail
    # here: a cell's children are next-level cells, terminals, or the
    # deeper node a reduced cell stands for.
    manager._index()
    nodes, tables = manager._nodes, manager._unique
    old = len(nodes)  # ids below this predate the call and sit in the tables
    manager._unindexed = old
    prev: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        wi = w[i]
        lo_out, hi_out = (0, 1) if wi >= 0 else (1, 0)
        unique = tables.get(i, _NO_TABLE)
        table: dict[int, int] = {}
        run = None  # the previous non-reduced cell's (i, lo, hi)
        for t in levels.pop():  # level i, freed once used
            lo = prev.get(t, lo_out)
            hi = prev.get(t - wi, hi_out)
            if lo == hi:
                table[t] = lo
                continue
            key = (i, lo, hi)
            if key != run:
                run = key
                v = unique.get(key) if lo < old and hi < old else None
                if v is None:
                    v = len(nodes)
                    if budget is not None and v >= budget:
                        raise manager._exhausted()
                    nodes.append(key)
            table[t] = v
        prev = table
    if len(nodes) == old:
        manager._unindexed = None
    return NodeRef(manager, prev[unit.threshold])


# --------------------------------------------------------------- text format
#
# One line `weights: w1 w2 ... wn`, then either `bias: b` (real unit) or
# `threshold: T` (integer unit).  Blank lines and `#` comments are ignored.


def parse_neuron(text: str) -> LinearThresholdUnit | IntThresholdUnit:
    """Parse the neuron text format."""
    fields: dict[str, str] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ":" not in ln:
            raise ValueError("bad neuron line: %r" % ln)
        key, _, rest = ln.partition(":")
        key = key.strip().lower()
        if key in fields:
            raise ValueError("duplicate field %r" % key)
        fields[key] = rest.strip()
    if "weights" not in fields:
        raise ValueError("missing weights line")
    has_bias = "bias" in fields
    has_threshold = "threshold" in fields
    if has_bias == has_threshold:
        raise ValueError("expected exactly one of 'bias' or 'threshold'")
    tokens = fields["weights"].split()
    if has_bias:
        return LinearThresholdUnit(
            tuple(float(tok) for tok in tokens), float(fields["bias"])
        )
    try:
        weights = tuple(int(tok) for tok in tokens)
        threshold = int(fields["threshold"])
    except ValueError:
        raise ValueError("integer unit requires integer weights and threshold")
    return IntThresholdUnit(weights, threshold)


def format_neuron(unit: LinearThresholdUnit | IntThresholdUnit) -> str:
    """Render a unit in the neuron text format."""
    if isinstance(unit, IntThresholdUnit):
        return "weights: %s\nthreshold: %d\n" % (
            " ".join(str(w) for w in unit.weights),
            unit.threshold,
        )
    return "weights: %s\nbias: %s\n" % (
        " ".join(repr(w) for w in unit.weights),
        repr(unit.bias),
    )


def read_neuron(src: PathOrFile) -> LinearThresholdUnit | IntThresholdUnit:
    return parse_neuron(read_text(src))


def write_neuron(unit, dest: PathOrFile) -> None:
    write_text(dest, format_neuron(unit))
