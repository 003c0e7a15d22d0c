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
cell becomes one decision node.  Those nodes are ordered and reduced by
construction, so they go straight into the unique table of their level's
variable.  The work and the reduced node count are bounded by
``n * (2W + 1)`` cells, where W is the magnitude ``|T| + sum(|w|)``.
"""

from __future__ import annotations

import math
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

    def activation(self, x: Sequence[int]) -> float:
        """Pre-activation value in float arithmetic (training-side view)."""
        if len(x) != self.arity:
            raise ValueError("instance width mismatch")
        return sum(w * b for w, b in zip(self.weights, x)) + self.bias

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


def compile_pseudo(unit: IntThresholdUnit, manager: Manager) -> NodeRef:
    """Compile an integer threshold unit by residual-threshold dynamic programming.

    Level k of the diagram tests input k.  Setting it keeps the residual or
    lowers it by the input's weight; a residual at or below the remaining
    negative mass is TRUE, one above the remaining positive mass is FALSE,
    and the fully assigned case is TRUE iff the residual is <= 0.  Each cell's
    node is ordered and reduced by construction and goes straight into the
    unique table of variable k, without `_mk_id`; the backward pass fetches
    that table once per level and makes it on the level's first new node.
    The manager's node budget, if any, also bounds the number of
    materialized cells.
    """
    n = unit.arity
    if manager.num_vars != n:
        raise ValueError(
            "manager has %d variables, unit has %d inputs" % (manager.num_vars, n)
        )
    w = unit.weights
    t0 = unit.threshold

    # suffix sums of the negative and positive weight mass below each level
    mins = [0] * (n + 1)
    maxs = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        mins[i] = mins[i + 1] + (w[i] if w[i] < 0 else 0)
        maxs[i] = maxs[i + 1] + (w[i] if w[i] > 0 else 0)

    if t0 <= mins[0]:
        return manager.true
    if t0 > maxs[0]:
        return manager.false

    # forward pass: undecided residuals reachable at each level; the budget
    # also bounds the cells, before any node is allocated
    budget = manager.node_budget
    levels: list[set[int]] = []
    cur = {t0}
    cells = 0
    for i in range(n):
        levels.append(cur)
        cells += len(cur)
        if budget is not None and cells > budget:
            raise manager._exhausted(cells)
        wi = w[i]
        lo_b = mins[i + 1]
        hi_b = maxs[i + 1]
        nxt = set()
        for t in cur:
            if lo_b < t <= hi_b:
                nxt.add(t)
            u = t - wi
            if lo_b < u <= hi_b:
                nxt.add(u)
        cur = nxt
    assert cells <= n * (2 * unit.magnitude + 1)

    # backward pass: one node per surviving cell, straight into the unique
    # table of the level's variable, fetched once per level (an empty stand-in
    # until the level's first new node makes it).  _mk_id's ordering check
    # cannot fail here: a cell's children are next-level cells, terminals, or
    # the deeper node a reduced cell stands for.
    nodes, tables = manager._nodes, manager._unique
    prev: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        wi = w[i]
        lo_b = mins[i + 1]
        hi_b = maxs[i + 1]
        unique = tables.get(i, _NO_TABLE)
        table: dict[int, int] = {}
        for t in levels[i]:
            lo = 1 if t <= lo_b else (0 if t > hi_b else prev[t])
            u = t - wi
            hi = 1 if u <= lo_b else (0 if u > hi_b else prev[u])
            v = lo if lo == hi else unique.get(key := (i, lo, hi))
            if v is None:
                v = len(nodes)
                if budget is not None and v >= budget:
                    raise manager._exhausted()
                nodes.append(key)
                if unique is _NO_TABLE:
                    unique = tables[i] = {}
                unique[key] = v
            table[t] = v
        prev = table
    return NodeRef(manager, prev[t0])


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
