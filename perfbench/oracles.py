"""Brute-force truth-table answers for functions of at most 16 variables.

Independent of the diagram algorithms under test: a function is reduced to
its truth table once, and every query is answered from the table by
exhaustive enumeration.  Bit k of a table index is the value of variable k.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

MAX_VARS = 16


def truth_table(f) -> np.ndarray:
    mgr = f.manager
    n = mgr.num_vars
    if n > MAX_VARS:
        raise ValueError("%d variables is too many for a truth table" % n)
    return np.array(
        [mgr.evaluate(f, [(i >> k) & 1 for k in range(n)]) for i in range(1 << n)],
        dtype=np.uint8,
    )


def _index(bits) -> int:
    return sum(b << k for k, b in enumerate(bits))


def robustness(table: np.ndarray, n: int) -> np.ndarray:
    """Least number of flips that changes the label, for every instance."""
    size = 1 << n
    idx = np.arange(size)
    out = np.zeros(size, dtype=np.int64)
    for target in (0, 1):
        d = np.where(table == target, 0, size).astype(np.int64)
        changed = True
        while changed:
            changed = False
            for k in range(n):
                nd = np.minimum(d, d[idx ^ (1 << k)] + 1)
                if (nd != d).any():
                    d = nd
                    changed = True
        mask = table != target
        out[mask] = d[mask]
    return out


def robustness_counts(table: np.ndarray, n: int, positive: bool) -> tuple:
    r = robustness(table, n)[table == (1 if positive else 0)]
    values, counts = np.unique(r, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(values, counts))


def _cube(table: np.ndarray, n: int, pairs) -> np.ndarray:
    """Table entries of the instances that agree with the (var, bit) pairs."""
    cube = table.reshape((2,) * n)  # axis j holds variable n-1-j
    index = [slice(None)] * n
    for var, bit in pairs:
        index[n - 1 - var] = bit
    return cube[tuple(index)]


def forces(table: np.ndarray, n: int, pairs, label: int) -> bool:
    return bool((_cube(table, n, pairs) == label).all())


def smallest_reason_size(table: np.ndarray, n: int, x, limit: int) -> int | None:
    """Size of a smallest label-forcing subset of ``x``, if one is below ``limit``."""
    label = int(table[_index(x)])
    for size in range(limit):
        for combo in itertools.combinations(range(n), size):
            if forces(table, n, [(v, x[v]) for v in combo], label):
                return size
    return None


def marginal(table: np.ndarray, n: int, var: int) -> Fraction:
    on = int(_cube(table, n, [(var, 1)]).sum())
    return Fraction(on, int(table.sum()))


def unateness(table: np.ndarray, n: int, var: int) -> str:
    lo = _cube(table, n, [(var, 0)]).astype(np.int8)
    hi = _cube(table, n, [(var, 1)]).astype(np.int8)
    up = bool((hi > lo).any())
    down = bool((hi < lo).any())
    if not up and not down:
        return "unused"
    if not down:
        return "pos"
    if not up:
        return "neg"
    return "none"
