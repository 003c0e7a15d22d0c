"""Single-neuron training and the precision sweep.

Training is plain mini-batch gradient descent on the sigmoid cross-entropy
loss, with the bias carried as an always-on feature and split back out at
the end.  Everything is deterministic given the seed.  The step-activated
unit returned agrees with thresholding the sigmoid at 1/2, since the
sigmoid is at least 1/2 exactly when its argument is nonnegative.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .formats import PathOrFile, read_text
from .neuron import (
    LinearThresholdUnit,
    QuantizationError,
    compile_pseudo,
    quantize,
)
from .obdd import BudgetExceededError, Manager, NodeRef


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        for name, value in (("learning rate", self.learning_rate), ("l2 penalty", self.l2)):
            if not math.isfinite(value):
                raise ValueError("%s must be finite, not %s" % (name, value))
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs <= 0:
            raise ValueError("epoch count must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch size must be positive")
        if self.l2 < 0:
            raise ValueError("l2 penalty must be nonnegative")


class LabeledDataset:
    """Rows of binary feature vectors with 0/1 labels."""

    def __init__(self, features, labels):
        # checked before narrowing to uint8, which overflows or wraps other values
        features = np.asarray(features)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if labels.shape != (features.shape[0],):
            raise ValueError("one label per row required")
        if features.size and not np.isin(features, (0, 1)).all():
            raise ValueError("features must be 0 or 1")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        self.features = features.astype(np.uint8)
        self.labels = labels.astype(np.uint8)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def rows(self):
        """(bits, label) pairs of Python ints, converted from numpy once."""
        for bits, label in zip(self.features.tolist(), self.labels.tolist()):
            yield tuple(bits), label


def read_dataset_csv(src: PathOrFile) -> LabeledDataset:
    """Read `bit,...,bit,label` rows (no header)."""
    rows = [row for row in csv.reader(io.StringIO(read_text(src))) if row]
    if not rows:
        raise ValueError("empty dataset file")
    feats, labels = [], []
    for i, row in enumerate(rows, start=1):
        try:
            values = [int(tok) for tok in row]
        except ValueError:
            raise ValueError("dataset line %d is not all integers" % i)
        if len(values) < 2:
            raise ValueError("dataset line %d needs features and a label" % i)
        feats.append(values[:-1])
        labels.append(values[-1])
    widths = {len(f) for f in feats}
    if len(widths) != 1:
        raise ValueError("dataset rows have differing widths")
    return LabeledDataset(feats, labels)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def train_neuron(data: LabeledDataset, config: TrainConfig | None = None) -> LinearThresholdUnit:
    """Fit one threshold unit by logistic-loss gradient descent."""
    if config is None:
        config = TrainConfig()
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    x = np.hstack(
        [data.features.astype(np.float64), np.ones((len(data), 1))]
    )  # bias as an always-on feature
    y = data.labels.astype(np.float64)
    w = np.zeros(x.shape[1])
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        perm = rng.permutation(len(data))
        for start in range(0, len(data), config.batch_size):
            batch = perm[start : start + config.batch_size]
            xb, yb = x[batch], y[batch]
            grad = xb.T @ (_sigmoid(xb @ w) - yb) / len(batch)
            if config.l2:
                grad[:-1] += config.l2 * w[:-1]  # bias not penalized
            w -= config.learning_rate * grad
    return LinearThresholdUnit(tuple(float(v) for v in w[:-1]), float(w[-1]))


def accuracy(predictor, data: LabeledDataset) -> Fraction:
    """Fraction of rows whose prediction matches the label, exactly."""
    if isinstance(predictor, NodeRef):
        if predictor.manager.num_vars != data.n_features:
            raise ValueError("diagram width does not match the dataset")
        predict = lambda bits: predictor.manager.evaluate(predictor, bits)
    elif hasattr(predictor, "fires"):
        if predictor.arity != data.n_features:
            raise ValueError("unit arity does not match the dataset")
        predict = predictor.fires
    else:
        raise TypeError("predictor must be a threshold unit or a NodeRef")
    if len(data) == 0:
        raise ValueError("empty dataset")
    hits = sum(1 for bits, label in data.rows() if predict(bits) == label)
    return Fraction(hits, len(data))


@dataclass(frozen=True)
class SweepRow:
    digits: int
    accuracy: Fraction | None
    nodes: int | None
    status: str  # "ok", "budget" or "overflow"


def precision_sweep(
    unit: LinearThresholdUnit,
    data: LabeledDataset,
    digits_range: Iterable[int],
    node_budget: int | None = None,
) -> list[SweepRow]:
    """Quantize, compile and measure at each precision; failures become rows.

    Accuracy is that of the quantized unit (the compiled diagram computes
    the same function), so it is available even when compilation runs out
    of budget; the node count is only reported for completed compilations.
    Each precision compiles into a fresh manager, and the sweep keeps no
    handle to its diagram: the row needs only the allocation count, so the
    previous precision's manager is freed, by reference counting alone,
    before the next compile starts.
    """
    rows = []
    for digits in digits_range:
        try:
            quantized = quantize(unit, digits)
        except QuantizationError:
            rows.append(SweepRow(digits, None, None, "overflow"))
            continue
        acc = accuracy(quantized, data)
        manager = Manager(quantized.arity, node_budget=node_budget)
        try:
            compile_pseudo(quantized, manager)
        except BudgetExceededError:
            rows.append(SweepRow(digits, acc, None, "budget"))
            continue
        # every node of this fresh manager is reachable from root: each cell
        # was reached from the root cell, and a cell's node has the next
        # cell's node as a child or equals it, so no walk is needed
        rows.append(SweepRow(digits, acc, manager.allocated - 2, "ok"))
    return rows
