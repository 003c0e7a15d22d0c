"""Seeded input generator: networks, images, datasets and model files.

Every input the benchmark hands to nnobdd is made here from the workload
seed, so the same seed always yields the same inputs and nothing is
downloaded.  Weights are drawn as a seeded permutation of a fixed multiset
of values with a fixed share of negative signs.  Drawing them independently
instead makes diagram sizes spread over a factor of five between seeds,
which would drown any change to the library in seed-to-seed noise.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

from nnobdd.network import ConvFilter, ConvStep, DenseStep, MaxPoolOr, NetworkSpec
from nnobdd.trainer import LabeledDataset

# Magnitudes of the weights of one unit; a unit of n inputs cycles through
# them.  One decimal digit each, so that quantizing at one digit is exact and
# compiled diagrams must agree with forward_eval bit for bit.
MAGNITUDES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 0.3, 0.5, 0.7, 0.9)
# one weight in this many is negative
NEGATIVE_EVERY = 4


def unit_weights(rng: random.Random, n: int) -> list[float]:
    """A seeded permutation of ``n`` weights from the fixed multiset."""
    values = [
        -MAGNITUDES[k % len(MAGNITUDES)]
        if k % NEGATIVE_EVERY == NEGATIVE_EVERY - 1
        else MAGNITUDES[k % len(MAGNITUDES)]
        for k in range(n)
    ]
    rng.shuffle(values)
    return values


def unit_bias(weights: list[float], share: float) -> float:
    """Bias that makes the unit fire once ``share`` of its positive mass is on."""
    return round(-share * sum(w for w in weights if w > 0), 1)


def conv_net(
    rng: random.Random,
    size: int,
    kernel: int,
    filters: int,
    dense_units: int,
    pool: int | None = None,
) -> NetworkSpec:
    """Square grid -> conv_step (stride = kernel) [-> maxpool_or] -> dense_step."""
    conv_filters = []
    for _ in range(filters):
        w = unit_weights(rng, kernel * kernel)
        grid = tuple(tuple(w[r * kernel : (r + 1) * kernel]) for r in range(kernel))
        conv_filters.append(ConvFilter((grid,), unit_bias(w, 0.3)))
    layers: list = [ConvStep(tuple(conv_filters), kernel)]
    side = size // kernel
    if pool:
        layers.append(MaxPoolOr((pool, pool), pool))
        side //= pool
    width = filters * side * side
    rows = [unit_weights(rng, width) for _ in range(dense_units)]
    layers.append(
        DenseStep(tuple(tuple(r) for r in rows), tuple(unit_bias(r, 0.4) for r in rows))
    )
    return NetworkSpec((size, size), tuple(layers))


def block_order(size: int, block: int) -> tuple[int, ...]:
    """Pixels block by block (block rows, block columns, then raster inside)."""
    return tuple(
        (br + i) * size + bc + j
        for br in range(0, size, block)
        for bc in range(0, size, block)
        for i in range(block)
        for j in range(block)
    )


def images(rng: random.Random, count: int, pixels: int) -> list[tuple[int, ...]]:
    return [tuple(rng.getrandbits(1) for _ in range(pixels)) for _ in range(count)]


def linear_dataset(seed: int, rows: int, width: int) -> LabeledDataset:
    """Random bit rows labelled by a hidden seeded linear rule plus noise."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(rows, width), dtype=np.uint8)
    w = rng.normal(size=width)
    noise = rng.normal(scale=1.0, size=rows)
    y = ((x @ w - w.sum() / 2 + noise) >= 0).astype(np.uint8)
    return LabeledDataset(x, y)


# ------------------------------------------------------------ file formats
#
# Written here rather than with nnobdd's own writers, so that the timed CLI
# runs are the only place the library's readers and writers do work.


def spec_json(spec: NetworkSpec) -> str:
    layers = []
    for layer in spec.layers:
        if isinstance(layer, ConvStep):
            layers.append(
                {
                    "type": "conv_step",
                    "stride": layer.stride,
                    "filters": [
                        {"weights": [[list(r) for r in ch] for ch in f.weights], "bias": f.bias}
                        for f in layer.filters
                    ],
                }
            )
        elif isinstance(layer, MaxPoolOr):
            layers.append(
                {"type": "maxpool_or", "window": list(layer.window), "stride": layer.stride}
            )
        else:
            layers.append(
                {
                    "type": "dense_step",
                    "weights": [list(r) for r in layer.weights],
                    "bias": list(layer.biases),
                }
            )
    h, w = spec.input_shape
    doc = {"input": {"h": h, "w": w}, "layers": layers, "outputs": spec.output_count}
    return json.dumps(doc, sort_keys=True)


def pbm_text(bits, height: int, width: int) -> str:
    rows = [" ".join(str(b) for b in bits[r * width : (r + 1) * width]) for r in range(height)]
    return "P1\n%d %d\n%s\n" % (width, height, "\n".join(rows))


def csv_text(rows, labels) -> str:
    return "".join(
        ",".join(str(int(b)) for b in bits) + ",%d\n" % int(label)
        for bits, label in zip(rows, labels)
    )


def digest(*parts) -> str:
    """Fingerprint of generated inputs, for the determinism checks."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, NetworkSpec):
            part = spec_json(part)
        elif isinstance(part, LabeledDataset):
            part = part.features.tobytes() + part.labels.tobytes()
        if not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(part)
    return h.hexdigest()
