"""Layered binary convolutional networks over bit images.

A network description is a grid input plus a sequence of layers of three
kinds: convolution with a step activation (each filter position is a
threshold unit over its window), max-pooling (which over bits is a plain
disjunction), and dense layers of threshold units.  There is no padding:
windows are placed at stride offsets and must fit; pixels a stride pattern
never covers are reported at load time, not silently padded away.

`forward_eval` is the reference evaluator.  It computes every wire bit
exactly, with real weights interpreted at their printed decimal value
(each neuron decides through `LinearThresholdUnit.fires`, never through
quantization), so it can serve as an oracle for the compiled form.
`compile_network` builds one canonical diagram per network output over the
input pixels: every neuron is compiled locally over placeholder variables
and then composed with the diagrams of its input wires, and pooling wires
are disjunctions.  Both treat a dense layer as a convolution with one
window, the whole input, so they handle two kinds of layer: pooling and
threshold units.  A dense layer's outputs are 1x1 planes, which keeps
every set of wires a channel/row/column grid.

Model files are JSON; images are ASCII PBM bitmaps (see `formats`).
Dense weights run over the flattened input in channel-major raster order:
channel, then row, then column.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Sequence, Union

from .formats import PathOrFile, read_text
from .neuron import LinearThresholdUnit, compile_pseudo, quantize
from .obdd import Manager, NodeRef, _check_bits, during


class ShapeError(ValueError):
    """A layer's declared shape does not match what feeds it."""


@dataclass(frozen=True)
class ConvFilter:
    """One filter: weights indexed [channel][row][col], plus a bias."""

    weights: tuple[tuple[tuple[float, ...], ...], ...]
    bias: float

    def __post_init__(self):
        object.__setattr__(
            self,
            "weights",
            tuple(tuple(tuple(float(v) for v in row) for row in ch) for ch in self.weights),
        )
        object.__setattr__(self, "bias", float(self.bias))
        if not self.weights or not self.weights[0] or not self.weights[0][0]:
            raise ValueError("filter must be nonempty")
        fh = len(self.weights[0])
        fw = len(self.weights[0][0])
        for ch in self.weights:
            if len(ch) != fh or any(len(row) != fw for row in ch):
                raise ValueError("ragged filter weights")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.weights), len(self.weights[0]), len(self.weights[0][0]))

    @cached_property
    def unit(self) -> LinearThresholdUnit:
        """The filter as a unit over its window, flattened channel-major."""
        return LinearThresholdUnit(
            tuple(v for ch in self.weights for row in ch for v in row), self.bias
        )


@dataclass(frozen=True)
class ConvStep:
    filters: tuple[ConvFilter, ...]
    stride: int

    def __post_init__(self):
        if not self.filters:
            raise ValueError("convolution needs at least one filter")
        if self.stride < 1:
            raise ValueError("stride must be positive")
        first = self.filters[0].shape
        if any(f.shape != first for f in self.filters):
            raise ValueError("all filters in a layer must share one shape")


@dataclass(frozen=True)
class MaxPoolOr:
    window: tuple[int, int]
    stride: int

    def __post_init__(self):
        if len(self.window) != 2 or min(self.window) < 1:
            raise ValueError("window must be a positive (height, width) pair")
        if self.stride < 1:
            raise ValueError("stride must be positive")


@dataclass(frozen=True)
class DenseStep:
    """Threshold units over the flattened previous layer: weights[out][in]."""

    weights: tuple[tuple[float, ...], ...]
    biases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "weights", tuple(tuple(float(v) for v in row) for row in self.weights)
        )
        object.__setattr__(self, "biases", tuple(float(b) for b in self.biases))
        if not self.weights:
            raise ValueError("dense layer needs at least one unit")
        width = len(self.weights[0])
        if any(len(row) != width for row in self.weights):
            raise ValueError("ragged dense weights")
        if len(self.biases) != len(self.weights):
            raise ValueError("one bias per dense unit required")

    @cached_property
    def units(self) -> tuple[LinearThresholdUnit, ...]:
        return tuple(
            LinearThresholdUnit(row, b) for row, b in zip(self.weights, self.biases)
        )


Layer = Union[ConvStep, MaxPoolOr, DenseStep]

# a wire shape is ("grid", channels, height, width) or ("flat", width)
Shape = tuple


def _window_count(size: int, window: int, stride: int, what: str, layer: int):
    if window > size:
        raise ShapeError(
            "layer %d: %s window %d exceeds input size %d" % (layer, what, window, size)
        )
    steps = (size - window) // stride + 1
    covered = (steps - 1) * stride + window
    return steps, size - covered


def _trace(input_shape: tuple[int, int], layers: Sequence[Layer]):
    """Shapes after each layer, plus human-readable coverage notes."""
    shapes: list[Shape] = [("grid", 1, input_shape[0], input_shape[1])]
    notes: list[str] = []
    for idx, layer in enumerate(layers, start=1):
        shape = shapes[-1]
        if isinstance(layer, ConvStep):
            if shape[0] != "grid":
                raise ShapeError("layer %d: convolution over a flat input" % idx)
            _, c, h, w = shape
            fc, fh, fw = layer.filters[0].shape
            if fc != c:
                raise ShapeError(
                    "layer %d: filters expect %d channels, input has %d" % (idx, fc, c)
                )
            oh, left_h = _window_count(h, fh, layer.stride, "filter", idx)
            ow, left_w = _window_count(w, fw, layer.stride, "filter", idx)
            if left_h or left_w:
                notes.append(
                    "layer %d leaves %d rows and %d columns uncovered (no padding)"
                    % (idx, left_h, left_w)
                )
            shapes.append(("grid", len(layer.filters), oh, ow))
        elif isinstance(layer, MaxPoolOr):
            if shape[0] != "grid":
                raise ShapeError("layer %d: pooling over a flat input" % idx)
            _, c, h, w = shape
            ph, pw = layer.window
            oh, left_h = _window_count(h, ph, layer.stride, "pool window", idx)
            ow, left_w = _window_count(w, pw, layer.stride, "pool window", idx)
            if left_h or left_w:
                notes.append(
                    "layer %d leaves %d rows and %d columns uncovered (no padding)"
                    % (idx, left_h, left_w)
                )
            shapes.append(("grid", c, oh, ow))
        elif isinstance(layer, DenseStep):
            width = _flat_width(shape)
            if len(layer.weights[0]) != width:
                raise ShapeError(
                    "layer %d: dense units expect %d inputs, previous layer yields %d"
                    % (idx, len(layer.weights[0]), width)
                )
            shapes.append(("flat", len(layer.weights)))
        else:
            raise ShapeError("layer %d: unknown layer type %r" % (idx, type(layer)))
    return shapes, notes


def _flat_width(shape: Shape) -> int:
    if shape[0] == "flat":
        return shape[1]
    return shape[1] * shape[2] * shape[3]


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple[int, int]
    layers: tuple[Layer, ...]
    coverage_notes: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        h, w = self.input_shape
        if h < 1 or w < 1:
            raise ShapeError("input grid must be at least 1x1")
        shapes, notes = _trace(self.input_shape, self.layers)
        object.__setattr__(self, "coverage_notes", tuple(notes))
        object.__setattr__(self, "_shapes", tuple(shapes))

    @property
    def shapes(self) -> tuple[Shape, ...]:
        """Wire shapes from the input grid through every layer."""
        return self._shapes  # type: ignore[attr-defined]

    @property
    def output_count(self) -> int:
        return _flat_width(self.shapes[-1])

    @property
    def pixel_count(self) -> int:
        return self.input_shape[0] * self.input_shape[1]


# ------------------------------------------------------------ JSON format


def load_spec(text: str) -> NetworkSpec:
    """Parse and validate a JSON model description."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError("model file is not valid JSON: %s" % e)
    if not isinstance(doc, dict) or "input" not in doc or "layers" not in doc:
        raise ValueError("model file needs 'input' and 'layers' fields")
    grid = doc["input"]
    if not isinstance(grid, dict):
        raise ValueError("'input' must carry integer fields h and w")
    input_shape = (_size(grid.get("h"), "'input' h"), _size(grid.get("w"), "'input' w"))
    if not isinstance(doc["layers"], list):
        raise ValueError("'layers' must be a list")
    layers: list[Layer] = []
    for idx, entry in enumerate(doc["layers"], start=1):
        if not isinstance(entry, dict):
            raise ValueError("layer %d: expected an object, got %r" % (idx, entry))
        try:
            layers.append(_load_layer(entry))
        except KeyError as e:
            raise ValueError("layer %d: missing field %s" % (idx, e)) from None
        except (TypeError, ValueError) as e:
            raise ValueError("layer %d: %s" % (idx, e)) from None
    spec = NetworkSpec(input_shape, tuple(layers))
    declared = doc.get("outputs")
    if declared is not None and _size(declared, "'outputs'") != spec.output_count:
        raise ShapeError(
            "model declares %d outputs but the layers yield %d"
            % (declared, spec.output_count)
        )
    return spec


def _size(value, field: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are rejected."""
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError("%s must be an integer, got %r" % (field, value))
    return value


def _load_layer(entry: dict) -> Layer:
    kind = entry.get("type")
    if kind == "conv_step":
        filters = tuple(
            ConvFilter(
                _nested(f["weights"], 3, "filter weights[channel][row][col]"),
                _nested(f["bias"], 0, "filter bias"),
            )
            for f in entry["filters"]
        )
        return ConvStep(filters, _size(entry["stride"], "stride"))
    if kind == "maxpool_or":
        window = tuple(_size(v, "window entry") for v in entry["window"])
        return MaxPoolOr(window, _size(entry["stride"], "stride"))
    if kind == "dense_step":
        return DenseStep(
            _nested(entry["weights"], 2, "dense weights[out][in]"),
            _nested(entry["bias"], 1, "dense bias[out]"),
        )
    raise ValueError("unknown type %r" % kind)


def _nested(value, depth: int, shape: str):
    """``value`` as tuples nested ``depth`` lists deep around finite numbers."""
    if isinstance(value, list) != bool(depth):
        raise ValueError("expected %s, lists nested around numbers" % shape)
    if depth:
        return tuple(_nested(v, depth - 1, shape) for v in value)
    # a JSON number a float holds: no string or boolean; NaN fails the test
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError("%s holds %r, not a finite number" % (shape, value))
    return value


def read_spec(src: PathOrFile) -> NetworkSpec:
    return load_spec(read_text(src))


# ---------------------------------------------------------------- evaluate


def forward_eval(spec: NetworkSpec, x: Sequence[int]) -> tuple[int, ...]:
    """Bit-exact reference forward pass over one image (raster bit order)."""
    h, w = spec.input_shape
    if len(x) != h * w:
        raise ValueError("image has %d bits, expected %d" % (len(x), h * w))
    _check_bits(x, "image bits")
    wires: list = [[[x[r * w + c] for c in range(w)] for r in range(h)]]
    for layer in spec.layers:
        if isinstance(layer, MaxPoolOr):
            wires = [
                [[1 if any(bits) else 0 for bits in row] for row in windows]
                for windows in _pool_windows(wires, layer)
            ]
        else:
            units, windows = _threshold_layer(wires, layer)
            wires = [
                [[unit.fires(bits) for bits in row] for row in windows] for unit in units
            ]
    return tuple(_flatten_wires(wires))


def _threshold_layer(wires, layer: ConvStep | DenseStep):
    """A conv or dense layer's units, and the rows of windows they all read.

    A dense layer is a convolution with one window: the whole input.
    """
    if isinstance(layer, ConvStep):
        windows = _windows(wires, layer.filters[0].shape, layer.stride)
        return [f.unit for f in layer.filters], windows
    shape = (len(wires), len(wires[0]), len(wires[0][0]))
    return layer.units, _windows(wires, shape, 1)


def _windows(wires, shape: tuple[int, int, int], stride: int) -> list:
    """Rows of the windows at each stride offset, flattened channel-major."""
    fc, fh, fw = shape
    ih, iw = len(wires[0]), len(wires[0][0])
    return [
        [
            [
                wires[ch][r0 + i][c0 + j]
                for ch in range(fc)
                for i in range(fh)
                for j in range(fw)
            ]
            for c0 in range(0, iw - fw + 1, stride)
        ]
        for r0 in range(0, ih - fh + 1, stride)
    ]


def _pool_windows(wires, layer: MaxPoolOr) -> list:
    """Per channel, the rows of pooling windows."""
    return [_windows([plane], (1, *layer.window), layer.stride) for plane in wires]


def _flatten_wires(wires) -> list:
    return [v for plane in wires for row in plane for v in row]


# ----------------------------------------------------------------- compile


@dataclass
class CompiledNetwork:
    """Per-output diagrams over the input pixels, plus the pixel order used."""

    manager: Manager
    outputs: tuple[NodeRef, ...]
    input_order: tuple[int, ...]

    def evaluate(self, x: Sequence[int]) -> tuple[int, ...]:
        if len(x) != len(self.input_order):
            raise ValueError("image width mismatch")
        mapped = [x[p] for p in self.input_order]
        return tuple(self.manager.evaluate(f, mapped) for f in self.outputs)


def compile_network(
    spec: NetworkSpec,
    quantize_digits: int,
    order_policy: Sequence[int] | None = None,
    round_mode: str = "truncate",
    node_budget: int | None = None,
) -> CompiledNetwork:
    """Compile every network output to a canonical diagram over the pixels.

    Each neuron is quantized at ``quantize_digits`` decimal digits, compiled
    locally over placeholder variables, and composed with its input wires.
    ``order_policy`` fixes which pixel each diagram variable stands for:
    an explicit permutation of the pixel indices, or None for raster
    (row-major) order.  A fresh manager is created with the budget.

    Raises `BudgetExceededError`, annotated with how far compilation got,
    when the node budget is exhausted.
    """
    pixels = spec.pixel_count
    if order_policy is None:
        input_order = tuple(range(pixels))
    else:
        input_order = tuple(order_policy)
        if sorted(input_order) != list(range(pixels)):
            raise ValueError("order policy must be a permutation of the pixels")
    manager = Manager(pixels, node_budget=node_budget)
    var_of_pixel = [0] * pixels
    for var, pixel in enumerate(input_order):
        var_of_pixel[pixel] = var

    h, w = spec.input_shape
    with during("building the input wires"):
        wires: list = [
            [
                [manager.literal(var_of_pixel[r * w + c]) for c in range(w)]
                for r in range(h)
            ]
        ]

    for idx, layer in enumerate(spec.layers, start=1):
        with during(
            "compiling layer %d of %d (%s)"
            % (idx, len(spec.layers), type(layer).__name__)
        ):
            if isinstance(layer, MaxPoolOr):
                wires = [
                    [[reduce(or_, bits, manager.false) for bits in row] for row in windows]
                    for windows in _pool_windows(wires, layer)
                ]
            else:
                units, windows = _threshold_layer(wires, layer)
                arity = len(windows[0][0])
                out = []
                for real in units:
                    unit = quantize(real, quantize_digits, round_mode)
                    pmgr = Manager(arity, node_budget=node_budget)
                    neuron_ref = compile_pseudo(unit, pmgr)
                    out.append(
                        [[manager.compose(neuron_ref, b) for b in row] for row in windows]
                    )
                wires = out

    return CompiledNetwork(manager, tuple(_flatten_wires(wires)), input_order)

