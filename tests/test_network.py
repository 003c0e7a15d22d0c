"""Network descriptions: shape validation, reference evaluation, compilation."""

import io
import json
import random

import pytest

from nnobdd import (
    BudgetExceededError,
    ConvFilter,
    ConvStep,
    DenseStep,
    Manager,
    MaxPoolOr,
    NetworkSpec,
    ShapeError,
    compile_network,
    compile_pseudo,
    forward_eval,
    load_spec,
    network,
    quantize,
    read_obdd,
    read_spec,
    write_obdd,
)

from oracles import (
    all_instances,
    bits_of,
    block_order,
    check_unique_tables,
    covered_pixels,
    index_spy,
    ite_compose,
)

FIXTURE = "docs/net4x4.json"


def conv_layer(weights, bias, stride):
    return ConvStep((ConvFilter((weights,), bias),), stride)


class TestShapes:
    def test_16x16_conv3_stride2_gives_7x7(self):
        spec = NetworkSpec(
            (16, 16), (conv_layer(((0.5,) * 3,) * 3, -1.0, 2),)
        )
        assert spec.shapes[-1] == ("grid", 1, 7, 7)
        assert any("uncovered" in note for note in spec.coverage_notes)

    def test_7x7_conv2_stride2_gives_3x3(self):
        spec = NetworkSpec((7, 7), (conv_layer(((0.5,) * 2,) * 2, -1.0, 2),))
        assert spec.shapes[-1] == ("grid", 1, 3, 3)

    def test_dense_arity_mismatch_names_layer(self):
        with pytest.raises(ShapeError, match="layer 1"):
            NetworkSpec((2, 2), (DenseStep(((1.0,) * 3,), (0.0,)),))

    def test_filter_larger_than_input(self):
        with pytest.raises(ShapeError):
            NetworkSpec((2, 2), (conv_layer(((1.0,) * 3,) * 3, 0.0, 1),))

    @pytest.mark.parametrize(
        "layer, what",
        [
            (conv_layer(((1.0,) * 3,) * 3, 0.0, 1), "filter window"),
            (MaxPoolOr((3, 3), 1), "pool window"),
        ],
        ids=["conv", "pool"],
    )
    def test_window_geometry_texts(self, layer, what):
        with pytest.raises(ShapeError) as exc:
            NetworkSpec((2, 2), (layer,))
        assert str(exc.value) == "layer 1: %s 3 exceeds input size 2" % what
        half = (
            conv_layer(((0.5,) * 2,) * 2, -1.0, 2)
            if isinstance(layer, ConvStep)
            else MaxPoolOr((2, 2), 2)
        )
        spec = NetworkSpec((5, 5), (half,))
        assert spec.shapes[-1] == ("grid", 1, 2, 2)
        assert spec.coverage_notes == (
            "layer 1 leaves 1 rows and 1 columns uncovered (no padding)",
        )

    def test_conv_after_dense_rejected(self):
        with pytest.raises(ShapeError, match="layer 2"):
            NetworkSpec(
                (2, 2),
                (
                    DenseStep(((1.0,) * 4,), (0.0,)),
                    conv_layer(((1.0,),), 0.0, 1),
                ),
            )

    def test_exact_cover_has_no_notes(self):
        spec = NetworkSpec((4, 4), (conv_layer(((0.5,) * 2,) * 2, -1.0, 2),))
        assert spec.coverage_notes == ()

    def test_coverage_notes_are_derived_not_given(self):
        layers = (conv_layer(((0.5,) * 2,) * 2, -1.0, 2),)
        with pytest.raises(TypeError):
            NetworkSpec((4, 4), layers, coverage_notes=("made up",))

    def test_covered_pixels_excludes_borders(self):
        spec = NetworkSpec((5, 5), (conv_layer(((0.5,) * 2,) * 2, -1.0, 2),))
        covered = covered_pixels(spec)
        border = {4, 9, 14, 19, 20, 21, 22, 23, 24}
        assert covered == set(range(25)) - border


class TestLoadSpec:
    def test_fixture_loads(self):
        spec = read_spec(FIXTURE)
        assert spec.input_shape == (4, 4)
        assert spec.output_count == 1

    def test_declared_outputs_checked(self):
        with open(FIXTURE) as fp:
            doc = json.load(fp)
        doc["outputs"] = 3
        with pytest.raises(ShapeError):
            load_spec(json.dumps(doc))

    def test_bad_json_reported(self):
        with pytest.raises(ValueError, match="JSON"):
            load_spec("{not json")

    def test_unknown_layer_type(self):
        with pytest.raises(ValueError, match="unknown type"):
            load_spec(
                '{"input": {"h": 2, "w": 2}, "layers": [{"type": "softmax"}]}'
            )

    @pytest.mark.parametrize(
        "layers, message",
        [
            ([1], "layer 1: expected an object"),
            (
                [{"type": "dense_step", "weights": [[1, 1, 1, 1]]}],
                "layer 1: missing field 'bias'",
            ),
            (
                [{"type": "dense_step", "weights": 5, "bias": [0]}],
                "layer 1: ",
            ),
            (
                [
                    {"type": "maxpool_or", "window": [1, 1], "stride": 1},
                    {"type": "maxpool_or", "window": [1], "stride": "x"},
                ],
                "layer 2: ",
            ),
            (
                [
                    {"type": "maxpool_or", "window": [1, 1], "stride": 1},
                    {
                        "type": "conv_step",
                        "filters": [{"weights": [[[float("nan")]]], "bias": 0}],
                        "stride": 1,
                    },
                ],
                "layer 2: filter weights[channel][row][col] holds nan, not a finite number",
            ),
            (
                [
                    {
                        "type": "conv_step",
                        "filters": [{"weights": [[[1]]], "bias": True}],
                        "stride": 1,
                    }
                ],
                "layer 1: filter bias holds True, not a finite number",
            ),
            (
                [{"type": "dense_step", "weights": [["0.5", 1, 1, 1]], "bias": [-1]}],
                "layer 1: dense weights[out][in] holds '0.5', not a finite number",
            ),
            (
                [{"type": "dense_step", "weights": [[1, False, 1, 1]], "bias": [-1]}],
                "layer 1: dense weights[out][in] holds False, not a finite number",
            ),
            (
                [{"type": "dense_step", "weights": [[1, 1, 1, 1]], "bias": [-float("inf")]}],
                "layer 1: dense bias[out] holds -inf, not a finite number",
            ),
            (
                [{"type": "dense_step", "weights": [[1, 1, 1, 1]], "bias": [10**400]}],
                "layer 1: dense bias[out] holds 1000",
            ),
        ],
    )
    def test_malformed_layer_names_it(self, layers, message):
        doc = {"input": {"h": 2, "w": 2}, "layers": layers}
        with pytest.raises(ValueError) as exc:
            load_spec(json.dumps(doc))
        assert str(exc.value).startswith(message)

    def test_layers_must_be_a_list(self):
        with pytest.raises(ValueError, match="'layers' must be a list"):
            load_spec('{"input": {"h": 2, "w": 2}, "layers": 5}')

    @staticmethod
    def sized_doc():
        return {
            "input": {"h": 2, "w": 2},
            "layers": [
                {
                    "type": "conv_step",
                    "filters": [{"weights": [[[1.0]]], "bias": -0.5}],
                    "stride": 1,
                },
                {"type": "maxpool_or", "window": [1, 1], "stride": 1},
            ],
            "outputs": 4,
        }

    def test_integer_sizes_load(self):
        spec = load_spec(json.dumps(self.sized_doc()))
        assert spec.input_shape == (2, 2)
        assert spec.output_count == 4

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["input"].update(h=2.7), "'input' h must be an integer"),
            (lambda d: d["input"].update(h=2.0), "'input' h must be an integer"),
            (lambda d: d["input"].update(w=True), "'input' w must be an integer"),
            (lambda d: d.update(outputs=4.0), "'outputs' must be an integer"),
            (lambda d: d.update(outputs="4"), "'outputs' must be an integer"),
            (lambda d: d["layers"][0].update(stride=1.0), "layer 1: stride"),
            (lambda d: d["layers"][0].update(stride=True), "layer 1: stride"),
            (lambda d: d["layers"][1].update(stride=True), "layer 2: stride"),
            (lambda d: d["layers"][1].update(window=[1.9, 1]), "layer 2: window"),
            (lambda d: d["layers"][1].update(window=[1, False]), "layer 2: window"),
        ],
        ids=[
            "h-float",
            "h-integral-float",
            "w-bool",
            "outputs-float",
            "outputs-string",
            "conv-stride-float",
            "conv-stride-bool",
            "pool-stride-bool",
            "window-float",
            "window-bool",
        ],
    )
    def test_sizes_must_be_json_integers(self, edit, message):
        doc = self.sized_doc()
        edit(doc)
        with pytest.raises(ValueError) as exc:
            load_spec(json.dumps(doc))
        assert str(exc.value).startswith(message)


class TestForwardEval:
    def test_decides_at_printed_decimals(self):
        # 0.1 + 0.7 - 0.8 is exactly 0, but about -1.1e-16 in float
        assert 0.1 + 0.7 - 0.8 < 0
        dense = NetworkSpec((1, 2), (DenseStep(((0.1, 0.7),), (-0.8,)),))
        conv = NetworkSpec((1, 2), (conv_layer(((0.1, 0.7),), -0.8, 1),))
        for spec in (dense, conv):
            assert forward_eval(spec, (1, 1)) == (1,)
            assert forward_eval(spec, (0, 1)) == (0,)
            assert compile_network(spec, 1).evaluate((1, 1)) == (1,)

    def test_zero_image_fires_nonnegative_bias_conv(self):
        spec = NetworkSpec((4, 4), (conv_layer(((0.5,) * 2,) * 2, 0.0, 2),))
        assert forward_eval(spec, (0,) * 16) == (1,) * 4

    def test_dense_counts_pixels(self):
        spec = NetworkSpec((2, 2), (DenseStep(((1.0,) * 4,), (-2.0,)),))
        for x in all_instances(4):
            assert forward_eval(spec, x) == (1 if sum(x) >= 2 else 0,)

    def test_pool_is_disjunction(self):
        spec = NetworkSpec((2, 2), (MaxPoolOr((2, 2), 1),))
        for x in all_instances(4):
            assert forward_eval(spec, x) == (1 if any(x) else 0,)

    def test_size_mismatch(self):
        spec = NetworkSpec((2, 2), (MaxPoolOr((2, 2), 1),))
        with pytest.raises(ValueError):
            forward_eval(spec, (0, 1))


class TestCompileNetwork:
    def test_identity_single_pixel(self):
        spec = NetworkSpec((1, 1), (DenseStep(((1.0,),), (-1.0,)),))
        net = compile_network(spec, 0)
        assert net.outputs[0] == net.manager.literal(0)

    def test_two_by_two_majority_count(self):
        spec = NetworkSpec((2, 2), (DenseStep(((1.0,) * 4,), (-2.0,)),))
        net = compile_network(spec, 0)
        assert net.manager.model_count(net.outputs[0]) == 11

    def test_fixture_agrees_with_forward_eval_sampled(self):
        spec = read_spec(FIXTURE)
        net = compile_network(spec, 2)
        rng = random.Random(8)
        for _ in range(500):
            x = bits_of(rng.getrandbits(16), 16)
            assert net.evaluate(x) == forward_eval(spec, x)
        net.manager.audit(net.outputs[0])

    def test_pool_network_compiles(self):
        spec = NetworkSpec(
            (4, 4),
            (
                conv_layer(((0.5, 0.5), (0.5, 0.5)), -0.5, 2),
                MaxPoolOr((2, 2), 1),
            ),
        )
        net = compile_network(spec, 1)
        rng = random.Random(9)
        for _ in range(300):
            x = bits_of(rng.getrandbits(16), 16)
            assert net.evaluate(x) == forward_eval(spec, x)

    def test_multi_filter_multi_channel(self):
        # two filters feeding a two-channel second conv, then dense
        first = ConvStep(
            (
                ConvFilter((((0.5, -0.5), (0.25, 0.25)),), -0.25),
                ConvFilter((((-0.25, 0.5), (0.5, -0.25)),), 0.0),
            ),
            2,
        )
        second = ConvStep(
            (
                ConvFilter(
                    (((0.5, 0.25), (-0.25, 0.5)), ((0.25, 0.25), (0.5, -0.5))),
                    -0.5,
                ),
            ),
            1,
        )
        dense = DenseStep(((1.0,),), (-1.0,))
        spec = NetworkSpec((4, 4), (first, second, dense))
        net = compile_network(spec, 2)
        rng = random.Random(10)
        for _ in range(400):
            x = bits_of(rng.getrandbits(16), 16)
            assert net.evaluate(x) == forward_eval(spec, x)

    def test_larger_fixture_agrees_on_many_random_images(self):
        # 6x6 input: too many images to enumerate, so sample heavily
        first = ConvStep(
            (
                ConvFilter((((0.5, -0.25), (0.25, 0.5)),), -0.25),
                ConvFilter((((-0.5, 0.25), (0.5, 0.25)),), 0.0),
            ),
            2,
        )
        pool = MaxPoolOr((2, 2), 1)
        dense = DenseStep(((0.75, 0.5, 0.5, 0.75, -0.5, 0.25, 0.25, -0.5),), (-1.0,))
        spec = NetworkSpec((6, 6), (first, pool, dense))
        net = compile_network(spec, 2)
        rng = random.Random(12)
        for _ in range(10_000):
            x = bits_of(rng.getrandbits(36), 36)
            assert net.evaluate(x) == forward_eval(spec, x)

    def test_uncovered_pixels_never_in_support(self):
        spec = NetworkSpec(
            (5, 5),
            (
                conv_layer(((0.5, 0.25), (0.25, 0.5)), -0.5, 2),
                DenseStep(((1.0, -1.0, 1.0, 1.0),), (-1.0,)),
            ),
        )
        net = compile_network(spec, 2)
        support = set()
        for out in net.outputs:
            support |= net.manager.support(out)
        touched = {net.input_order[v] for v in support}
        assert touched <= covered_pixels(spec)

    def test_custom_pixel_order(self):
        spec = read_spec(FIXTURE)
        order = tuple(reversed(range(16)))
        net = compile_network(spec, 2, order_policy=order)
        rng = random.Random(11)
        for _ in range(200):
            x = bits_of(rng.getrandbits(16), 16)
            assert net.evaluate(x) == forward_eval(spec, x)

    def test_budget_abort_names_layer(self):
        spec = read_spec(FIXTURE)
        with pytest.raises(BudgetExceededError, match="layer 1"):
            compile_network(spec, 2, node_budget=20)

    def test_block_order_budget_abort_in_a_graft_names_layer(self):
        spec = read_spec(FIXTURE)
        # pixels 2x2 block by block, so every window's pixels are contiguous
        order = tuple(
            (br + i) * 4 + bc + j
            for br in (0, 2)
            for bc in (0, 2)
            for i in (0, 1)
            for j in (0, 1)
        )
        net = compile_network(spec, 2, order_policy=order)
        assert net.manager._ite_cache == {}  # every composed node is a graft copy
        budget = net.manager.allocated - 1
        with pytest.raises(BudgetExceededError) as exc:
            compile_network(spec, 2, order_policy=order, node_budget=budget)
        assert str(exc.value) == (
            "node budget of %d exhausted while compiling layer 2 of 2 (DenseStep)"
            % budget
        )

    def test_budget_abort_on_input_wires(self):
        spec = read_spec(FIXTURE)
        with pytest.raises(BudgetExceededError, match="input wires"):
            compile_network(spec, 2, node_budget=4)

    def test_wire_sharing_reuses_identical_windows(self):
        # one filter diagram is composed over each of the four windows
        spec = NetworkSpec(
            (4, 4),
            (conv_layer(((0.5, 0.5), (0.5, 0.5)), -0.5, 2),),
        )
        net = compile_network(spec, 1)
        assert len(net.outputs) == 4
        for x in seeded_images(16, 256, seed=13):
            assert net.evaluate(x) == forward_eval(spec, x)


def seeded_images(n, count, seed):
    rng = random.Random(seed)
    return [bits_of(rng.getrandbits(n), n) for _ in range(count)]


def step(weights, bias, inputs):
    """A threshold unit written out; weights and bias are exact binary floats."""
    return 1 if sum(w * v for w, v in zip(weights, inputs)) + bias >= 0 else 0


class TestDenseInputOrder:
    """Dense units read the previous layer channel, then row, then column.

    The expected outputs come from loops written here, not from the
    window helper that both `forward_eval` and `compile_network` share.
    """

    # filter ch reads the pixel at offset (ch, ch) of each 2x2 stride-2 window
    CONV = ConvStep(
        (
            ConvFilter((((1.0, 0.0), (0.0, 0.0)),), -1.0),
            ConvFilter((((0.0, 0.0), (0.0, 1.0)),), -1.0),
        ),
        2,
    )
    DENSE = (1.0, 2.0, 3.0, 5.0, -1.5, -2.5, -4.0, -6.0)
    BIAS = -0.5

    def conv_planes(self, x):
        planes = []
        for ch in range(2):
            plane = []
            for r in range(2):
                plane.append([x[(2 * r + ch) * 4 + 2 * c + ch] for c in range(2)])
            planes.append(plane)
        return planes

    def expected(self, x, channel_first=True):
        planes = self.conv_planes(x)
        flat = []
        if channel_first:
            for ch in range(2):
                for r in range(2):
                    for c in range(2):
                        flat.append(planes[ch][r][c])
        else:
            for r in range(2):
                for c in range(2):
                    for ch in range(2):
                        flat.append(planes[ch][r][c])
        return (step(self.DENSE, self.BIAS, flat),)

    def images(self):
        # every assignment of the eight pixels the filters read, with the
        # other eight pixels all 0 or all 1
        read = [
            (2 * r + ch) * 4 + 2 * c + ch
            for ch in range(2)
            for r in range(2)
            for c in range(2)
        ]
        for bits in all_instances(8):
            for fill in (0, 1):
                x = [fill] * 16
                for pixel, b in zip(read, bits):
                    x[pixel] = b
                yield tuple(x)

    def test_conv_then_dense_is_channel_major(self):
        spec = NetworkSpec((4, 4), (self.CONV, DenseStep((self.DENSE,), (self.BIAS,))))
        net = compile_network(spec, 1)
        images = list(self.images())
        # the order matters: row-first reading changes some labels
        assert any(self.expected(x) != self.expected(x, channel_first=False) for x in images)
        for x in images:
            assert forward_eval(spec, x) == self.expected(x)
            assert net.evaluate(x) == self.expected(x)

    def test_dense_stack_on_two_by_two(self):
        first = (((1.0, 2.0, -1.0, 0.5), (-1.0, 1.0, 2.0, -0.5)), (-1.0, 0.0))
        second = (((1.0, -1.0), (1.0, 1.0)), (-1.0, -2.0))
        third = (((1.0, -1.0), (-1.0, 1.0)), (-1.0, -1.0))
        layers = (first, second, third)
        spec = NetworkSpec((2, 2), tuple(DenseStep(w, b) for w, b in layers))
        net = compile_network(spec, 1)
        outputs = set()
        for x in all_instances(4):
            wires = list(x)
            for weights, biases in layers:
                wires = [step(w, b, wires) for w, b in zip(weights, biases)]
            outputs.add(tuple(wires))
            assert forward_eval(spec, x) == tuple(wires)
            assert net.evaluate(x) == tuple(wires)
        assert len(outputs) > 1


class TestCompileCalls:
    def test_one_pseudo_per_unit_and_one_compose_per_window(self, monkeypatch):
        arities, composes = [], []
        real_pseudo, real_compose = network.compile_pseudo, Manager.compose

        def pseudo(unit, manager):
            arities.append(unit.arity)
            return real_pseudo(unit, manager)

        def compose(mgr, f, subs):
            composes.append(len(subs))
            return real_compose(mgr, f, subs)

        monkeypatch.setattr(network, "compile_pseudo", pseudo)
        monkeypatch.setattr(Manager, "compose", compose)
        conv = ConvStep(
            (
                ConvFilter((((0.5, -0.25), (0.25, 0.5)),), -0.25),
                ConvFilter((((-0.5, 0.5), (0.5, -0.25)),), 0.0),
            ),
            2,
        )
        dense = DenseStep(((1.0, -1.0), (-1.0, 1.0), (0.5, 0.5)), (-1.0, -1.0, -1.0))
        spec = NetworkSpec((4, 4), (conv, MaxPoolOr((2, 2), 2), dense))
        net = compile_network(spec, 2)
        assert arities == [4, 4, 2, 2, 2]
        assert composes == [4] * 8 + [2] * 3
        for x in seeded_images(16, 256, seed=14):
            assert net.evaluate(x) == forward_eval(spec, x)

    def test_one_pseudo_per_unit_when_windows_disagree(self, monkeypatch):
        arities = []
        real_pseudo = network.compile_pseudo

        def pseudo(unit, manager):
            arities.append(unit.arity)
            return real_pseudo(unit, manager)

        monkeypatch.setattr(network, "compile_pseudo", pseudo)
        spec = seeded_conv_dense(8, 2, seed=20)
        order = shuffled_blocks(8, 21)
        var_of_pixel = {p: v for v, p in enumerate(order)}
        orders = set()
        for r0 in range(0, 8, 2):
            for c0 in range(0, 8, 2):
                window = [var_of_pixel[(r0 + i) * 8 + c0 + j] for i in (0, 1) for j in (0, 1)]
                orders.add(tuple(sorted(range(4), key=window.__getitem__)))
        assert len(orders) > 1  # the windows disagree on their pixels' variable order
        net = compile_network(spec, 1, order_policy=order)
        # still one call per unit, in the first window's order
        assert arities == [4, 4, 32]
        for x in seeded_images(64, 128, seed=22):
            assert net.evaluate(x) == forward_eval(spec, x)

    def test_placeholder_managers_never_index_a_node(self, monkeypatch):
        # compose reads a placeholder diagram's node store only; the network
        # manager's own calls index its pending copies and are not counted
        calls = index_spy(monkeypatch)
        placeholders = []
        real_pseudo = network.compile_pseudo

        def pseudo(unit, manager):
            placeholders.append(manager)
            return real_pseudo(unit, manager)

        monkeypatch.setattr(network, "compile_pseudo", pseudo)
        spec = read_spec(FIXTURE)
        net = compile_network(spec, 2)
        indexed = [n for mgr, n in calls if any(mgr is p for p in placeholders)]
        assert len(placeholders) == 2 and len(indexed) >= len(placeholders)
        assert not any(indexed)
        assert all(p._unique == {} and p._unindexed == 2 for p in placeholders)
        for x in seeded_images(16, 64, seed=15):
            assert net.evaluate(x) == forward_eval(spec, x)


class TestComposeDepth:
    """A 1,024-input neuron compiles without deep recursion in `compose`."""

    @pytest.mark.parametrize("bias", [-1.0, -1024.0], ids=["or", "and"])
    def test_32x32_single_dense_neuron(self, bias):
        spec = NetworkSpec((32, 32), (DenseStep(((1.0,) * 1024,), (bias,)),))
        net = compile_network(spec, 0)
        assert net.manager.node_count(net.outputs[0]) == 1024
        rng = random.Random(1024)
        for x in ((1,) * 1024, (0,) * 1024, bits_of(rng.getrandbits(1024), 1024)):
            assert net.evaluate(x) == forward_eval(spec, x)


class TestComposeGraftsBlockOrder:
    def test_conv_then_dense_needs_no_ite(self):
        # block order puts every window's pixels, and every dense input's
        # support, before the variables of the inputs that follow it
        rng = random.Random(16)
        weights = tuple(
            tuple(round(rng.uniform(-2, 2), 1) for _ in range(4)) for _ in range(4)
        )
        conv = conv_layer(weights, -1.0, 4)
        rows = tuple(
            tuple(rng.choice((-1.0, 1.0, 2.0)) for _ in range(16)) for _ in range(2)
        )
        dense = DenseStep(rows, (-3.0, -5.0))
        spec = NetworkSpec((16, 16), (conv, dense))
        net = compile_network(spec, 1, order_policy=block_order(16, 4))
        assert len(net.manager._ite_cache) == 0
        for _ in range(100):
            x = bits_of(rng.getrandbits(256), 256)
            assert net.evaluate(x) == forward_eval(spec, x)


class TestComposePending:
    """Every compose of a block-order net grafts, and leaves its copies out of
    the unique table until a later lookup needs them."""

    @pytest.mark.parametrize("site", ["ite", "read", "audit"])
    def test_copies_stay_pending_until_a_lookup(self, monkeypatch, site):
        calls = []
        real_compose = Manager.compose

        def compose(mgr, f, subs):
            before = mgr.stats()
            out = real_compose(mgr, f, subs)
            calls.append((before, mgr.stats(), f, subs))
            return out

        monkeypatch.setattr(Manager, "compose", compose)
        rng = random.Random(33)
        conv = conv_layer(
            tuple(tuple(round(rng.uniform(-1, 1), 1) for _ in range(2)) for _ in range(2)), -0.2, 2
        )
        rows = tuple(tuple(rng.choice((-1.0, 1.0, 2.0)) for _ in range(16)) for _ in range(2))
        spec = NetworkSpec((8, 8), (conv, DenseStep(rows, (-3.0, -4.0))))
        net = compile_network(spec, 1, order_policy=block_order(8, 2))
        m, out = net.manager, net.outputs[1]
        assert len(calls) == 16 + 2
        for before, after, _, _ in calls:
            assert after["ite_entries"] == 0  # every placeholder node grafted
            # the call indexes only what was pending before it, and makes
            # every copy pending
            assert after["indexed"] == before["indexed"] + before["pending"]
            assert after["pending"] == after["allocated"] - before["allocated"]
        _, last, f, subs = calls[-1]
        assert last == m.stats() and last["pending"] > 0
        allocated = m.allocated
        if site == "ite":  # the same substitution, one ite per placeholder node
            assert ite_compose(m, f, subs) == out.i
        elif site == "read":
            buf = io.StringIO()
            write_obdd(out, buf)
            assert read_obdd(io.StringIO(buf.getvalue()), m) == out
        else:
            for g in net.outputs:
                m.audit(g)
        assert m.allocated == allocated and m.stats()["pending"] == 0
        check_unique_tables(m)
        for _ in range(64):
            x = bits_of(rng.getrandbits(64), 64)
            assert net.evaluate(x) == forward_eval(spec, x)


def shuffled_order(pixels, seed):
    order = list(range(pixels))
    random.Random(seed).shuffle(order)
    return tuple(order)


def shuffled_blocks(size, seed):
    """2x2 blocks in a seeded order, each one's pixels in a seeded order.

    Windows that are the blocks then disagree on their pixels' order, while
    the diagrams stay as small as in block order.
    """
    rng = random.Random(seed)
    blocks = [block_order(size, 2)[k : k + 4] for k in range(0, size * size, 4)]
    rng.shuffle(blocks)
    return tuple(p for block in blocks for p in rng.sample(block, 4))


def seeded_conv_dense(size, filters, seed):
    """``size`` x ``size`` input, ``filters`` 2x2 stride-2 filters, dense(1)."""
    rng = random.Random(seed)

    def weight():
        return round(rng.uniform(-1, 1), 1)

    conv = ConvStep(
        tuple(
            ConvFilter((((weight(), weight()), (weight(), weight())),), weight())
            for _ in range(filters)
        ),
        2,
    )
    width = filters * (size // 2) ** 2
    dense = DenseStep((tuple(weight() for _ in range(width)),), (-0.3,))
    return NetworkSpec((size, size), (conv, dense))


def window_order_outputs(spec, digits, net):
    """``net``'s outputs rebuilt in its manager, each unit composed over its
    window in channel-major order, whatever the wires' variables."""
    mgr = net.manager
    h, w = spec.input_shape
    var_of_pixel = {p: v for v, p in enumerate(net.input_order)}
    wires = [[[mgr.literal(var_of_pixel[r * w + c]) for c in range(w)] for r in range(h)]]
    for layer in spec.layers:
        units, windows = network._threshold_layer(wires, layer)
        wires = []
        for real in units:
            f = compile_pseudo(quantize(real, digits), Manager(len(windows[0][0])))
            wires.append([[mgr.compose(f, b) for b in row] for row in windows])
    return network._flatten_wires(wires)


def reversed_blocks(size):
    """Block order with each 2x2 block's pixels reversed: every window then
    lists its pixels in the opposite order to its diagram variables."""
    order = block_order(size, 2)
    return tuple(p for k in range(0, size * size, 4) for p in reversed(order[k : k + 4]))


class TestComposeInVariableOrder:
    """Each unit is composed over its wires in the order of their top variables."""

    ORDERS = {
        "raster": lambda size: None,
        "block": lambda size: block_order(size, 2),
        "shuffled-blocks": lambda size: shuffled_blocks(size, 17),
        # on 6x6, a diagram in a random order has some 430,000 nodes
        "shuffled": lambda size: shuffled_order(size * size, 17),
    }

    @pytest.mark.parametrize(
        "size, order",
        [(4, order) for order in ORDERS] + [(6, order) for order in list(ORDERS)[:3]],
    )
    @pytest.mark.parametrize("filters", [2, 3])
    def test_same_diagrams_as_window_order(self, filters, size, order):
        spec = seeded_conv_dense(size, filters, seed=10 * size + filters)
        net = compile_network(spec, 1, order_policy=self.ORDERS[order](size))
        assert list(net.outputs) == window_order_outputs(spec, 1, net)

    def test_agrees_with_forward_eval_on_every_image(self):
        spec = seeded_conv_dense(4, 2, seed=42)
        net = compile_network(spec, 1)
        for x in all_instances(16):
            assert net.evaluate(x) == forward_eval(spec, x)

    def test_grid_net_allocation(self):
        # the shape of the benchmark's grid nets: 893 nodes composed in window
        # order, 383 in variable order
        conv = ConvStep(
            (
                ConvFilter((((0.2, -0.4), (0.1, 0.3)),), -0.2),
                ConvFilter((((0.2, 0.1), (-0.4, 0.3)),), -0.2),
            ),
            2,
        )
        dense = DenseStep(((0.1, 0.6, 0.3, 0.5, -0.8, 0.7, -0.4, 0.2),), (-1.0,))
        spec = NetworkSpec((4, 4), (conv, dense))
        net = compile_network(spec, 1)
        assert net.manager.allocated < 450
        for x in seeded_images(16, 256, seed=23):
            assert net.evaluate(x) == forward_eval(spec, x)

    def test_reversed_conv_windows_all_graft(self):
        spec = NetworkSpec(
            (6, 6),
            (
                ConvStep(
                    (
                        ConvFilter((((0.5, -0.25), (0.25, 0.5)),), -0.25),
                        ConvFilter((((-0.5, 0.5), (0.5, -0.25)),), 0.0),
                    ),
                    2,
                ),
            ),
        )
        net = compile_network(spec, 2, order_policy=reversed_blocks(6))
        assert net.manager._ite_cache == {}
        for x in seeded_images(36, 256, seed=19):
            assert net.evaluate(x) == forward_eval(spec, x)


class TestOrderPolicy:
    SPEC = NetworkSpec((1, 2), (DenseStep(((1.0, 1.0),), (-1.0,)),))

    @pytest.mark.parametrize("order", [(1.0, 0.0), (True, False)], ids=["float", "bool"])
    def test_entries_must_be_ints(self, order):
        with pytest.raises(ValueError, match="must be integers"):
            compile_network(self.SPEC, 0, order_policy=order)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            compile_network(self.SPEC, 0, order_policy=(0, 0))
