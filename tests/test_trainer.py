"""Training determinism, accuracy arithmetic, and the precision sweep."""

import gc
import io
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from nnobdd import (
    IntThresholdUnit,
    LabeledDataset,
    LinearThresholdUnit,
    Manager,
    TrainConfig,
    accuracy,
    compile_pseudo,
    precision_sweep,
    quantize,
    read_dataset_csv,
    train_neuron,
)
from nnobdd import trainer
from oracles import activation, index_spy


def separable(seed=0, rows=80, features=2):
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 2, size=(rows, features))
    return LabeledDataset(feats, feats[:, 0])


class TestDataset:
    def test_round_trip(self):
        data = separable()
        buf = io.StringIO()
        table = np.column_stack([data.features, data.labels])
        np.savetxt(buf, table, fmt="%d", delimiter=",")
        again = read_dataset_csv(io.StringIO(buf.getvalue()))
        assert (again.features == data.features).all()
        assert (again.labels == data.labels).all()

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            LabeledDataset([[0, 2]], [1])

    def test_rejects_ragged_csv(self):
        with pytest.raises(ValueError):
            read_dataset_csv(io.StringIO("0,1,1\n0,1\n"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            read_dataset_csv(io.StringIO(""))

    def test_rows_are_python_ints(self):
        data = LabeledDataset([[0, 1, 1], [1, 0, 0]], [1, 0])
        rows = list(data.rows())
        assert rows == [((0, 1, 1), 1), ((1, 0, 0), 0)]
        for bits, label in rows:
            assert type(bits) is tuple
            assert all(type(b) is int for b in bits)
            assert type(label) is int


class TestTrainNeuron:
    def test_separable_data_reaches_full_accuracy(self):
        data = separable()
        unit = train_neuron(data, TrainConfig(epochs=150))
        assert accuracy(unit, data) == 1

    def test_constant_labels(self):
        feats = np.array([[0, 1], [1, 0], [1, 1]])
        data = LabeledDataset(feats, [1, 1, 1])
        unit = train_neuron(data, TrainConfig(epochs=100))
        assert all(unit.fires(bits) == 1 for bits, _ in data.rows())

    def test_seed_determinism(self):
        data = separable(seed=4)
        cfg = TrainConfig(epochs=60, seed=9)
        assert train_neuron(data, cfg) == train_neuron(data, cfg)

    def test_step_equals_thresholded_sigmoid(self):
        data = separable(seed=5)
        unit = train_neuron(data, TrainConfig(epochs=50))
        for bits, _ in data.rows():
            z = activation(unit, bits)
            sigmoid = 1.0 / (1.0 + math.exp(-z))
            assert (sigmoid >= 0.5) == (z >= 0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_neuron(LabeledDataset(np.zeros((0, 2), dtype=np.uint8), []))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1)


class TestAccuracy:
    def test_perfect_predictor(self):
        data = separable()
        assert accuracy(IntThresholdUnit((1, 0), 1), data) == 1

    def test_complement_predictor(self):
        data = separable()
        unit = IntThresholdUnit((1, 0), 1)
        flipped = IntThresholdUnit((-1, 0), 0)  # fires iff x0 == 0
        assert accuracy(flipped, data) == 1 - accuracy(unit, data)

    def test_hand_count(self):
        data = LabeledDataset(
            [[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 1]
        )
        unit = IntThresholdUnit((1, 1), 1)  # x0 or x1
        assert accuracy(unit, data) == 1
        unit2 = IntThresholdUnit((1, 1), 2)  # x0 and x1
        assert accuracy(unit2, data) == Fraction(2, 4)

    def test_diagram_predictor(self):
        data = LabeledDataset([[0, 0], [1, 1]], [0, 1])
        m = Manager(2)
        f = m.literal(0) & m.literal(1)
        assert accuracy(f, data) == 1

    def test_width_mismatch(self):
        data = separable()
        with pytest.raises(ValueError):
            accuracy(IntThresholdUnit((1, 1, 1), 1), data)


class TestPrecisionSweep:
    def test_zero_digits_truncates_small_weights_to_constant(self):
        data = separable(seed=6)
        unit_small = train_neuron(data, TrainConfig(epochs=1, learning_rate=0.01))
        assert all(abs(w) < 1 for w in unit_small.weights)
        q = quantize(unit_small, 0)
        assert q.weights == (0,) * data.n_features

    def test_rows_cover_requested_range(self):
        data = separable(seed=7)
        unit = train_neuron(data, TrainConfig(epochs=50))
        rows = precision_sweep(unit, data, range(0, 4))
        assert [r.digits for r in rows] == [0, 1, 2, 3]
        assert all(r.status == "ok" for r in rows)

    @staticmethod
    def two_of_six():
        """32 features, labelled by two of the first six; 37 nodes at 0 digits,
        1,200 at 1, 8,909 at 2."""
        rng = np.random.default_rng(12)
        feats = rng.integers(0, 2, size=(100, 32))
        truth = IntThresholdUnit(tuple([1] * 6 + [0] * 26), 2)
        labels = [truth.fires(tuple(int(b) for b in row)) for row in feats]
        data = LabeledDataset(feats, labels)
        return data, train_neuron(data, TrainConfig(epochs=150, seed=2, l2=0.001))

    def test_budget_failures_become_rows(self):
        data, unit = self.two_of_six()
        rows = precision_sweep(unit, data, range(0, 5), node_budget=3000)
        statuses = [r.status for r in rows]
        assert "budget" in statuses
        for row in rows:
            if row.status == "budget":
                assert row.nodes is None
                assert row.accuracy is not None  # accuracy survives the abort

    def test_max_digits_accuracy_matches_unquantized(self):
        # two-decimal weights quantize losslessly at two digits
        data = LabeledDataset(
            [[0, 0], [0, 1], [1, 0], [1, 1]], [0, 0, 1, 1]
        )
        unit = LinearThresholdUnit((0.75, -0.25), -0.5)
        rows = precision_sweep(unit, data, range(0, 3))
        assert rows[-1].accuracy == accuracy(unit, data)

    def test_one_live_manager_when_each_compile_starts(self, monkeypatch):
        # the previous precision's manager is freed before the next compile,
        # without the collector, also after a budget abort
        made = []
        init = Manager.__init__

        def recording_init(self, *args, **kwargs):
            made.append(weakref.ref(self))
            init(self, *args, **kwargs)

        live = []
        compile_at = trainer.compile_pseudo

        def counting_compile(unit, manager):
            live.append(sum(ref() is not None for ref in made))
            return compile_at(unit, manager)

        monkeypatch.setattr(Manager, "__init__", recording_init)
        monkeypatch.setattr(trainer, "compile_pseudo", counting_compile)
        data, unit = self.two_of_six()
        gc.disable()
        try:
            rows = precision_sweep(unit, data, range(0, 3))
            rows += precision_sweep(unit, data, range(0, 4), node_budget=3000)
        finally:
            gc.enable()
        assert [row.status for row in rows] == ["ok"] * 5 + ["budget"] * 2
        assert live == [1] * 7

    def test_sweep_never_indexes_a_node(self, monkeypatch):
        # the rows read only `allocated`, so the nodes stay out of the tables
        indexed = index_spy(monkeypatch)
        managers = []
        compile_at = trainer.compile_pseudo

        def recording_compile(unit, manager):
            managers.append(manager)
            return compile_at(unit, manager)

        monkeypatch.setattr(trainer, "compile_pseudo", recording_compile)
        data, unit = self.two_of_six()
        rows = precision_sweep(unit, data, range(0, 3))
        assert [row.nodes for row in rows] == [37, 1200, 8909]
        assert [n for _, n in indexed] == [0, 0, 0]  # compile_pseudo's own call on entry
        assert all(m._unique == {} and m._unindexed == 2 for m in managers)

    def test_nodes_match_direct_compile(self):
        datasets = [(separable(seed=8), TrainConfig(epochs=80))]
        for seed in (3, 9, 21):
            rng = np.random.default_rng(seed)
            feats = rng.integers(0, 2, size=(60, 10))
            labels = (feats[:, :4].sum(axis=1) >= 2).astype(int)
            datasets.append((LabeledDataset(feats, labels), TrainConfig(epochs=60, seed=seed)))
        for data, config in datasets:
            unit = train_neuron(data, config)
            rows = precision_sweep(unit, data, range(0, 4))
            for row in rows:
                q = quantize(unit, row.digits)
                m = Manager(q.arity)
                assert row.nodes == m.node_count(compile_pseudo(q, m))
            assert any(row.nodes for row in rows)
