"""Threshold units: exact integer form, quantization, the compiler."""

import random
from fractions import Fraction

import pytest

from nnobdd import (
    IntThresholdUnit,
    LinearThresholdUnit,
    Manager,
    QuantizationError,
    Unateness,
    compile_pseudo,
    format_neuron,
    parse_neuron,
    quantize,
    unateness,
)

from oracles import all_instances, compile_exact

WORKED = LinearThresholdUnit((1.15, 0.95, -1.05), -0.52)


def random_int_unit(rng, max_n=12, max_w=20):
    n = rng.randint(1, max_n)
    weights = tuple(rng.randint(-max_w, max_w) for _ in range(n))
    bound = sum(abs(w) for w in weights) + 1
    return IntThresholdUnit(weights, rng.randint(-bound, bound))


class TestThresholdForm:
    def test_worked_example_threshold(self):
        exact = WORKED.exact
        assert exact.threshold == 52
        assert exact.weights == (115, 95, -105)

    def test_zero_unit_is_constant_true(self):
        unit = LinearThresholdUnit((0.0, 0.0), 0.0)
        assert all(unit.fires(x) == 1 for x in all_instances(2))

    def test_unreachable_threshold_is_constant_false(self):
        unit = LinearThresholdUnit((1.0,), -2.0)
        assert unit.fires((0,)) == 0 and unit.fires((1,)) == 0

    def test_form_semantics_match_bias_form(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(1, 6)
            unit = LinearThresholdUnit(
                tuple(rng.uniform(-2, 2) for _ in range(n)), rng.uniform(-2, 2)
            )
            for x in all_instances(n):
                value = unit.activation(x)
                if abs(value) > 1e-9:  # away from the float rounding margin
                    assert unit.exact.fires(x) == (1 if value >= 0 else 0)


def fraction_fires(weights, threshold, x):
    """Reference step: exact decimals as Fractions, summed on every call."""
    total = sum((Fraction(str(w)) for w, b in zip(weights, x) if b), Fraction(0))
    return 1 if total >= Fraction(str(threshold)) else 0


class TestExactFires:
    POOL = (1.15, 0.95, -1.05, 1e-05, -1e-05, 0.1, 0.2, -0.3, 2.0, -7.0, 123.456)

    def check(self, unit, n):
        for x in all_instances(n):
            expected = fraction_fires(unit.weights, -unit.bias, x)
            assert unit.fires(x) == expected
            assert unit.exact.fires(x) == expected

    def test_worked_example(self):
        self.check(WORKED, 3)

    def test_random_units_match_fraction_reference(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(1, 6)
            weights = tuple(
                rng.choice(self.POOL)
                if rng.random() < 0.5
                else round(rng.uniform(-3, 3), rng.randint(0, 6))
                for _ in range(n)
            )
            if rng.random() < 0.5:  # a bias that some instance meets exactly
                on = [w for w in weights if rng.random() < 0.5]
                bias = -float(sum((Fraction(str(w)) for w in on), Fraction(0)))
            else:
                bias = rng.choice(self.POOL)
            self.check(LinearThresholdUnit(weights, bias), n)


class TestQuantize:
    def test_worked_example_two_digits(self):
        q = quantize(WORKED, 2)
        assert q.weights == (115, 95, -105)
        assert q.threshold == 52
        assert q.magnitude == 367

    def test_truncation_to_zero(self):
        q = quantize(LinearThresholdUnit((0.9, -0.9), -0.5), 0)
        assert q.weights == (0, 0)
        assert q.threshold == 0
        assert all(q.fires(x) == 1 for x in all_instances(2))

    def test_truncate_is_toward_zero(self):
        q = quantize(LinearThresholdUnit((-1.9, 1.9), 0.0), 0)
        assert q.weights == (-1, 1)

    def test_nearest_mode(self):
        q = quantize(LinearThresholdUnit((0.06, -0.06), -0.1), 1, mode="nearest")
        assert q.weights == (1, -1)

    def test_only_real_units(self):
        with pytest.raises(TypeError):
            quantize(IntThresholdUnit((1, 2), 1), 0)

    def test_digits_out_of_range(self):
        with pytest.raises(ValueError):
            quantize(WORKED, 10)

    def test_overflow_is_reported(self):
        with pytest.raises(QuantizationError):
            quantize(LinearThresholdUnit((1e18,), 0.0), 9)

    def test_lossless_quantization_preserves_decisions(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 10)
            # weights with exactly two decimal digits: quantizing at 2 is exact
            unit = LinearThresholdUnit(
                tuple(rng.randint(-300, 300) / 100 for _ in range(n)),
                rng.randint(-300, 300) / 100,
            )
            q = quantize(unit, 2)
            for x in all_instances(n):
                assert q.fires(x) == unit.fires(x)


class TestCompilePseudo:
    def test_worked_example_formula(self):
        m = Manager(3)
        f = compile_pseudo(quantize(WORKED, 2), m)
        a, b, c = (m.literal(v) for v in range(3))
        assert f == ((~c & (a | b)) | (c & a & b))

    def test_worked_example_conditioned_on_last_input(self):
        # with the negative-weight input on, both positive inputs are needed
        m = Manager(3)
        f = compile_pseudo(quantize(WORKED, 2), m)
        assert m.condition(f, 2, 1) == (m.literal(0) & m.literal(1))

    def test_all_zero_weights_false(self):
        m = Manager(2)
        assert compile_pseudo(IntThresholdUnit((0, 0), 1), m) == m.false

    def test_empty_unit(self):
        m = Manager(0)
        assert compile_pseudo(IntThresholdUnit((), 0), m) == m.true
        assert compile_pseudo(IntThresholdUnit((), 1), m) == m.false

    def test_random_units_equal_exact_oracle(self):
        rng = random.Random(2024)
        for _ in range(200):
            unit = random_int_unit(rng)
            m = Manager(unit.arity)
            assert compile_pseudo(unit, m) == compile_exact(unit, m)

    def test_soundness_exhaustive(self):
        rng = random.Random(99)
        for _ in range(60):
            unit = random_int_unit(rng, max_n=10)
            m = Manager(unit.arity)
            f = compile_pseudo(unit, m)
            for x in all_instances(unit.arity):
                assert m.evaluate(f, x) == unit.fires(x)
            m.audit(f)

    def test_size_bound(self):
        rng = random.Random(123)
        for _ in range(60):
            unit = random_int_unit(rng, max_n=12, max_w=30)
            m = Manager(unit.arity)
            f = compile_pseudo(unit, m)
            n, w = unit.arity, unit.magnitude
            assert m.node_count(f) <= n * (2 * w + 1) + 2

    def test_monotone_unit_is_positively_unate(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 8)
            weights = tuple(rng.randint(0, 9) for _ in range(n))
            unit = IntThresholdUnit(weights, rng.randint(0, sum(weights) + 1))
            m = Manager(n)
            f = compile_pseudo(unit, m)
            for v in range(n):
                assert unateness(f, v) in (Unateness.POSITIVE, Unateness.UNUSED)

    def test_scaling_invariance(self):
        rng = random.Random(31)
        for _ in range(30):
            unit = random_int_unit(rng, max_n=8, max_w=9)
            scaled = IntThresholdUnit(
                tuple(7 * w for w in unit.weights), 7 * unit.threshold
            )
            m = Manager(unit.arity)
            assert compile_pseudo(unit, m) == compile_pseudo(scaled, m)

    def test_manager_width_must_match(self):
        with pytest.raises(ValueError):
            compile_pseudo(IntThresholdUnit((1, 1), 1), Manager(3))


class TestCompileExact:
    def test_worked_example_real_weights(self):
        m = Manager(3)
        f = compile_exact(WORKED, m)
        table = [m.evaluate(f, x) for x in all_instances(3)]
        direct = [WORKED.fires(x) for x in all_instances(3)]
        assert table == direct
        assert m.model_count(f) == 4

    def test_single_input_literal(self):
        m = Manager(1)
        assert compile_exact(IntThresholdUnit((1,), 1), m) == m.literal(0)

    def test_matches_pseudo_on_worked_example(self):
        m = Manager(3)
        q = quantize(WORKED, 2)
        assert compile_exact(q, m) == compile_pseudo(q, m)

    def test_real_units_match_direct_evaluation(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 8)
            unit = LinearThresholdUnit(
                tuple(rng.uniform(-3, 3) for _ in range(n)), rng.uniform(-3, 3)
            )
            m = Manager(n)
            f = compile_exact(unit, m)
            for x in all_instances(n):
                assert m.evaluate(f, x) == unit.fires(x)


class TestNeuronText:
    def test_real_round_trip(self):
        text = format_neuron(WORKED)
        assert parse_neuron(text) == WORKED

    def test_integer_round_trip(self):
        unit = IntThresholdUnit((115, 95, -105), 52)
        assert parse_neuron(format_neuron(unit)) == unit

    def test_comments_and_blanks_ignored(self):
        unit = parse_neuron("# neuron\n\nweights: 1 -2\nthreshold: 0\n")
        assert unit == IntThresholdUnit((1, -2), 0)

    def test_requires_exactly_one_of_bias_threshold(self):
        with pytest.raises(ValueError):
            parse_neuron("weights: 1 2\n")
        with pytest.raises(ValueError):
            parse_neuron("weights: 1 2\nbias: 0\nthreshold: 0\n")

    def test_integer_unit_rejects_real_weights(self):
        with pytest.raises(ValueError):
            parse_neuron("weights: 1.5 2\nthreshold: 0\n")
