"""Threshold units: exact integer form, quantization, the compiler."""

import io
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product

import pytest

from nnobdd import (
    BudgetExceededError,
    IntThresholdUnit,
    LinearThresholdUnit,
    Manager,
    NodeRef,
    QuantizationError,
    Unateness,
    compile_pseudo,
    format_neuron,
    parse_neuron,
    quantize,
    read_obdd,
    unateness,
    write_obdd,
)

from nnobdd.neuron import _residual_levels
from oracles import (
    activation,
    all_instances,
    check_unique_tables,
    compile_exact,
    exact_cells,
    residual_levels,
)

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
                value = activation(unit, x)
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

    def test_every_small_unit_at_every_threshold(self):
        # children leave the next level's range on each side, for weights of
        # both signs and zero, and thresholds one past each decided bound
        count = 0
        for n in range(4):
            for weights in product(range(-3, 4), repeat=n):
                low = sum(v for v in weights if v < 0)
                high = sum(v for v in weights if v > 0)
                m = Manager(n)
                for threshold in range(low - 1, high + 2):
                    unit = IntThresholdUnit(weights, threshold)
                    assert compile_pseudo(unit, m) == compile_exact(unit, m), unit
                    count += 1
        assert count == 3144

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
            labels = unateness(f)
            for v in range(n):
                assert labels[v] in (Unateness.POSITIVE, Unateness.UNUSED)

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


def random_scaled_unit(rng):
    """A unit with small or 10**9-scale weights, zeros and negatives included."""
    n = rng.randint(0, 12)
    scale = rng.choice((3, 20, 10**6, 10**9))
    weights = tuple(rng.choice((0, rng.randint(-scale, scale))) for _ in range(n))
    bound = sum(abs(w) for w in weights) + 1
    return IntThresholdUnit(weights, rng.randint(-bound, bound))


class TestForwardPass:
    """Each level's cells, listed ascending, are the reference's residual sets."""

    def test_levels_equal_the_reference(self):
        rng = random.Random(6170)
        sizes = set()
        for _ in range(300):
            unit = random_scaled_unit(rng)
            _, levels = _residual_levels(unit, Manager(unit.arity))
            assert [set(level) for level in levels] == residual_levels(unit)
            for level in levels:
                assert level == sorted(set(level))
            sizes.add(len(levels))
            m = Manager(unit.arity)
            assert compile_pseudo(unit, m) == compile_exact(unit, m)
        assert 0 in sizes and 12 in sizes  # decided roots and full-depth units occurred

    def test_budget_abort_names_the_reference_cells(self):
        rng = random.Random(6171)
        aborts = 0
        for _ in range(300):
            unit = random_scaled_unit(rng)
            cumulative = list(accumulate(map(len, residual_levels(unit))))
            if not cumulative or cumulative[-1] <= 2:
                continue
            budget = rng.randint(2, cumulative[-1] - 1)
            m = Manager(unit.arity, node_budget=budget)
            over = [c for c in cumulative if c > budget]
            with pytest.raises(BudgetExceededError) as exc:
                compile_pseudo(unit, m)
            assert str(exc.value) == "node budget of %d exhausted (%d cells)" % (budget, over[0])
            assert m.allocated == 2
            aborts += 1
        assert aborts > 50

    def test_wide_weights_cost_memory_by_cells(self):
        # 12 inputs of magnitude 10**9 or more: 2,053 cells, while anything
        # sized by the weights would hold billions of entries
        rng = random.Random(6172)
        weights = tuple(rng.choice((-1, 1)) * rng.randint(10**9, 2 * 10**9) for _ in range(12))
        unit = IntThresholdUnit(weights, sum(weights) // 2)
        assert sum(map(len, residual_levels(unit))) == 2053
        m = Manager(12)
        tracemalloc.start()
        try:
            f = compile_pseudo(unit, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert f == compile_exact(unit, m)


class TestCompilePseudoTable:
    """Cells are appended to the node store and stay out of the unique table
    until a lookup needs them: counts, reuse, memory and budget."""

    def test_fresh_manager_holds_only_the_root_diagram(self):
        rng = random.Random(4242)
        merged = terminal = 0
        for _ in range(300):
            unit = random_int_unit(rng, max_n=10, max_w=4)
            m = Manager(unit.arity)
            f = compile_pseudo(unit, m)
            assert m.allocated - 2 == m.node_count(f)
            check_unique_tables(m)
            # every cell's node, looked up again through _mk_id: nothing new
            root, cells = exact_cells(unit, m)
            assert root == f.i and m.allocated - 2 == m.node_count(f)
            assert len(cells) == sum(map(len, residual_levels(unit)))
            reduced = sum(m._nodes[u][0] != i for (i, _), u in cells.items())
            assert len(cells) - reduced >= m.allocated - 2
            merged += len(cells) - reduced - (m.allocated - 2)
            terminal += f.is_terminal
        assert merged and terminal  # equal-residual merges and terminal roots occurred

    @pytest.mark.parametrize(
        "unit, nodes",
        [
            (IntThresholdUnit((1, 0, 1), 1), 2),  # the level-1 cell reduces
            (IntThresholdUnit((1, 1, 5), 3), 1),  # three level-2 residuals merge
            (IntThresholdUnit((1, 2), 0), 0),  # TRUE root
            (IntThresholdUnit((1, 2), 4), 0),  # FALSE root
            (IntThresholdUnit((), 0), 0),
        ],
    )
    def test_reduced_merged_and_terminal_cases(self, unit, nodes):
        m = Manager(unit.arity)
        f = compile_pseudo(unit, m)
        assert m.allocated - 2 == m.node_count(f) == nodes
        m.audit(f)

    def test_existing_diagram_is_reused(self):
        rng = random.Random(77)
        for _ in range(40):
            unit = random_int_unit(rng, max_n=8)
            m = Manager(unit.arity)
            f = compile_exact(unit, m)
            before = m.allocated
            g = compile_pseudo(unit, m)
            assert m.allocated == before
            assert g == f
            m.audit(g)

    def test_budget_runs_out_in_the_backward_pass(self):
        unit = IntThresholdUnit((1,) * 6, 6)  # six cells, six nodes
        budget = 2 + 6 - 1
        m = Manager(6, node_budget=budget)
        with pytest.raises(BudgetExceededError) as built:
            compile_pseudo(unit, m)
        assert m.allocated == m.node_budget  # five nodes made, the sixth refused
        assert m._unique == {} and m._unindexed == 2  # the made suffix is pending
        check_unique_tables(m)  # one node on each of levels 5..1, none on level 0
        assert sorted(key[0] for key in m._unique) == [1, 2, 3, 4, 5]
        with pytest.raises(BudgetExceededError) as direct:
            m.literal(0)  # a new node through _mk_id
        check_unique_tables(m)
        assert str(built.value) == str(direct.value) == "node budget of %d exhausted" % budget

    def test_budget_bounds_the_cells_before_any_node(self):
        # residuals {3}, {3, 2}, {3, 2, 1}: six cells by the third level
        m = Manager(6, node_budget=5)
        with pytest.raises(BudgetExceededError) as exc:
            compile_pseudo(IntThresholdUnit((1,) * 6, 3), m)
        assert str(exc.value) == "node budget of 5 exhausted (6 cells)"
        assert m.allocated == 2

    def test_does_not_call_mk_id(self, monkeypatch):
        rng = random.Random(8)
        units = [random_int_unit(rng) for _ in range(30)]
        m = Manager(12)
        monkeypatch.setattr(Manager, "_mk_id", None)
        built = []
        for unit in units:
            unit = IntThresholdUnit(unit.weights + (0,) * (12 - unit.arity), unit.threshold)
            f = compile_pseudo(unit, m)
            m.audit(f)
            built.append((unit, f))
        monkeypatch.undo()
        for unit, f in built:
            assert f == compile_exact(unit, m)

    def test_a_fresh_manager_holds_its_nodes_without_tables(self):
        # the CI's seeded 256-input unit: 804,850 nodes, 140 tracemalloc bytes
        # per node when each also sat in its variable's unique table
        rng = random.Random(1)
        unit = IntThresholdUnit(tuple(rng.randint(-100, 100) for _ in range(256)), 0)
        m = Manager(256)
        tracemalloc.start()
        try:
            f = compile_pseudo(unit, m)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert m.allocated == 804850
        assert held / m.allocated < 120
        assert m._unique == {} and m._unindexed == 2
        assert m.node_count(f) == m.allocated - 2


class TestPendingIndex:
    """Every lookup completes the unique table first.  After `compile_pseudo`,
    finished or aborted by the budget, each lookup site returns the pending
    node it asks for: a missed `_index` would make a duplicate node and break
    equality by id."""

    UNIT = IntThresholdUnit((3, 1, 2, 5, 1, 4, 2, 0, 3, 1, 2), 12)
    ZERO = 7  # the input of weight 0, which no node tests

    @staticmethod
    def literal(m, sub, u):
        return m.literal(m.num_vars - 1)  # (10, 0, 1), the last level's node

    @staticmethod
    def apply(m, sub, u):
        _, lo, _ = m._nodes[u]
        return NodeRef(m, u) | NodeRef(m, lo)  # lo implies hi, so this is u

    @staticmethod
    def ite(m, sub, u):
        _, _, hi = m._nodes[u]
        return m.ite(NodeRef(m, u), NodeRef(m, hi), m.false)  # u implies hi

    @classmethod
    def condition(cls, m, sub, u):
        return m.condition(NodeRef(m, u), cls.ZERO, 1)  # rebuilds u's upper nodes

    @staticmethod
    def read(m, sub, u):
        buf = io.StringIO()
        write_obdd(NodeRef(m, u), buf)
        return read_obdd(io.StringIO(buf.getvalue()), m)

    @staticmethod
    def compose(m, sub, u):
        f = Manager(1).literal(0)
        cached = len(m._ite_cache)
        g = m.compose(f, [NodeRef(m, u)])  # grafts TRUE -> TRUE, FALSE -> FALSE
        assert len(m._ite_cache) == cached  # no ITE call
        return g

    @staticmethod
    def pseudo(m, sub, u):
        return compile_pseudo(sub, m)

    @staticmethod
    def exact(m, sub, u):
        return compile_exact(sub, m)

    SITES = ("literal", "apply", "ite", "condition", "read", "compose", "pseudo", "exact")

    @classmethod
    def build(cls, budget=None):
        """A manager holding the parity of its inputs (a 21-node diagram; 122
        nodes indexed with the steps that built it), then the unit's diagram
        or, under ``budget``, part of it (pending)."""
        m = Manager(cls.UNIT.arity, node_budget=budget)
        parity = m.false
        for v in range(m.num_vars):
            parity ^= m.literal(v)
        start = m.allocated
        try:
            compile_pseudo(cls.UNIT, m)
        except BudgetExceededError:
            assert budget is not None
        assert m.node_count(parity) == 2 * m.num_vars - 1
        assert m._unindexed == start and len(m._unique) == start - 2 == 122
        return m, start

    @pytest.mark.parametrize("aborted", [False, True], ids=["finished", "aborted"])
    @pytest.mark.parametrize("site", SITES)
    def test_each_site_finds_the_pending_node(self, site, aborted):
        unit, n = self.UNIT, self.UNIT.arity
        ref, start = self.build()
        _, cells = exact_cells(unit, ref)  # looked up in ref's completed table
        assert len(cells) == 63 and ref.allocated - start == 54
        m, _ = self.build(start + 30 if aborted else None)  # 63 cells fit the budget
        assert m._nodes == ref._nodes[: m.allocated]
        # the newest pending node above the zero-weight input whose children are nodes
        (v, t), u = max(
            ((v, t), u)
            for (v, t), u in cells.items()
            if start <= u < m.allocated
            and ref._nodes[u][0] == v < self.ZERO
            and min(ref._nodes[u][1:]) > 1
        )
        # the unit that starts at cell (v, t): u is its reduced root
        sub = IntThresholdUnit((0,) * v + unit.weights[v:], int(t))
        want = ref.literal(n - 1).i if site == "literal" else u
        before = m.allocated
        g = getattr(self, site)(m, sub, u)
        assert g.manager is m and g.i == want
        assert m.allocated == before
        assert m._unindexed is None
        m.audit(g)
        check_unique_tables(m)

    def test_random_sequences_match_the_oracle(self):
        # shared managers, with and without budgets: compiles, literals,
        # connectives, file round trips and grafts, in seeded random order
        rng = random.Random(3030)
        for trial in range(60):
            n = rng.randint(1, 9)
            budget = rng.choice((None, rng.randint(2, 60)))
            m = Manager(n, node_budget=budget)
            made = []
            for _ in range(rng.randint(1, 10)):
                op = rng.choice(("pseudo", "pseudo", "literal", "and", "read", "compose"))
                try:
                    if op == "pseudo":
                        unit = random_int_unit(rng, max_n=n, max_w=6)
                        pad = (0,) * (n - unit.arity)
                        unit = IntThresholdUnit(unit.weights + pad, unit.threshold)
                        f = compile_pseudo(unit, m)
                        before = m.allocated
                        assert compile_exact(unit, m) == f
                        assert m.allocated == before
                    elif op == "literal":
                        f = m.literal(rng.randrange(n), rng.random() < 0.5)
                    elif op == "and" and made:
                        f = rng.choice(made) & rng.choice(made)
                    elif op == "read" and made:
                        g = rng.choice(made)
                        buf = io.StringIO()
                        write_obdd(g, buf)
                        before = m.allocated
                        f = read_obdd(io.StringIO(buf.getvalue()), m)
                        assert f == g and m.allocated == before
                    elif op == "compose" and made:
                        holes = Manager(2)
                        f = m.compose(holes.literal(0) | holes.literal(1), rng.sample(made * 2, 2))
                    else:
                        continue
                except BudgetExceededError:
                    continue
                made.append(f)
            for f in made:
                m.audit(f)
            check_unique_tables(m)


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
