"""Robustness, explanation, marginal and unateness queries against oracles."""

import math
import random
from fractions import Fraction

import pytest

from nnobdd import (
    ConvFilter,
    ConvStep,
    DenseStep,
    Explanation,
    Manager,
    NetworkSpec,
    Unateness,
    analysis,
    compile_network,
    dataset_average_robustness,
    fooling_complete,
    instance_robustness,
    marginal,
    marginal_grid,
    max_robustness,
    model_robustness,
    pi_explanation,
    polarity_summary,
    robust_sets,
    unateness,
    unateness_grid,
)
from nnobdd.obdd import _reachable

from oracles import (
    all_instances,
    bdd_from_table,
    bits_of,
    build_formula,
    formula_table,
    forces_label,
    hamming_robustness,
    max_positive_robustness,
    mean_robustness,
    min_sufficient_size,
    random_formula,
    recursive_pi_explanation,
    robustness_counts,
    tt_marginal,
    tt_unateness,
)


def or2():
    m = Manager(2)
    return m, m.literal(0) | m.literal(1)


def and2():
    m = Manager(2)
    return m, m.literal(0) & m.literal(1)


def random_nontrivial(rng, n, manager):
    while True:
        if rng.random() < 0.5:
            expr = random_formula(rng, n, depth=rng.randint(2, 4))
            table = formula_table(expr, n)
        else:
            table = [rng.randint(0, 1) for _ in range(1 << n)]
        if 0 < sum(table) < len(table):
            return bdd_from_table(manager, table), table


class TestInstanceRobustness:
    def test_trivial_is_infinite(self):
        m = Manager(2)
        assert instance_robustness(m.true, (0, 1)) == math.inf
        assert instance_robustness(m.false, (0, 1)) == math.inf

    def test_conjunction_breaks_in_one_flip(self):
        m, f = and2()
        assert instance_robustness(f, (1, 1)) == 1

    def test_disjunction_needs_two_flips(self):
        m, f = or2()
        assert instance_robustness(f, (1, 1)) == 2

    def test_matches_bfs_oracle(self):
        rng = random.Random(404)
        for _ in range(60):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            oracle = hamming_robustness(table, n)
            for i in range(1 << n):
                assert instance_robustness(f, bits_of(i, n)) == oracle[i]


class TestRobustSets:
    def test_disjunction_second_level(self):
        m, f = or2()
        levels = robust_sets(f)
        assert levels[0] == f
        assert levels[1] == (m.literal(0) & m.literal(1))
        assert len(levels) == 2

    def test_conjunction_stops_immediately(self):
        m, f = and2()
        assert len(robust_sets(f)) == 1

    def test_levels_shrink(self):
        rng = random.Random(405)
        for _ in range(30):
            n = rng.randint(2, 7)
            m = Manager(n)
            f, _ = random_nontrivial(rng, n, m)
            levels = robust_sets(f)
            counts = [m.model_count(level) for level in levels]
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            assert counts[-1] > 0

    def test_level_chain_empties_within_n(self):
        rng = random.Random(406)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, _ = random_nontrivial(rng, n, m)
            levels = robust_sets(f)
            assert len(levels) <= n
            # one more step from the last satisfiable level must be empty
            last = levels[-1]
            nxt = m.true
            for v in range(n):
                nxt = nxt & m.condition(last, v, 1) & m.condition(last, v, 0)
            assert nxt == m.false

    def test_trivial_rejected(self):
        m = Manager(2)
        with pytest.raises(ValueError):
            robust_sets(m.true)


class TestModelRobustness:
    def test_single_variable(self):
        m = Manager(1)
        profile = model_robustness(m.literal(0))
        assert profile.positive.flip_sum == 1
        assert profile.negative.flip_sum == 1
        assert profile.mr == 1

    def test_disjunction_profile(self):
        m, f = or2()
        profile = model_robustness(f)
        assert profile.positive.counts == ((1, 2), (2, 1))
        assert profile.positive.flip_sum == 4
        assert profile.negative.counts == ((1, 1),)
        assert profile.mr == Fraction(5, 4)
        assert profile.maxr == 2

    def test_matches_exhaustive_mean(self):
        rng = random.Random(407)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            assert model_robustness(f).mr == mean_robustness(table, n)

    def test_per_polarity_counts_match_oracle(self):
        rng = random.Random(408)
        for _ in range(30):
            n = rng.randint(1, 7)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            profile = model_robustness(f)
            assert dict(profile.positive.counts) == robustness_counts(table, n, True)
            assert dict(profile.negative.counts) == robustness_counts(table, n, False)

    def test_counts_partition_and_are_disjoint(self):
        rng = random.Random(409)
        for _ in range(20):
            n = rng.randint(2, 7)
            m = Manager(n)
            f, _ = random_nontrivial(rng, n, m)
            levels = robust_sets(f)
            exact = [
                levels[k] & ~levels[k + 1] if k + 1 < len(levels) else levels[k]
                for k in range(len(levels))
            ]
            total = sum(m.model_count(g) for g in exact)
            assert total == m.model_count(f)
            for i in range(len(exact)):
                for j in range(i + 1, len(exact)):
                    assert (exact[i] & exact[j]) == m.false


class TestMaxRobustness:
    def test_disjunction(self):
        _, f = or2()
        assert max_robustness(f) == 2

    def test_parity(self):
        m = Manager(4)
        f = m.literal(0)
        for v in range(1, 4):
            f = f ^ m.literal(v)
        assert max_robustness(f) == 1

    def test_conjunction_positive_side(self):
        _, f = and2()
        assert max_robustness(f) == 1

    def test_matches_exhaustive_positive_max(self):
        rng = random.Random(410)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            assert max_robustness(f) == max_positive_robustness(table, n)


class TestHistogram:
    def test_disjunction(self):
        _, f = or2()
        assert polarity_summary(f, "positive").counts == ((1, 2), (2, 1))

    def test_single_literal(self):
        m = Manager(1)
        assert polarity_summary(m.literal(0), "positive").counts == ((1, 1),)

    def test_proportions_sum_to_positive_mass(self):
        rng = random.Random(411)
        for _ in range(25):
            n = rng.randint(1, 7)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            counts = polarity_summary(f, "positive").counts
            assert sum(c for _, c in counts) == sum(table)
            assert sum(c for _, c in counts) <= 1 << n

    def test_unknown_polarity_rejected(self):
        _, f = or2()
        with pytest.raises(ValueError):
            polarity_summary(f, "bogus")


class TestUnreadVariables:
    """Variables a function never reads scale its counts, not its ratios."""

    def test_counts_scale_and_ratios_stay(self):
        rng = random.Random(422)
        checked = 0
        while checked < 30:
            expr = random_formula(rng, 3)
            f = build_formula(expr, Manager(3))
            g = build_formula(expr, Manager(5))
            if f.is_terminal:
                continue
            checked += 1
            small, large = model_robustness(f), model_robustness(g)
            for a, b in ((small.positive, large.positive), (small.negative, large.negative)):
                assert [(k, 4 * c) for k, c in a.counts] == list(b.counts)
                assert 4 * a.flip_sum == b.flip_sum
                assert a.mean_over_all == b.mean_over_all
                assert a.mean_over_polarity == b.mean_over_polarity
            assert small.mr == large.mr
            assert small.maxr == large.maxr
            for v in range(3):
                assert marginal(f, v) == marginal(g, v)
                assert unateness(f, v) == unateness(g, v)


class TestPiExplanation:
    def test_disjunction_single_literal(self):
        _, f = or2()
        reason = pi_explanation(f, (1, 1))
        assert reason.cardinality == 1
        assert reason.literals == ((0, 1),)  # ties prefer the lower variable

    def test_conjunction_needs_both(self):
        _, f = and2()
        reason = pi_explanation(f, (1, 1))
        assert reason.literals == ((0, 1), (1, 1))

    def test_cardinality_matches_brute_force(self):
        rng = random.Random(412)
        for _ in range(60):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            i = rng.randrange(1 << n)
            x = bits_of(i, n)
            reason = pi_explanation(f, x)
            assert reason.cardinality == min_sufficient_size(table, n, x)

    def test_sufficiency_and_minimality(self):
        rng = random.Random(413)
        for _ in range(40):
            n = rng.randint(1, 7)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            x = bits_of(rng.randrange(1 << n), n)
            reason = pi_explanation(f, x)
            assert forces_label(table, n, reason.literals, reason.label)
            assert all(x[var] == bit for var, bit in reason.literals)
            for dropped in range(reason.cardinality):
                subset = (
                    reason.literals[:dropped] + reason.literals[dropped + 1 :]
                )
                assert not forces_label(table, n, subset, reason.label)

    def test_trivial_rejected(self):
        m = Manager(2)
        with pytest.raises(ValueError):
            pi_explanation(m.true, (0, 0))


class TestPiExplanationMatchesRecursion:
    """The depth-safe pass gives the recursive program's literals exactly."""

    def test_both_labels_alternately_in_one_manager(self):
        rng = random.Random(422)
        functions = 0
        while functions < 40:
            n = rng.randint(2, 9)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            if all(tt_unateness(table, n, v) != "none" for v in range(n)):
                continue
            functions += 1
            by_label = [
                [i for i in range(1 << n) if table[i] == label] for label in (0, 1)
            ]
            # both labels share the manager, so both ITE families are cached
            for k in range(12):
                x = bits_of(rng.choice(by_label[k % 2]), n)
                if k % 4 < 2:  # the pass first, then the reference, then swapped
                    got = pi_explanation(f, x).literals
                    expected = recursive_pi_explanation(f, x)
                else:
                    expected = recursive_pi_explanation(f, x)
                    got = pi_explanation(f, x).literals
                assert got == expected

    def test_release_built_after_the_node_that_needs_it(self):
        # 4x4 pixels, two 2x2 stride-2 filters, one dense unit, raster order
        spec = NetworkSpec(
            (4, 4),
            (
                ConvStep(
                    (
                        ConvFilter((((-0.4, 0.2), (0.1, 0.3)),), -0.2),
                        ConvFilter((((0.1, 0.2), (0.3, -0.4)),), -0.2),
                    ),
                    2,
                ),
                DenseStep(((0.1, -0.4, 0.7, 0.3, 0.2, -0.8, 0.6, 0.5),), (-1.0,)),
            ),
        )
        f = compile_network(spec, 1).outputs[0]
        m = f.manager
        labels = set()
        for i in range(0, 1 << 16, 331):
            x = bits_of(i, 16)
            reason = pi_explanation(f, x)
            assert reason.literals == recursive_pi_explanation(f, x)
            labels.add(reason.label)
        assert labels == {0, 1}
        nodes = m._nodes
        newer = [
            u
            for u in _reachable(f)
            if m._ite_id(nodes[u][1], nodes[u][2], 0) > u
        ]
        assert newer  # ascending ids would cost such a node before its release


class TestFooling:
    def test_zero_fill(self):
        _, f = or2()
        out = fooling_complete(f, {0: 1}, (0, 0))
        assert out == (1, 0)
        assert f.manager.evaluate(f, out) == 1

    def test_every_fill_keeps_the_label(self):
        rng = random.Random(414)
        for _ in range(20):
            n = rng.randint(1, 6)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            x = bits_of(rng.randrange(1 << n), n)
            reason = pi_explanation(f, x)
            for fill in all_instances(n):
                out = fooling_complete(f, reason, fill)
                assert m.evaluate(f, out) == reason.label
                assert all(out[var] == bit for var, bit in reason.literals)

    def test_insufficient_reason_rejected(self):
        _, f = or2()
        with pytest.raises(ValueError):
            fooling_complete(f, {0: 0}, (0, 0))


class TestMarginal:
    def test_disjunction(self):
        _, f = or2()
        assert marginal(f, 0) == Fraction(2, 3)

    def test_literal(self):
        m = Manager(1)
        assert marginal(m.literal(0), 0) == 1

    def test_unused_variable_is_half(self):
        m = Manager(3)
        f = m.literal(0) & m.literal(1)
        assert marginal(f, 2) == Fraction(1, 2)

    def test_matches_truth_table(self):
        rng = random.Random(415)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            v = rng.randrange(n)
            assert marginal(f, v) == tt_marginal(table, n, v)

    def test_unsatisfiable_rejected(self):
        m = Manager(2)
        with pytest.raises(ValueError):
            marginal(m.false, 0)


class TestUnateness:
    def test_examples(self):
        m = Manager(3)
        a, b = m.literal(0), m.literal(1)
        assert unateness(a | b, 0) == Unateness.POSITIVE
        assert unateness(~a & ~b, 0) == Unateness.NEGATIVE
        assert unateness(a & b, 2) == Unateness.UNUSED
        assert unateness(a ^ b, 0) == Unateness.NONE

    def test_matches_truth_table(self):
        rng = random.Random(416)
        for _ in range(60):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            v = rng.randrange(n)
            assert unateness(f, v).value == tt_unateness(table, n, v)


class TestGridsAndDatasets:
    def test_grid_shapes_and_values(self):
        m = Manager(4)
        f = (m.literal(0) | m.literal(1)) & m.literal(3)
        mg = marginal_grid(f, 2, 2)
        assert [(v, r, c) for v, r, c, _ in mg] == [
            (0, 0, 0),
            (1, 0, 1),
            (2, 1, 0),
            (3, 1, 1),
        ]
        assert mg[2][3] == Fraction(1, 2)  # unused pixel
        ug = unateness_grid(f, 2, 2)
        assert ug[3][3] == Unateness.POSITIVE
        assert ug[2][3] == Unateness.UNUSED

    def test_grid_must_cover_variables(self):
        m = Manager(4)
        with pytest.raises(ValueError):
            marginal_grid(m.true, 3, 2)

    @pytest.mark.parametrize("grid", [marginal_grid, unateness_grid])
    def test_grid_sizes_must_be_positive(self, grid):
        m = Manager(4)
        with pytest.raises(ValueError, match="positive"):
            grid(m.literal(0), -2, -2)
        with pytest.raises(ValueError, match="positive"):
            grid(Manager(0).true, 0, 5)

    def test_dataset_average(self):
        m, f = or2()
        rows = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert dataset_average_robustness(f, rows) == Fraction(5, 4)

    def test_dataset_single_row(self):
        m, f = or2()
        assert dataset_average_robustness(f, [(1, 1)]) == 2

    def test_dataset_order_invariance(self):
        m, f = or2()
        rows = [(0, 0), (1, 1), (1, 0)]
        assert dataset_average_robustness(f, rows) == dataset_average_robustness(
            f, list(reversed(rows))
        )

    def test_dataset_trivial_rejected(self):
        m = Manager(2)
        with pytest.raises(ValueError):
            dataset_average_robustness(m.true, [(0, 0)])

    def test_dataset_walks_the_diagram_once(self, monkeypatch):
        rng = random.Random(1201)
        m = Manager(6)
        f = bdd_from_table(m, [rng.randint(0, 1) for _ in range(64)])
        rows = [bits_of(rng.randrange(64), 6) for _ in range(20)]
        expected = Fraction(sum(instance_robustness(f, x) for x in rows), len(rows))
        walks = []
        real = analysis._reachable
        monkeypatch.setattr(analysis, "_reachable", lambda g: walks.append(g) or real(g))
        assert dataset_average_robustness(f, rows) == expected
        assert walks == [f]

    @pytest.mark.parametrize("bad", [(0, 1, 1), (0, 2)])
    def test_dataset_every_row_checked(self, bad):
        m, f = or2()
        with pytest.raises(ValueError):
            dataset_average_robustness(f, [(0, 1), bad])


def oracle_functions(rng, count):
    """Random functions of up to 10 variables plus the degenerate cases.

    Tables built from formulas over a few of the variables leave others
    out of the support, so edges skip variables, including above the root.
    """
    for _ in range(count):
        n = rng.randint(1, 10)
        m = Manager(n)
        if rng.random() < 0.5:
            expr = random_formula(rng, n, depth=rng.randint(1, 4))
            table = formula_table(expr, n)
        else:
            table = [rng.randint(0, 1) for _ in range(1 << n)]
        yield m, bdd_from_table(m, table), table
    for n in (1, 3, 6):
        m = Manager(n)
        yield m, m.true, [1] * (1 << n)
        yield m, m.false, [0] * (1 << n)
        for var in (0, n - 1):
            for positive in (True, False):
                table = [
                    int(bool((i >> var) & 1) == positive) for i in range(1 << n)
                ]
                yield m, m.literal(var, positive), table


class TestSinglePassOracles:
    def test_marginals_match_truth_table(self):
        rng = random.Random(417)
        for m, f, table in oracle_functions(rng, 80):
            n = m.num_vars
            if not any(table):
                with pytest.raises(ValueError):
                    marginal_grid(f, 1, n)
                continue
            expected = [tt_marginal(table, n, v) for v in range(n)]
            assert [value for _, _, _, value in marginal_grid(f, 1, n)] == expected
            assert [marginal(f, v) for v in range(n)] == expected

    def test_marginals_with_fewer_counted_variables(self):
        m = Manager(5)
        f = m.literal(1) | m.literal(2)
        assert marginal(f, 2) == Fraction(2, 3)
        assert marginal(f, 4) == Fraction(1, 2)

    def test_unateness_matches_truth_table(self):
        rng = random.Random(418)
        for m, f, table in oracle_functions(rng, 80):
            n = m.num_vars
            expected = [tt_unateness(table, n, v) for v in range(n)]
            assert [u.value for _, _, _, u in unateness_grid(f, 1, n)] == expected
            assert [unateness(f, v).value for v in range(n)] == expected

    def test_variable_out_of_range_rejected(self):
        m, f = or2()
        with pytest.raises(ValueError):
            marginal(f, 2)
        with pytest.raises(ValueError):
            unateness(f, -1)


class TestQueriesAllocateNothing:
    """The node store must not grow across a query: a deterministic gate."""

    def test_no_nodes_for_either_label(self):
        rng = random.Random(419)
        for _ in range(30):
            n = rng.randint(2, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            for label in (0, 1):
                i = table.index(label)
                x = bits_of(i, n)
                # releasing a variable still combines two cofactors, so a
                # first call may add their conjunction (or disjunction)
                reason = pi_explanation(f, x)
                before = m.allocated
                instance_robustness(f, x)
                assert pi_explanation(f, x) == reason
                fooling_complete(f, reason, bits_of(i ^ ((1 << n) - 1), n))
                marginal_grid(f, 1, n)
                unateness_grid(f, 1, n)
                assert m.allocated == before

    def test_no_negated_copy_for_label_zero(self):
        m = Manager(6)
        f = m.true
        for v in reversed(range(6)):
            f = m.literal(v) & f
        before = m.allocated
        x = (1, 0, 1, 1, 1, 1)
        assert instance_robustness(f, x) == 1
        reason = pi_explanation(f, x)
        assert reason == Explanation(((1, 0),), 0)
        assert fooling_complete(f, reason, (1,) * 6) == x
        assert m.allocated == before

    def test_insufficient_reason_rejected(self):
        rng = random.Random(420)
        for _ in range(20):
            n = rng.randint(2, 7)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            x = bits_of(rng.randrange(1 << n), n)
            reason = pi_explanation(f, x)
            for dropped in range(reason.cardinality):
                subset = reason.literals[:dropped] + reason.literals[dropped + 1 :]
                with pytest.raises(ValueError):
                    fooling_complete(f, subset, x)
            with pytest.raises(ValueError):
                fooling_complete(f, {}, x)


class TestRobustnessBuildsOnlyThroughIte:
    """Level sets come from erosion and dilation passes, never from cofactors."""

    def test_no_negate_or_condition(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("robustness queries must not call this")

        monkeypatch.setattr(Manager, "negate", forbidden)
        monkeypatch.setattr(Manager, "condition", forbidden)
        rng = random.Random(421)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            profile = model_robustness(f, polarity="both")
            assert dict(profile.positive.counts) == robustness_counts(table, n, True)
            assert dict(profile.negative.counts) == robustness_counts(table, n, False)
            assert profile.mr == mean_robustness(table, n)
            assert max_robustness(f) == max_positive_robustness(table, n)
            negative = robustness_counts(table, n, False)
            assert polarity_summary(f, "negative").counts == tuple(
                sorted(negative.items())
            )


class TestDeepDiagrams:
    """A 1,200-variable conjunction is far deeper than the recursion limit."""

    def test_queries_return(self):
        n = 1200
        m = Manager(n)
        f = m.true
        for v in reversed(range(n)):
            f = m.literal(v) & f
        ones = (1,) * n
        assert instance_robustness(f, ones) == 1
        assert instance_robustness(f, (0,) + ones[1:]) == 1
        marg = marginal_grid(f, 30, 40)
        assert {value for _, _, _, value in marg} == {1}
        unate = unateness_grid(f, 30, 40)
        assert {u for _, _, _, u in unate} == {Unateness.POSITIVE}
        assert fooling_complete(f, {v: 1 for v in range(n)}, (0,) * n) == ones
        assert fooling_complete(f, {7: 0}, ones) == ones[:7] + (0,) + ones[8:]
        assert m.model_count(f) == 1

    def test_explanations_return(self):
        n = 1200
        m = Manager(n)
        f = m.true
        for v in reversed(range(n)):
            f = m.literal(v) & f
        ones = (1,) * n
        assert pi_explanation(f, ones) == Explanation(
            tuple((v, 1) for v in range(n)), 1
        )
        x = ones[:700] + (0,) + ones[701:]
        assert pi_explanation(f, x) == Explanation(((700, 0),), 0)
