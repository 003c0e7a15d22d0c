"""Robustness, explanation, marginal and unateness queries against oracles."""

import io
import math
import random
from fractions import Fraction

import pytest

from nnobdd import (
    BudgetExceededError,
    ConvFilter,
    ConvStep,
    DenseStep,
    Explanation,
    IntThresholdUnit,
    Manager,
    NetworkSpec,
    NodeRef,
    Unateness,
    compile_network,
    compile_pseudo,
    dataset_average_robustness,
    fooling_complete,
    forward_eval,
    instance_robustness,
    load_spec,
    marginal_grid,
    marginals,
    max_robustness,
    model_robustness,
    pi_explanation,
    read_obdd,
    robust_sets,
    unateness,
    unateness_grid,
    write_obdd,
)
from nnobdd import analysis, obdd
from nnobdd.obdd import _reachable

from oracles import (
    all_instances,
    bdd_from_table,
    bits_of,
    block_order,
    bottom_up_robustness,
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
    table_of,
    tt_marginal,
    tt_unateness,
    two_ite_level_chain,
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

    def test_matches_bottom_up_on_block_order_nets(self):
        rng = random.Random(422)
        answers = []
        for _ in range(4):
            f = block_order_output(rng, 10, 2, -4.0)
            for _ in range(50):
                x = random_image(rng, 100)
                answers.append(instance_robustness(f, x))
                assert answers[-1] == bottom_up_robustness(f, x)
        assert len(set(answers)) > 3

    def test_matches_bottom_up_on_a_16x16_net(self):
        rng = random.Random(423)
        f = block_order_output(rng, 16, 4, -6.0)
        for _ in range(4):
            x = random_image(rng, 256)
            assert instance_robustness(f, x) == bottom_up_robustness(f, x)

    def test_stops_before_reading_every_node(self):
        # x0 = 0 forces FALSE, so an instance with f(x) = 1 breaks in one
        # flip of the top variable, whatever the rest of the diagram holds
        rng = random.Random(424)
        n = 10
        m = Manager(n)
        table = [(i & 1) * rng.randint(0, 1) for i in range(1 << n)]
        f = bdd_from_table(m, table)
        x = bits_of(table.index(1), n)
        m._nodes = reads = CountingList(m._nodes)
        assert instance_robustness(f, x) == 1
        assert 0 < reads.count < m.node_count(f)


class CountingList(list):
    """A node store that counts how many nodes are read from it."""

    count = 0

    def __getitem__(self, i):
        self.count += 1
        return super().__getitem__(i)


def block_order_output(rng, size, kernel, bias):
    """The one output of a seeded conv (stride = kernel) -> dense(1) net.

    Compiled in block order, so every window's pixels are contiguous.
    """
    weights = tuple(
        tuple(round(rng.uniform(-2, 2), 1) for _ in range(kernel)) for _ in range(kernel)
    )
    conv = ConvStep((ConvFilter((weights,), -1.0),), kernel)
    width = (size // kernel) ** 2
    dense = DenseStep((tuple(rng.choice((-1.0, 1.0, 2.0)) for _ in range(width)),), (bias,))
    spec = NetworkSpec((size, size), (conv, dense))
    return compile_network(spec, 1, order_policy=block_order(size, kernel)).outputs[0]


def random_image(rng, n):
    """Seeded bits whose density of ones is itself drawn per image."""
    p = rng.random()
    return tuple(int(rng.random() < p) for _ in range(n))


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

    def test_each_polarity_is_the_profile_maxr(self):
        rng = random.Random(411)
        for _ in range(300):
            n = rng.randint(1, 7)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            values = hamming_robustness(table, n)
            for polarity, label in (("positive", {1}), ("negative", {0}), ("both", {0, 1})):
                expected = max(r for r, b in zip(values, table) if b in label)
                assert max_robustness(f, polarity) == expected
                assert model_robustness(f, polarity).maxr == expected

    def test_counts_no_level(self, monkeypatch):
        _, f = and2()
        monkeypatch.setattr(Manager, "model_count", None)
        assert [max_robustness(f, p) for p in ("positive", "negative", "both")] == [1, 2, 2]

    @pytest.mark.parametrize("query", [model_robustness, max_robustness])
    @pytest.mark.parametrize("polarity", ["neither", "", "Positive"])
    def test_unknown_polarity(self, query, polarity):
        _, f = or2()
        message = "^polarity must be 'positive', 'negative' or 'both'$"
        with pytest.raises(ValueError, match=message):
            query(f, polarity)


class TestHistogram:
    def test_disjunction(self):
        _, f = or2()
        assert model_robustness(f, "positive").positive.counts == ((1, 2), (2, 1))

    def test_single_literal(self):
        m = Manager(1)
        assert model_robustness(m.literal(0), "positive").positive.counts == ((1, 1),)

    def test_proportions_sum_to_positive_mass(self):
        rng = random.Random(411)
        for _ in range(25):
            n = rng.randint(1, 7)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            counts = model_robustness(f, "positive").positive.counts
            assert sum(c for _, c in counts) == sum(table)
            assert sum(c for _, c in counts) <= 1 << n

    def test_unknown_polarity_rejected(self):
        _, f = or2()
        with pytest.raises(ValueError):
            model_robustness(f, "bogus")


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
                assert marginals(f)[v] == marginals(g)[v]
                assert unateness(f)[v] == unateness(g)[v]


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
    """The certified and the exact pass give the recursive program's literals."""

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

    def test_seeded_two_filter_grid_nets(self):
        # two filters share every window, so some variables are not unate:
        # the certified pass must give the exact pass's literals where its
        # check succeeds, and the exact pass must run where it fails
        rng = random.Random(431)
        branches = set()
        for _ in range(6):
            f = two_filter_grid_output(rng)
            if f.is_terminal:
                continue
            calls = spy_on_ite(f.manager)
            for _ in range(30):
                x = bits_of(rng.getrandbits(16), 16)
                before = len(calls)
                got = pi_explanation(f, x).literals
                branches.add("exact" if len(calls) > before else "certified")
                assert got == recursive_pi_explanation(f, x)
        assert branches == {"certified", "exact"}

    def test_spread_out_variables(self):
        # only every third variable is read, so a node's cofactors often sit
        # at different levels: the certified pass must compare counts over
        # all the variables, not over each cofactor's own levels.  Threshold
        # functions are unate, so every one of their reasons is certified.
        rng = random.Random(433)
        branches = set()
        for k in range(60):
            n = rng.randint(9, 12)
            used = list(range(rng.randrange(3), n, 3))
            m = Manager(n)
            if k % 2:
                table = [rng.randint(0, 1) for _ in range(1 << len(used))]
            else:
                weights = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in used]
                threshold = rng.randint(-3, 3)
                table = [
                    int(sum(w for j, w in enumerate(weights) if i >> j & 1) >= threshold)
                    for i in range(1 << len(used))
                ]
            if not 0 < sum(table) < len(table):
                continue
            f = bdd_from_table(m, table, used)
            calls = spy_on_ite(m)
            for i in range(1 << len(used)):
                x = [rng.randint(0, 1) for _ in range(n)]
                for j, v in enumerate(used):
                    x[v] = i >> j & 1
                before = len(calls)
                reason = pi_explanation(f, x)
                branch = "exact" if len(calls) > before else "certified"
                assert branch == "certified" or k % 2
                branches.add(branch)
                assert reason.label == table[i]
                assert reason.literals == recursive_pi_explanation(f, x)
        assert branches == {"certified", "exact"}


class TestCertifiedPiPass:
    """Releases into one cofactor, checked, before any ITE is built."""

    def test_unate_net_allocates_nothing(self):
        rng = random.Random(432)
        f = block_order_output(rng, 10, 2, -4.0)
        m = f.manager
        labels = set()
        for _ in range(20):
            x = random_image(rng, 100)
            allocated, entries = m.allocated, len(m._ite_cache)
            reason = pi_explanation(f, x)
            assert (m.allocated, len(m._ite_cache)) == (allocated, entries)
            assert reason.literals == recursive_pi_explanation(f, x)
            labels.add(reason.label)
        assert labels == {0, 1}

    def test_incomparable_cofactors_fall_back_to_ite(self):
        # x1 & (x0 ? x3 : x2): releasing into either cofactor keeps x1, x3
        # or x1, x2, which does not force TRUE, so the exact pass runs
        m = Manager(4)
        x1, x2, x3 = (m.literal(v) for v in (1, 2, 3))
        f = m.ite(m.literal(0), x1 & x3, x1 & x2)
        calls = spy_on_ite(m)
        reason = pi_explanation(f, (1, 1, 1, 1))
        assert calls
        assert reason.literals == ((0, 1), (1, 1), (3, 1))
        assert reason.literals == recursive_pi_explanation(f, (1, 1, 1, 1))


class TestSharedWalk:
    """A handle keeps its walk and certified releases; answers never change."""

    @staticmethod
    def answers(f, xs):
        n = f.manager.num_vars
        return (
            [pi_explanation(f, x) for x in xs],
            marginal_grid(f, 1, n),
            unateness_grid(f, 1, n),
        )

    def test_reused_handle_answers_as_a_fresh_one(self, monkeypatch):
        # every instance of each function, so both labels, on unate
        # functions and on functions whose reasons take the exact pass
        rng = random.Random(440)
        kinds = set()
        walks = []
        walk = obdd._walk_from
        monkeypatch.setattr(obdd, "_walk_from", lambda g: walks.append(g) or walk(g))
        for k in range(40):
            walks.clear()
            n = rng.randint(2, 7)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            unate = all(tt_unateness(table, n, v) != "none" for v in range(n))
            calls = spy_on_ite(m)
            for i in range(1 << n):
                x = bits_of(i, n)
                before = len(calls)
                reason = pi_explanation(f, x)
                kinds.add((unate, len(calls) > before, reason.label))
                assert reason == pi_explanation(NodeRef(m, f.i), x)
                fill = bits_of(i ^ ((1 << n) - 1), n)
                fooled = fooling_complete(f, reason, fill)
                assert fooled == fooling_complete(NodeRef(m, f.i), reason, fill)
                assert table[sum(b << k for k, b in enumerate(fooled))] == reason.label
                assert reason.cardinality == min_sufficient_size(table, n, x)
            fresh = NodeRef(m, f.i)
            assert marginal_grid(f, 1, n) == marginal_grid(fresh, 1, n)
            assert unateness_grid(f, 1, n) == unateness_grid(fresh, 1, n)
            assert [g for g in walks if g is f or g is fresh] == [f, fresh]
        # the exact pass ran on non-unate functions, for both labels
        assert {(False, True, 0), (False, True, 1), (True, False, 0), (True, False, 1)} <= kinds

    def test_more_diagrams_between_calls_change_no_answer(self):
        rng = random.Random(441)
        for _ in range(30):
            n = rng.randint(2, 8)
            m = Manager(n)
            f, _ = random_nontrivial(rng, n, m)
            xs = [bits_of(rng.randrange(1 << n), n) for _ in range(6)]
            first = self.answers(f, xs)
            # new nodes above, below and beside f's, and more ITE entries
            g, _ = random_nontrivial(rng, n, m)
            for h in (f & g, f | ~g, f ^ g, ~f):
                if not h.is_terminal:
                    pi_explanation(h, xs[0])
            assert self.answers(f, xs) == first
            assert self.answers(NodeRef(m, f.i), xs) == first

    def test_one_walk_for_every_query_on_a_handle(self, monkeypatch):
        rng = random.Random(442)
        f = two_filter_grid_output(rng)
        while f.is_terminal:
            f = two_filter_grid_output(rng)
        walks = []
        walk = obdd._walk_from
        monkeypatch.setattr(obdd, "_walk_from", lambda g: walks.append(g) or walk(g))
        by_label = ([], [])
        for i in range(1 << 16):
            x = bits_of(i, 16)
            by_label[f.manager.evaluate(f, x)].append(x)
        xs = by_label[0][:10] + by_label[1][:10]
        reasons = [pi_explanation(f, x) for x in xs]
        assert {r.label for r in reasons} == {0, 1}
        marginal_grid(f, 4, 4)
        unateness_grid(f, 4, 4)
        assert walks == [f]
        fresh = NodeRef(f.manager, f.i)
        assert [pi_explanation(fresh, x) for x in xs] == reasons
        assert len(walks) == 2  # equal handles made separately do not share

    def test_certified_releases_once_per_handle(self, monkeypatch):
        rng = random.Random(443)
        f = block_order_output(rng, 10, 2, -4.0)
        passes = []
        certify = analysis._certified_releases
        monkeypatch.setattr(analysis, "_certified_releases", lambda g: passes.append(g) or certify(g))
        labels = {pi_explanation(f, random_image(rng, 100)).label for _ in range(20)}
        assert labels == {0, 1} and passes == [f]

    def test_model_robustness_walks_each_level_once(self, monkeypatch):
        m = Manager(6)
        x = [m.literal(v) for v in range(6)]
        f = (x[0] & x[1]) | (x[2] & x[3]) | (x[4] ^ x[5])
        walks = []
        walk = obdd._walk_from
        monkeypatch.setattr(obdd, "_walk_from", lambda g: walks.append(g) or walk(g))
        profile = model_robustness(f)
        assert (profile.positive.max_robustness, profile.negative.max_robustness) == (3, 1)
        # f, its one erosion that is not FALSE and its one dilation that is not TRUE
        assert len({g.i for g in walks}) == len(walks) == 3


def spy_on_ite(m):
    """Route ``m``'s ITE calls through a list that records them."""
    calls = []
    ite = m._ite_id

    def spy(f, g, h):
        calls.append((f, g, h))
        return ite(f, g, h)

    m._ite_id = spy
    return calls


def two_filter_grid_output(rng):
    """The one output of a seeded 4x4 net: two 2x2 stride-2 filters, dense(1)."""

    def weight():
        return round(rng.uniform(-1, 1), 1)

    conv = ConvStep(
        tuple(
            ConvFilter(
                (tuple(tuple(weight() for _ in range(2)) for _ in range(2)),),
                round(weight() / 2, 1),
            )
            for _ in range(2)
        ),
        2,
    )
    dense = DenseStep((tuple(weight() for _ in range(8)),), (weight(),))
    return compile_network(NetworkSpec((4, 4), (conv, dense)), 1).outputs[0]


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

    @pytest.mark.parametrize(
        "var", [1.0, 0.5, -1, 2, "0", None, True],
        ids=["float-one", "half", "negative", "past-the-end", "string", "none", "bool"],
    )
    def test_literal_variables_must_index_the_instance(self, var):
        _, f = or2()
        with pytest.raises(ValueError, match="^bad literal"):
            fooling_complete(f, {var: 1}, (0, 0))

    def test_numpy_int_variables_are_accepted(self):
        np = pytest.importorskip("numpy")
        _, f = or2()
        assert fooling_complete(f, {np.int64(1): 1}, (0, 0)) == (0, 1)


class TestKeptProof:
    """`_forced_label` keeps its last proof on the handle; answers never change."""

    @staticmethod
    def spy_on_walks(monkeypatch):
        walks = []
        walk = analysis._forcing_walk
        monkeypatch.setattr(
            analysis, "_forcing_walk", lambda g, pairs: walks.append(g) or walk(g, pairs)
        )
        return walks

    def test_fooling_a_certified_reason_walks_no_more(self, monkeypatch):
        rng = random.Random(450)
        f = block_order_output(rng, 10, 2, -4.0)
        walks = self.spy_on_walks(monkeypatch)
        labels = set()
        for _ in range(20):
            x = random_image(rng, 100)
            reason = pi_explanation(f, x)
            assert walks == [f]  # the certified pass's check, on a unate net
            fooled = fooling_complete(f, reason, tuple(1 - b for b in x))
            assert walks == [f]
            assert f.manager.evaluate(f, fooled) == reason.label
            labels.add(reason.label)
            walks.clear()
        assert labels == {0, 1}

    def test_at_most_one_walk_per_reason_and_fill(self, monkeypatch):
        # non-unate functions too: explaining an instance and fooling its
        # reason twice take at most one forcing walk, the certified pass's
        # check, whichever pass made the reason; the exact pass keeps its
        # reason as the proof, so fooling it walks no more
        rng = random.Random(451)
        walks = self.spy_on_walks(monkeypatch)
        exact = certified = 0
        for _ in range(40):
            n = rng.randint(2, 7)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            calls = spy_on_ite(m)
            for i in range(1 << n):
                x = bits_of(i, n)
                before = len(calls)
                walks.clear()
                reason = pi_explanation(f, x)
                from_exact = len(calls) > before
                assert f._proof == (reason.literals, reason.label)
                fill = bits_of(rng.randrange(1 << n), n)
                for _ in range(2):
                    out = fooling_complete(f, reason, fill)
                    assert forces_label(table, n, reason.literals, reason.label)
                    assert table[sum(b << k for k, b in enumerate(out))] == reason.label
                assert len(walks) <= 1
                exact += from_exact
                certified += not from_exact
        assert exact and certified


class TestMarginal:
    def test_disjunction(self):
        _, f = or2()
        assert marginals(f)[0] == Fraction(2, 3)

    def test_literal(self):
        m = Manager(1)
        assert marginals(m.literal(0))[0] == 1

    def test_unused_variable_is_half(self):
        m = Manager(3)
        f = m.literal(0) & m.literal(1)
        assert marginals(f)[2] == Fraction(1, 2)

    def test_matches_truth_table(self):
        rng = random.Random(415)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            v = rng.randrange(n)
            assert marginals(f)[v] == tt_marginal(table, n, v)

    def test_unsatisfiable_rejected(self):
        m = Manager(2)
        with pytest.raises(ValueError):
            marginals(m.false)


class TestUnateness:
    def test_examples(self):
        m = Manager(3)
        a, b = m.literal(0), m.literal(1)
        assert unateness(a | b)[0] == Unateness.POSITIVE
        assert unateness(~a & ~b)[0] == Unateness.NEGATIVE
        assert unateness(a & b)[2] == Unateness.UNUSED
        assert unateness(a ^ b)[0] == Unateness.NONE

    def test_matches_truth_table(self):
        rng = random.Random(416)
        for _ in range(60):
            n = rng.randint(1, 8)
            m = Manager(n)
            f, table = random_nontrivial(rng, n, m)
            v = rng.randrange(n)
            assert unateness(f)[v].value == tt_unateness(table, n, v)

    def test_positive_node_skips_the_reverse_implication(self, monkeypatch):
        calls = []
        implies = analysis._implies

        def spy(nodes, memo, a, b):
            calls.append((a, b))
            return implies(nodes, memo, a, b)

        monkeypatch.setattr(analysis, "_implies", spy)
        m = Manager(2)
        f = m.literal(0) & m.literal(1)
        assert unateness_grid(f, 1, 2) == [
            (0, 0, 0, Unateness.POSITIVE),
            (1, 0, 1, Unateness.POSITIVE),
        ]
        reverse = {(hi, lo) for _, lo, hi in (m._nodes[u] for u in _reachable(f))}
        assert calls and not reverse & set(calls)


class TestKeptUnateness:
    """One unateness pass per handle, kept sparse over the support."""

    @staticmethod
    def spy_on_implies(monkeypatch):
        calls = []
        implies = analysis._implies
        monkeypatch.setattr(
            analysis, "_implies", lambda *args: calls.append(args[2:]) or implies(*args)
        )
        return calls

    def test_second_pass_makes_no_implication_check(self, monkeypatch):
        rng = random.Random(460)
        calls = self.spy_on_implies(monkeypatch)
        for _ in range(20):
            f = two_filter_grid_output(rng)
            if f.is_terminal:
                continue
            first = unateness_grid(f, 4, 4)
            assert calls
            calls.clear()
            assert unateness_grid(f, 4, 4) == first
            assert [u for _, _, _, u in first] == unateness(f)
            model_robustness(f)  # the level chain reads the kept kinds too
            assert calls == []

    def test_kept_kinds_cover_the_support_only(self):
        rng = random.Random(461)
        for m, f, table in oracle_functions(rng, 40):
            kinds = unateness(f)
            assert set(f._unate) == m.support(f)
            assert all(kinds[v] == kind != Unateness.UNUSED for v, kind in f._unate.items())

    def test_chain_over_a_billion_variables_keeps_one_entry(self):
        m = Manager(10**9)
        f = m.literal(5) | m.literal(7, False)
        assert max_robustness(f, "both") == 2
        assert f._unate == {5: Unateness.POSITIVE, 7: Unateness.NEGATIVE}


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

    @pytest.mark.parametrize("bad", [(0, 1, 1), (0, 2)])
    def test_dataset_every_row_checked(self, bad):
        m, f = or2()
        with pytest.raises(ValueError):
            dataset_average_robustness(f, [(0, 1), bad])


class TestDatasetBatch:
    """Dataset robustness against the mean of the bottom-up oracle."""

    @staticmethod
    def per_row_mean(f, rows):
        return Fraction(sum(bottom_up_robustness(f, x) for x in rows), len(rows))

    def test_every_row_of_small_functions(self):
        rng = random.Random(1202)
        functions = list(oracle_functions(rng, 30))
        m = Manager(10)
        table = [rng.randint(0, 1) for _ in range(1 << 10)]
        functions.append((m, bdd_from_table(m, table), table))
        for m, f, _ in functions:
            if f.is_terminal:
                continue
            rows = [bits_of(i, m.num_vars) for i in range(1 << m.num_vars)]
            assert dataset_average_robustness(f, rows) == self.per_row_mean(f, rows)

    def test_seeded_images_of_a_block_order_net(self):
        rng = random.Random(1203)
        f = block_order_output(rng, 12, 3, -3.0)
        rows = [bits_of(rng.getrandbits(144), 144) for _ in range(260)]
        assert dataset_average_robustness(f, rows) == self.per_row_mean(f, rows)

    def test_one_row(self):
        rng = random.Random(1204)
        m = Manager(7)
        f, _ = random_nontrivial(rng, 7, m)
        for i in (0, 77, 127):
            x = bits_of(i, 7)
            assert dataset_average_robustness(f, [x]) == bottom_up_robustness(f, x)

    def test_deep_conjunction(self):
        n = 1200
        m = Manager(n)
        f = m.true
        for v in reversed(range(n)):
            f = m.literal(v) & f
        ones = (1,) * n
        rows = [ones] + [ones[:v] + (0,) + ones[v + 1 :] for v in (0, 599, 1199)]
        assert dataset_average_robustness(f, rows) == self.per_row_mean(f, rows) == 1
        zeros = [(0,) * n]
        assert dataset_average_robustness(f, zeros) == self.per_row_mean(f, zeros) == n

    WIDTH = "dataset rows must each have 2 bits"
    BIT = "instance bits must be 0 or 1"

    @pytest.mark.parametrize(
        "rows, message",
        [([], "empty dataset"), ([(0, 1), (0,)], WIDTH), ([(0, 1), (1, 1, 0)], WIDTH),
         ([(0, 1), (0, -1)], BIT), ([(0, 0.5)], BIT), ([(0, "1")], BIT), ([(0, None)], BIT),
         ([0, 1], WIDTH), ([[(0, 1)]], WIDTH), ([(0, 1), (1, 2)], BIT),
         ([(0, 1), (1, [1])], BIT), ([(0, 1), (1, float("nan"))], BIT)],
        ids=["empty", "short", "long", "negative", "fraction", "string", "none",
             "flat", "nested", "two", "list", "nan"],
    )
    def test_bad_rows_rejected(self, rows, message):
        m, f = or2()
        with pytest.raises(ValueError, match="^%s$" % message):
            dataset_average_robustness(f, rows)


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
            assert marginals(f) == expected

    def test_marginals_with_fewer_counted_variables(self):
        m = Manager(5)
        f = m.literal(1) | m.literal(2)
        assert marginals(f)[2] == Fraction(2, 3)
        assert marginals(f)[4] == Fraction(1, 2)

    def test_unateness_matches_truth_table(self):
        rng = random.Random(418)
        for m, f, table in oracle_functions(rng, 80):
            n = m.num_vars
            expected = [tt_unateness(table, n, v) for v in range(n)]
            assert [u.value for _, _, _, u in unateness_grid(f, 1, n)] == expected
            assert [u.value for u in unateness(f)] == expected


def container_sizes(m):
    """Length of every dict and list the manager holds."""
    return {k: len(v) for k, v in vars(m).items() if isinstance(v, (dict, list))}


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
                sizes = container_sizes(m)
                instance_robustness(f, x)
                assert pi_explanation(f, x) == reason
                fooling_complete(f, reason, bits_of(i ^ ((1 << n) - 1), n))
                marginal_grid(f, 1, n)
                unateness_grid(f, 1, n)
                dataset_average_robustness(f, [x, bits_of(i ^ 1, n)])
                m.model_count(f)
                assert m.allocated == before
                assert container_sizes(m) == sizes

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
            fooling_complete(f, reason, x)  # the reason's proof is kept on f now
            for dropped in range(reason.cardinality):
                subset = reason.literals[:dropped] + reason.literals[dropped + 1 :]
                for bad in (subset, Explanation(subset, reason.label)):
                    with pytest.raises(ValueError):
                        fooling_complete(f, bad, x)
            with pytest.raises(ValueError):
                fooling_complete(f, {}, x)
            assert fooling_complete(f, reason, x) == x


class TestInstanceBits:
    """Every instance query refuses a bit that is not 0 or 1, before any walk."""

    BAD = [2, -1, None, "1", [1], float("nan")]
    BAD_IDS = ["two", "minus-one", "none", "string", "list", "nan"]

    # the network's reference pass computes f too: 2*x0 + x1 + x2 >= 3
    SPEC = load_spec(
        '{"input":{"h":1,"w":3},"layers":[{"type":"dense_step","weights":[[2,1,1]],"bias":[-3]}]}'
    )

    @staticmethod
    def fx():
        # x0 = 0 decides the label, so no walk reads the other bits
        m = Manager(3)
        return m, m.literal(0) & (m.literal(1) | m.literal(2))

    @pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
    def test_bad_bits_refused(self, bad):
        m, f = self.fx()
        reason = pi_explanation(f, (1, 1, 0))
        for x in ((0, 1, bad), (bad, 1, 0)):
            for query in (instance_robustness, pi_explanation):
                with pytest.raises(ValueError, match="^instance bits must be 0 or 1$"):
                    query(f, x)
            with pytest.raises(ValueError, match="^instance bits must be 0 or 1$"):
                fooling_complete(f, reason, x)
            with pytest.raises(ValueError, match="^image bits must be 0 or 1$"):
                forward_eval(self.SPEC, x)

    def test_bools_and_floats_read_as_bits(self):
        m, f = self.fx()
        for x in all_instances(3):
            reason = pi_explanation(f, x)
            assert forward_eval(self.SPEC, x) == (m.evaluate(f, x),)
            for same in (tuple(b == 1 for b in x), tuple(float(b) for b in x)):
                assert instance_robustness(f, same) == instance_robustness(f, x)
                assert pi_explanation(f, same) == reason
                assert fooling_complete(f, reason, same) == fooling_complete(f, reason, x)
                assert forward_eval(self.SPEC, same) == forward_eval(self.SPEC, x)

    @pytest.mark.parametrize("x", [(0, 1), (0, 1, 1, 0), ()])
    def test_wrong_length_keeps_its_message(self, x):
        m, f = self.fx()
        reason = pi_explanation(f, (1, 1, 0))
        message = "^instance has %d bits, expected 3$" % len(x)
        for query in (instance_robustness, pi_explanation):
            with pytest.raises(ValueError, match=message):
                query(f, x)
        with pytest.raises(ValueError, match=message):
            fooling_complete(f, reason, x)


class TestSmallDiagramMadeLate:
    """A small diagram made after 100,000 nodes answers as its fresh copy does."""

    VARS = (3, 17, 30, 41, 52, 63)

    def test_answers_match_a_fresh_copy(self):
        rng = random.Random(2901)
        m = Manager(64)
        compile_pseudo(IntThresholdUnit([rng.randint(-300, 300) for _ in range(64)], 0), m)
        assert m.allocated >= 100_000
        draw = random.Random(0)  # a table whose explanations take both passes for both labels
        f = bdd_from_table(m, [draw.randint(0, 1) for _ in range(64)], self.VARS)
        text = io.StringIO()
        write_obdd(f, text)
        g = read_obdd(io.StringIO(text.getvalue()))
        assert m.node_count(f) <= 40 and f.i >= 100_000 > 50 > g.i
        assert m.model_count(f) == g.manager.model_count(g)
        assert marginals(f) == marginals(g)
        assert model_robustness(f) == model_robustness(g)
        calls = spy_on_ite(m)
        fill = tuple(rng.randint(0, 1) for _ in range(64))
        passes = set()
        for i in range(64):
            x = list(fill)
            for k, v in enumerate(self.VARS):
                x[v] = (i >> k) & 1
            before = len(calls)
            reason = pi_explanation(f, x)
            passes.add((reason.label, "exact" if len(calls) > before else "certified"))
            assert reason == pi_explanation(g, x)
            assert fooling_complete(f, reason, fill) == fooling_complete(g, reason, fill)
            assert fooling_complete(f, reason, x) == tuple(x)
        assert passes == {(label, p) for label in (0, 1) for p in ("certified", "exact")}
        # late diagrams of a unate function (a majority) and of it XOR-ed with
        # one of its variables, against the recursive program
        unate = bdd_from_table(m, [int(bin(i).count("1") >= 3) for i in range(64)], self.VARS)
        for h, kinds in ((unate, {"certified"}), (unate ^ m.literal(30), {"certified", "exact"})):
            assert m.node_count(h) <= 40 and h.i >= 100_000
            passes = set()
            for i in range(64):
                x = list(fill)
                for k, v in enumerate(self.VARS):
                    x[v] = (i >> k) & 1
                before = len(calls)
                reason = pi_explanation(h, x)
                passes.add("exact" if len(calls) > before else "certified")
                assert reason.literals == recursive_pi_explanation(h, x)
            assert passes == kinds


class TestQueryBudgetErrors:
    """A budget abort inside a query names the query that hit it."""

    @pytest.fixture
    def full(self):
        # the budget holds both diagrams and no node more; the second level
        # of either chain (majority of three) needs new nodes
        m = Manager(3)
        x0, x1, x2 = (m.literal(v) for v in range(3))
        either, every = x0 | x1 | x2, x0 & x1 & x2
        m.node_budget = m.allocated
        return m, either, every

    def test_erosion_names_its_level(self, full):
        m, either, _ = full
        with pytest.raises(BudgetExceededError) as exc:
            robust_sets(either)
        assert str(exc.value) == (
            "node budget of %d exhausted while building robustness level 2 by erosion"
            % m.node_budget
        )

    def test_dilation_names_its_level(self, full):
        m, _, every = full
        with pytest.raises(BudgetExceededError) as exc:
            model_robustness(every, "negative")
        assert str(exc.value) == (
            "node budget of %d exhausted while building robustness level 2 by dilation"
            % m.node_budget
        )

    def test_pi_explanation_names_itself(self):
        m = Manager(3)
        f = m.ite(m.literal(0), m.literal(1), m.literal(2))
        m.node_budget = m.allocated  # releasing x0 conjoins x1 and x2
        with pytest.raises(BudgetExceededError, match="of a PI explanation$"):
            pi_explanation(f, (1, 1, 1))


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
            assert model_robustness(f, "negative").negative.counts == tuple(
                sorted(negative.items())
            )


def overlapping_window_output(rng, height, width, filters):
    """The one output of a seeded net whose 2x2 windows overlap (stride 1)."""

    def weight():
        return rng.choice((-2.0, -1.0, 1.0, 2.0))

    conv = ConvStep(
        tuple(
            ConvFilter(((tuple(weight() for _ in range(2)), tuple(weight() for _ in range(2))),), -1.0)
            for _ in range(filters)
        ),
        1,
    )
    windows = filters * (height - 1) * (width - 1)
    dense = DenseStep((tuple(weight() for _ in range(windows)),), (0.0,))
    return compile_network(NetworkSpec((height, width), (conv, dense)), 0).outputs[0]


def mixed_unateness_functions(rng):
    """Seeded functions with unate and non-unate variables side by side.

    Overlapping-window nets, random formulas with 1-6 non-unate variables,
    and XOR-like functions: a parity of a few variables joined to a unate
    part.  Each comes with its truth table.
    """
    for _ in range(12):
        f = overlapping_window_output(rng, 3, 4, rng.randint(1, 2))
        if not f.is_terminal:
            yield f, table_of(f, 12)
    found = 0
    while found < 40:
        n = rng.randint(3, 8)
        m = Manager(n)
        f, table = random_nontrivial(rng, n, m)
        if 1 <= sum(tt_unateness(table, n, v) == "none" for v in range(n)) <= 6:
            found += 1
            yield f, table
    for _ in range(12):
        n = rng.randint(3, 8)
        m = Manager(n)
        xs = [m.literal(v) for v in range(n)]
        k = rng.randint(2, n - 1)
        parity = xs[0]
        for v in range(1, k):
            parity = parity ^ xs[v]
        rest = xs[k]
        for v in range(k + 1, n):
            rest = rest | xs[v] if rng.random() < 0.5 else rest & ~xs[v]
        f = parity & rest if rng.random() < 0.5 else parity | rest
        yield f, table_of(f, n)


class TestLevelChainReadsUnateness:
    """Unate variables take one ITE call per node; answers and nodes stay the same."""

    def test_profiles_match_the_oracles(self):
        rng = random.Random(470)
        mixed = 0
        for f, table in mixed_unateness_functions(rng):
            n = f.manager.num_vars
            kinds = set(unateness(f))
            mixed += Unateness.NONE in kinds and bool({Unateness.POSITIVE, Unateness.NEGATIVE} & kinds)
            profile = model_robustness(f)
            assert dict(profile.positive.counts) == robustness_counts(table, n, True)
            assert dict(profile.negative.counts) == robustness_counts(table, n, False)
            values = hamming_robustness(table, n)
            for polarity, labels in (("positive", {1}), ("negative", {0}), ("both", {0, 1})):
                expected = max(r for r, b in zip(values, table) if b in labels)
                assert max_robustness(f, polarity) == expected
        assert mixed >= 30

    def test_same_levels_and_node_store_as_two_ite_calls(self):
        # each function is built twice, in two managers, the same way
        rng = random.Random(471)
        for _ in range(60):
            n = rng.randint(2, 8)
            expr = random_formula(rng, n, depth=rng.randint(2, 5))
            var = rng.randrange(n)
            managers = Manager(n), Manager(n)
            f, g = (build_formula(expr, m) ^ m.literal(var) for m in managers)
            if f.is_terminal:
                continue
            profile = model_robustness(f)
            assert [h.i for h in two_ite_level_chain(g)] == [h.i for h in robust_sets(f)]
            two_ite_level_chain(g, dilate=True)
            assert managers[0]._nodes == managers[1]._nodes
            assert profile.mr == model_robustness(g).mr

    def test_unate_chain_adds_fewer_ite_entries(self):
        # a deterministic gate: the same unate net compiled twice
        for dilate in (False, True):
            f, g = (block_order_output(random.Random(472), 6, 2, -2.0) for _ in range(2))
            assert Unateness.NONE not in unateness(f)
            entries = [len(h.manager._ite_cache) for h in (f, g)]
            levels = analysis._level_chain(f, dilate)
            reference = two_ite_level_chain(g, dilate)
            assert [h.i for h in levels] == [h.i for h in reference]
            assert len(levels) > 1
            assert f.manager._nodes == g.manager._nodes
            added = [len(h.manager._ite_cache) - e for h, e in zip((f, g), entries)]
            assert added[0] < added[1]


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

    def test_disjunction_robustness(self):
        # all ones is the deepest answer: the search settles every node
        n = 1200
        m = Manager(n)
        f = m.false
        for v in reversed(range(n)):
            f = m.literal(v) | f
        ones = (1,) * n
        assert instance_robustness(f, ones) == n
        assert instance_robustness(f, ones[:599] + (0,) + ones[600:]) == n - 1
        assert instance_robustness(f, (0,) * 599 + (1,) + (0,) * 600) == 1
        assert instance_robustness(f, (0,) * n) == 1

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
