"""Engine tests: construction, Boolean algebra, counting, serialization."""

import gc
import io
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from nnobdd import (
    BudgetExceededError,
    IntThresholdUnit,
    Manager,
    OBDDError,
    compile_network,
    compile_pseudo,
    fooling_complete,
    instance_robustness,
    marginal_grid,
    marginals,
    model_robustness,
    pi_explanation,
    read_neuron,
    read_obdd,
    read_spec,
    robust_sets,
    unateness_grid,
    write_obdd,
)
from nnobdd import cli, obdd
from nnobdd.obdd import NodeRef, _counts, _reachable, _walk_from

from oracles import (
    all_instances,
    bdd_from_table,
    build_formula,
    check_unique_tables,
    depth_first_text,
    eval_formula,
    formula_table,
    index_of,
    ite_compose,
    random_formula,
    set_walk,
    table_of,
)


@pytest.fixture
def m3():
    return Manager(3)


class TestLiterals:
    def test_positive_literal_semantics(self, m3):
        x0 = m3.literal(0)
        assert m3.evaluate(x0, (1, 0, 0)) == 1
        assert m3.evaluate(x0, (0, 1, 1)) == 0

    def test_negative_literal_semantics(self, m3):
        nx0 = m3.literal(0, positive=False)
        assert m3.evaluate(nx0, (1, 0, 0)) == 0
        assert m3.evaluate(nx0, (0, 0, 0)) == 1

    def test_literal_is_hash_consed(self, m3):
        assert m3.literal(0) == m3.literal(0)
        assert m3.literal(0) != m3.literal(0, positive=False)

    def test_out_of_range_variable(self, m3):
        with pytest.raises(ValueError):
            m3.literal(3)


class TestApply:
    def test_contradiction(self, m3):
        x0 = m3.literal(0)
        assert (x0 & ~x0) == m3.false

    def test_or_identity_returns_same_handle(self, m3):
        f = m3.literal(0) & m3.literal(1)
        assert m3.apply("or", f, m3.false) == f

    def test_and_against_enumeration(self, m3):
        f = m3.literal(0) | m3.literal(1)  # A or B
        g = ~m3.literal(2)  # not C
        h = f & g
        for x in all_instances(3):
            expected = (x[0] | x[1]) & (1 - x[2])
            assert m3.evaluate(h, x) == expected

    def test_xor(self, m3):
        h = m3.literal(0) ^ m3.literal(1)
        for x in all_instances(3):
            assert m3.evaluate(h, x) == x[0] ^ x[1]

    def test_manager_mismatch(self, m3):
        other = Manager(3)
        with pytest.raises(ValueError):
            m3.apply("and", m3.literal(0), other.literal(0))

    def test_spellings_share_one_ite_entry(self, m3):
        a = m3.literal(0) | m3.literal(2)
        b = m3.literal(1) ^ m3.literal(2)
        conj, disj = a & b, a | b
        entries = len(m3._ite_cache)
        assert b & a == conj and m3.ite(a, b, a) == conj
        assert b | a == disj and m3.ite(a, a, b) == disj
        assert len(m3._ite_cache) == entries

    def test_unknown_op(self, m3):
        with pytest.raises(ValueError):
            m3.apply("nand", m3.literal(0), m3.literal(1))


class TestNegate:
    def test_terminals(self, m3):
        assert ~m3.true == m3.false
        assert ~m3.false == m3.true

    def test_literal(self, m3):
        assert m3.evaluate(~m3.literal(0), (0, 0, 0)) == 1

    def test_involution_is_handle_equal(self, m3):
        f = (m3.literal(0) | m3.literal(1)) ^ m3.literal(2)
        assert ~~f == f

    def test_complement_count(self, m3):
        f = m3.literal(0) & m3.literal(1)
        assert m3.model_count(~f) == 8 - m3.model_count(f)


class TestCondition:
    def test_on_literal(self, m3):
        assert m3.condition(m3.literal(0), 0, 1) == m3.true

    def test_conjunction_collapses(self, m3):
        f = m3.literal(0) & m3.literal(1)
        assert m3.condition(f, 0, 0) == m3.false

    def test_result_drops_the_variable(self, m3):
        f = (m3.literal(0) | m3.literal(1)) & m3.literal(2)
        assert 2 not in m3.support(m3.condition(f, 2, 1))

    def test_idempotent_under_reconditioning(self, m3):
        f = (m3.literal(0) | m3.literal(1)) & ~m3.literal(2)
        once = m3.condition(f, 1, 0)
        assert m3.condition(once, 1, 1) == once
        assert m3.condition(once, 1, 0) == once

    def test_every_variable_matches_truth_tables(self):
        rng = random.Random(1006)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = Manager(n)
            expr = random_formula(rng, n)
            f = build_formula(expr, m)
            table = formula_table(expr, n)
            for var in range(n):
                for value in (0, 1):
                    g = m.condition(f, var, value)
                    m.audit(g)
                    assert var not in m.support(g)
                    for x in all_instances(n):
                        fixed = x[:var] + (value,) + x[var + 1 :]
                        assert m.evaluate(g, x) == table[index_of(fixed)]

    def test_deeper_than_the_recursion_limit(self):
        m = Manager(1200)

        def conjunction(n):
            f = m.true
            for v in reversed(range(n)):
                f = m.literal(v) & f
            return f

        assert m.condition(conjunction(1200), 1199, 1) == conjunction(1199)
        assert m.condition(conjunction(1200), 1199, 0) == m.false


class TestCompose:
    def test_identity_substitution(self):
        holes = Manager(1)
        base = Manager(3)
        g = base.literal(1) & ~base.literal(2)
        assert base.compose(holes.literal(0), [g]) == g

    def test_duplicate_substitution_idempotence(self):
        holes = Manager(2)
        base = Manager(2)
        f = holes.literal(0) & holes.literal(1)
        x0 = base.literal(0)
        assert base.compose(f, [x0, x0]) == x0

    def test_matches_direct_enumeration(self):
        holes = Manager(2)
        base = Manager(2)
        f = holes.literal(0) ^ holes.literal(1)
        subs = [base.literal(0) | base.literal(1), ~base.literal(1)]
        composed = base.compose(f, subs)
        for x in all_instances(2):
            inner = (x[0] | x[1], 1 - x[1])
            assert base.evaluate(composed, x) == inner[0] ^ inner[1]

    def test_arity_mismatch(self):
        holes = Manager(2)
        base = Manager(2)
        with pytest.raises(ValueError):
            base.compose(holes.literal(0), [base.literal(0)])

    def test_non_handle_rejected(self):
        with pytest.raises(ValueError):
            Manager(2).compose("x", [])


class TestComposeGraft:
    """`compose` against truth tables and against a pure-ITE substitution.

    Each substituent is given by a truth table over a list of variables of
    the base manager, so its value on an instance is read off the table.
    """

    def check(self, rng, k, n, sub_vars):
        """Compose a random placeholder function; return the ITE entries it made."""
        holes = Manager(k)
        base = Manager(n)
        outer = [rng.randint(0, 1) for _ in range(1 << k)]
        tables = [
            [rng.randint(0, 1) for _ in range(1 << len(vs))] for vs in sub_vars
        ]
        subs = [bdd_from_table(base, t, vs) for t, vs in zip(tables, sub_vars)]
        f = bdd_from_table(holes, outer)
        base._ite_cache.clear()
        composed = base.compose(f, subs)
        ite_entries = len(base._ite_cache)
        for x in all_instances(n):
            inner = [
                t[index_of([x[v] for v in vs])] for t, vs in zip(tables, sub_vars)
            ]
            assert base.evaluate(composed, x) == outer[index_of(inner)]
        base.audit(composed)
        assert composed.i == ite_compose(base, f, subs)
        return ite_entries

    def test_ascending_disjoint_blocks_take_the_graft(self):
        rng = random.Random(2001)
        for _ in range(60):
            k = rng.randint(1, 5)
            widths = [rng.randint(1, 3) for _ in range(k)]
            starts = [sum(widths[:j]) for j in range(k)]
            sub_vars = [list(range(a, a + w)) for a, w in zip(starts, widths)]
            assert self.check(rng, k, sum(widths), sub_vars) == 0

    def test_interleaved_and_overlapping_fall_back(self):
        rng = random.Random(2002)
        fallbacks = 0
        for _ in range(60):
            k = rng.randint(1, 8)
            n = rng.randint(2, 6)
            if rng.random() < 0.5:  # interleaved: block j holds every k-th variable
                sub_vars = [list(range(j % n, n, k)) for j in range(k)]
            else:  # overlapping: random ascending subsets
                sub_vars = [
                    sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(k)
                ]
            fallbacks += self.check(rng, k, n, sub_vars) > 0
        assert fallbacks > 0

    def test_constant_and_repeated_substituents(self):
        rng = random.Random(2003)
        for _ in range(60):
            k = rng.randint(1, 8)
            n = rng.randint(1, 5)
            holes = Manager(k)
            base = Manager(n)
            outer = [rng.randint(0, 1) for _ in range(1 << k)]
            pool = [base.true, base.false, base.literal(rng.randrange(n))]
            table = [rng.randint(0, 1) for _ in range(1 << n)]
            pool.append(bdd_from_table(base, table))
            subs = [rng.choice(pool) for _ in range(k)]
            f = bdd_from_table(holes, outer)
            composed = base.compose(f, subs)
            for x in all_instances(n):
                inner = [base.evaluate(s, x) for s in subs]
                assert base.evaluate(composed, x) == outer[index_of(inner)]
            base.audit(composed)
            assert composed.i == ite_compose(base, f, subs)


class TestComposeGraftTable:
    """Graft copies join the pending suffix, in no unique table, and are still
    hash-consed: budget, reuse of older nodes and of the call's own copies."""

    @staticmethod
    def xor_then_or(budget=None):
        # h0 & h1 with h0 <- x0 ^ x1 ^ x2 and h1 <- x3 | x4: h1 grafts onto
        # itself, then the five-node xor chain is copied with TRUE -> x3 | x4
        holes = Manager(2)
        base = Manager(5, node_budget=budget)
        subs = [
            base.literal(0) ^ base.literal(1) ^ base.literal(2),
            base.literal(3) | base.literal(4),
        ]
        base._ite_cache.clear()
        return base, holes.literal(0) & holes.literal(1), subs

    def test_budget_runs_out_mid_graft(self):
        base, f, subs = self.xor_then_or()
        before = base.allocated
        base.compose(f, subs)
        assert base.allocated - before == 5
        budget = before + 2
        base, f, subs = self.xor_then_or(budget)
        with pytest.raises(BudgetExceededError) as graft:
            base.compose(f, subs)
        assert base.allocated == base.node_budget  # two copies made, the third refused
        assert base._ite_cache == {}  # no fallback ran: the graft hit the budget
        assert base.stats()["pending"] == 2
        check_unique_tables(base)  # every copy made is pending
        with pytest.raises(BudgetExceededError) as direct:
            base.literal(4, positive=False)  # a new node through _mk_id
        check_unique_tables(base)
        assert str(graft.value) == str(direct.value) == "node budget of %d exhausted" % budget

    def test_graft_does_not_call_mk_id(self, monkeypatch):
        base, f, subs = self.xor_then_or()
        monkeypatch.setattr(base, "_mk_id", None)
        base.audit(base.compose(f, subs))

    def test_copies_already_in_the_table_are_reused(self):
        base, f, subs = self.xor_then_or()
        base.compose(f, subs)
        total = base.allocated
        base, f, subs = self.xor_then_or()
        part = base.literal(2) & subs[1]  # the copy of x2's node
        base._ite_cache.clear()
        composed = base.compose(f, subs)
        assert base.allocated == total
        assert part.i in _reachable(composed)
        assert base._ite_cache == {}
        base.audit(composed)
        assert composed.i == ite_compose(base, f, subs)

    @staticmethod
    def check_all_grafted(base, f, subs, made):
        allocated = base.allocated
        composed = base.compose(f, subs)
        assert base.stats()["ite_entries"] == 0  # every placeholder node grafted
        assert base.allocated - allocated == made
        check_unique_tables(base)  # no copy made twice
        base.audit(composed)
        assert composed.i == ite_compose(base, f, subs)

    def test_a_copy_made_earlier_in_the_call_is_reused(self):
        # h0 ? (h2 & h3) : (h1 & h3), h3 <- x4: both middle nodes graft with
        # TRUE -> x4 and FALSE -> FALSE, onto x2 & x3 and x1 & x2 & x3.  The
        # second finds the first's copy x3 & x4, looked up and pending, and
        # then its parent x2 & x3 & x4, which the first made new, unlooked-up
        holes = Manager(4)
        base = Manager(5)
        h3 = holes.literal(3)
        f = holes.ite(holes.literal(0), holes.literal(2) & h3, holes.literal(1) & h3)
        x = [base.literal(v) for v in range(5)]
        x23 = x[2] & x[3]
        subs = [x[0], x[1] & x23, x23, x[4]]
        base._ite_cache.clear()
        # x3 & x4 and x2 & x3 & x4 once, x1 & x2 & x3 & x4, then the root
        self.check_all_grafted(base, f, subs, 4)

    def test_a_copy_indexed_earlier_in_the_call_is_reused(self):
        # three placeholder nodes graft with TRUE -> x9 and FALSE -> FALSE, in
        # turn onto x7, x5 ? x6 & x8 : x7 and x6 & x8.  The second makes the
        # copy x8 & x9, then meets the first's x7 & x9 and completes the
        # tables, then makes (x6 & x8) & x9 new on top of x8 & x9.  The third
        # finds x8 & x9 in its table, and then (x6 & x8) & x9, which is in
        # neither index unless finding x8 & x9 completes the tables again
        holes = Manager(6)
        base = Manager(10)
        a = holes.literal(5)
        lows = [holes.literal(v) & a for v in (2, 3, 4)]  # ids in this order
        f = holes.ite(holes.literal(0), lows[1], holes.ite(holes.literal(1), lows[2], lows[0]))
        x9, x8, x7 = base.literal(9), base.literal(8), base.literal(7)
        x68 = base.literal(6) & x8
        x5 = base.literal(5)
        subs = [base.literal(0), base.literal(1), x7, base.ite(x5, x68, x7), x68, x9]
        base._ite_cache.clear()
        # x7 & x9, x8 & x9, (x6 & x8) & x9, the second root, then the two upper nodes
        self.check_all_grafted(base, f, subs, 6)


class TestComposePending:
    """Graft copies stay pending until a lookup needs them; each lookup site
    then returns the copy it asks for, as after `compile_pseudo`
    (`test_neuron.TestPendingIndex`)."""

    @staticmethod
    def graft():
        base, f, subs = TestComposeGraftTable.xor_then_or()
        before = base.stats()
        composed = base.compose(f, subs)
        after = base.stats()
        assert after["indexed"] == before["indexed"]
        assert after["pending"] == after["allocated"] - before["allocated"] == 5
        assert after["ite_entries"] == 0
        return base, subs, composed

    @staticmethod
    def audit(base, subs, composed):
        base.audit(composed)
        return composed

    @staticmethod
    def apply(base, subs, composed):
        return subs[0] & subs[1]

    @staticmethod
    def read(base, subs, composed):
        buf = io.StringIO()
        write_obdd(composed, buf)
        return read_obdd(io.StringIO(buf.getvalue()), base)

    @pytest.mark.parametrize("site", ["audit", "apply", "read"])
    def test_each_site_finds_the_pending_copies(self, site):
        base, subs, composed = self.graft()
        allocated = base.allocated
        assert getattr(self, site)(base, subs, composed) == composed
        assert base.allocated == allocated
        stats = base.stats()
        assert stats["pending"] == 0 and stats["indexed"] == allocated - 2
        check_unique_tables(base)

    def test_literal_finds_a_pending_copy(self):
        # ~h0 with h0 <- x3 grafts TRUE -> FALSE and FALSE -> TRUE: ~x3, pending
        base = Manager(5)
        x3 = base.literal(3)
        negated = base.compose(~Manager(1).literal(0), [x3])
        assert base.stats()["pending"] == 1 and base.stats()["ite_entries"] == 0
        allocated = base.allocated
        assert base.literal(3, positive=False) == negated
        assert base.allocated == allocated
        check_unique_tables(base)

    def test_stats(self):
        m = Manager(3)
        assert m.stats() == {"allocated": 2, "pending": 0, "indexed": 0, "ite_entries": 0}
        f = m.literal(0) & m.literal(1)
        assert m.stats() == {"allocated": 5, "pending": 0, "indexed": 3, "ite_entries": 1}
        g = m.compose(Manager(1).literal(0), [f])  # copies f's nodes onto themselves
        assert g == f and m.stats()["pending"] == 0


class TestCounting:
    def test_true_over_three_vars(self, m3):
        assert m3.model_count(m3.true) == 8

    def test_conjunction(self):
        m = Manager(2)
        assert m.model_count(m.literal(0) & m.literal(1)) == 1

    def test_skipped_variables_are_free(self, m3):
        assert m3.model_count(m3.literal(1)) == 4

    def test_huge_counts_are_exact(self):
        m = Manager(256)
        assert m.model_count(m.true) == 2**256
        assert m.model_count(m.literal(17)) == 2**255

    def test_every_node_counts_over_all_variables(self):
        rng = random.Random(1103)
        skips = roots_below_zero = 0
        for _ in range(60):
            n = rng.randint(1, 8)
            m = Manager(n)
            # a random subset of the variables: the root may sit below
            # variable 0 and edges may skip the unused levels
            used = sorted(rng.sample(range(n), rng.randint(1, n)))
            table = [rng.randint(0, 1) for _ in range(1 << len(used))]
            f = bdd_from_table(m, table, used)
            order = _reachable(f)
            count = _counts(f, order)
            assert (count[0], count[1]) == (0, 2**n)
            assert len(count) == max(f.i, 1) + 1  # a list indexed by id
            for u in order:
                assert count[u] == sum(table_of(NodeRef(m, u), n))
                var, lo, hi = m._nodes[u]
                skips += m._nodes[lo][0] > var + 1 or m._nodes[hi][0] > var + 1
            roots_below_zero += bool(order) and m._nodes[f.i][0] > 0
        assert skips and roots_below_zero

    def test_terminals_count_zero_and_all(self):
        for n in (0, 3, 70):
            m = Manager(n)
            for f in (m.false, m.true):
                assert _counts(f, _reachable(f)) == [0, 2**n]
            assert (m.model_count(m.false), m.model_count(m.true)) == (0, 2**n)

    def test_terminal_marginals(self):
        for n in (0, 3, 70):
            m = Manager(n)
            assert marginals(m.true) == [Fraction(1, 2)] * n
            with pytest.raises(ValueError, match="unsatisfiable"):
                marginals(m.false)

    def test_false_counts_zero_without_counting_true(self):
        m = Manager(10**9)
        tracemalloc.start()
        try:
            assert m.model_count(m.false) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # TRUE's count alone is 125 MB

    def test_1200_variable_counts_and_marginals(self):
        m = Manager(1200)
        both = conjunction(m, range(1200))
        either = m.false
        for v in reversed(range(1200)):
            either = m.literal(v) | either
        assert m.model_count(both) == 1
        assert m.model_count(either) == 2**1200 - 1
        assert {value for _, _, _, value in marginal_grid(both, 30, 40)} == {1}


def path_nodes(m, f):
    """Nonterminals on the evaluation paths of all instances, ascending."""
    found = set()
    for x in all_instances(m.num_vars):
        u = f.i
        while u > 1:
            found.add(u)
            var, lo, hi = m._nodes[u]
            u = hi if x[var] else lo
    return sorted(found)


def conjunction(m, variables):
    f = m.true
    for v in sorted(variables, reverse=True):
        f = m.literal(v) & f
    return f


class TestReachable:
    """The shared node walk against the evaluation paths of every instance."""

    def test_equals_the_nodes_on_evaluation_paths(self):
        rng = random.Random(1101)
        for _ in range(40):
            n = rng.randint(1, 10)
            m = Manager(n)
            funcs = []
            for _ in range(4):
                # an unrelated diagram between each two interleaves the ids
                build_formula(random_formula(rng, n, 4), m)
                table = [rng.randint(0, 1) for _ in range(1 << n)]
                funcs.append(bdd_from_table(m, table))
            for f in funcs:
                expected = path_nodes(m, f)
                assert _reachable(f) == expected
                assert m.node_count(f) == len(expected)

    def test_terminals_reach_no_nodes(self, m3):
        assert _reachable(m3.true) == []
        assert _reachable(m3.false) == []

    def test_kept_walk_outlasts_new_diagrams(self):
        rng = random.Random(1104)
        for _ in range(30):
            n = rng.randint(1, 8)
            m = Manager(n)
            f = bdd_from_table(m, [rng.randint(0, 1) for _ in range(1 << n)])
            order = _reachable(f)
            # new nodes above, below and beside f's, and more ITE entries
            for _ in range(3):
                g = build_formula(random_formula(rng, n, 4), m)
                for h in (f & g, f | ~g, f ^ g):
                    _reachable(h)
            assert _reachable(f) is order
            assert order == _walk_from(NodeRef(m, f.i)) == path_nodes(m, f)

    def test_marks_match_a_set_walk(self):
        # terminals, and diagrams made early in a manager that grew much
        # larger afterwards, each walked through a fresh handle
        rng = random.Random(1105)
        for _ in range(20):
            n = rng.randint(7, 10)
            m = Manager(n)
            early = [build_formula(random_formula(rng, n, 3), m) for _ in range(3)]
            for _ in range(20):
                bdd_from_table(m, [rng.randint(0, 1) for _ in range(1 << n)])
            late = [build_formula(random_formula(rng, n, 5), m) for _ in range(3)]
            assert m.allocated > 10 * max(f.i for f in early)
            for f in [m.false, m.true] + early + late:
                g = NodeRef(m, f.i)
                assert _walk_from(g) == set_walk(g)
                buf = io.StringIO()
                write_obdd(g, buf)
                assert buf.getvalue() == depth_first_text(g)

    def test_marks_match_a_set_walk_on_relabelled_files(self):
        # a file's ids may be arbitrary, negative and sparse; the reader
        # makes its own, after the nodes already in the manager
        rng = random.Random(1106)
        for _ in range(40):
            n = rng.randint(1, 8)
            buf = io.StringIO()
            write_obdd(build_formula(random_formula(rng, n, 4), Manager(n)), buf)
            text = buf.getvalue()
            header, *lines = text.splitlines()
            pool = [v for v in range(-5 * len(lines), 5 * len(lines) + 3) if v not in (0, 1)]
            ids = {0: 0, 1: 1}
            ids.update(zip(range(2, len(lines) + 2), rng.sample(pool, len(lines))))
            root = int(header.split("root=")[1])
            if root > 1:
                ids[root] = 10**12 + rng.randrange(10**6)  # the header's id is nonnegative
            relabelled = ["obdd n=%d root=%d" % (n, ids[root])]
            for line in lines:
                u, var, lo, hi = map(int, line.split())
                relabelled.append("%d %d %d %d" % (ids[u], var, ids[lo], ids[hi]))
            m = Manager(n)
            build_formula(random_formula(rng, n, 4), m)
            g = read_obdd(io.StringIO("\n".join(relabelled) + "\n"), m)
            assert _walk_from(g) == set_walk(g)
            again = io.StringIO()
            write_obdd(g, again)
            assert again.getvalue() == depth_first_text(g) == text

    def test_first_walk_peaks_under_20_bytes_per_node(self):
        # visited ids are marked in f.i + 1 bytes; what the walk keeps is
        # the order list and its sort, not a set of ids (about 60 bytes per node)
        rng = random.Random(1107)
        unit = IntThresholdUnit(tuple(rng.randint(-100, 100) for _ in range(144)), 0)
        m = Manager(144)
        f = compile_pseudo(unit, m)
        tracemalloc.start()
        try:
            count = m.node_count(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count >= 200_000
        assert peak < 20 * count

    def test_compose_walks_each_handle_once(self, monkeypatch):
        src = Manager(3)
        f = (src.literal(0) & src.literal(1)) | ~src.literal(2)
        m = Manager(4)
        x = [m.literal(v) for v in range(4)]
        subs = [x[1] ^ x[3], x[0], x[2] & x[3]]
        walks = []
        walk = obdd._walk_from
        monkeypatch.setattr(obdd, "_walk_from", lambda g: walks.append(g) or walk(g))
        first = m.compose(f, subs)
        assert m.compose(f, subs) == first
        assert [g for g in walks if g is f] == [f]
        assert len({id(g) for g in walks}) == len(walks)

    def test_counts_after_caching_match_truth_tables(self):
        rng = random.Random(1102)
        for _ in range(30):
            n = rng.randint(1, 10)
            m = Manager(n)
            tables = [[rng.randint(0, 1) for _ in range(1 << n)] for _ in range(4)]
            funcs = [bdd_from_table(m, t) for t in tables]
            # shared subdiagrams are cached by the earlier counts
            funcs += [funcs[0] & funcs[1], funcs[2] | funcs[3]]
            tables += [
                [a & b for a, b in zip(tables[0], tables[1])],
                [a | b for a, b in zip(tables[2], tables[3])],
            ]
            for _ in range(2):
                for f, t in zip(funcs, tables):
                    assert m.model_count(f) == sum(t)

    def test_1200_variable_conjunction(self):
        m = Manager(1200)
        f = conjunction(m, range(1200))
        assert m.node_count(f) == 1200
        assert m.support(f) == set(range(1200))
        m.audit(f)
        assert m.model_count(f) == 1
        assert m.condition(f, 0, 1) == conjunction(m, range(1, 1200))
        assert m.condition(f, 600, 0) == m.false
        assert m.node_count(m.condition(f, 600, 1)) == 1199


class TestQueries:
    def test_is_valid_on_excluded_middle(self, m3):
        assert m3.is_valid(m3.literal(0) | ~m3.literal(0))

    def test_is_sat(self, m3):
        assert m3.is_sat(m3.literal(0))
        assert not m3.is_sat(m3.false)

    def test_node_count_of_false(self, m3):
        assert m3.node_count(m3.false) == 0

    def test_support(self, m3):
        f = (m3.literal(0) | m3.literal(1)) & ~m3.literal(2)
        assert m3.support(f) == {0, 1, 2}

    def test_evaluate_terminals(self, m3):
        for x in all_instances(3):
            assert m3.evaluate(m3.true, x) == 1
            assert m3.evaluate(m3.false, x) == 0

    def test_evaluate_length_check(self, m3):
        with pytest.raises(ValueError):
            m3.evaluate(m3.true, (1, 0))


class TestRandomizedInvariants:
    """Library operations against exhaustive truth-table computation."""

    def test_canonicity_semantic_iff_handle_equality(self):
        rng = random.Random(1001)
        for trial in range(1000):
            n = rng.randint(1, 8)
            m = Manager(n)
            e1 = random_formula(rng, n)
            if trial % 3 == 0:
                # same function built through a different operation sequence
                f = build_formula(e1, m)
                g = ~~build_formula(("not", ("not", e1)), m)
                t1 = formula_table(e1, n)
                t2 = t1
            else:
                e2 = random_formula(rng, n)
                f = build_formula(e1, m)
                g = build_formula(e2, m)
                t1 = formula_table(e1, n)
                t2 = formula_table(e2, n)
            assert (f == g) == (t1 == t2)

    def test_operations_agree_with_truth_tables(self):
        rng = random.Random(1002)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = Manager(n)
            expr = random_formula(rng, n)
            f = build_formula(expr, m)
            table = formula_table(expr, n)
            assert table_of(f, n) == table
            assert table_of(~f, n) == [1 - v for v in table]
            v = rng.randrange(n)
            b = rng.randint(0, 1)
            conditioned = m.condition(f, v, b)
            for i, x in enumerate(all_instances(n)):
                if x[v] == b:
                    assert m.evaluate(conditioned, x) == table[i]
            assert m.model_count(f) == sum(table)
            assert m.model_count(f) + m.model_count(~f) == 2**n
            m.audit(f)

    def test_compose_agrees_with_truth_tables(self):
        rng = random.Random(1003)
        for _ in range(60):
            k = rng.randint(1, 4)
            n = rng.randint(1, 6)
            holes = Manager(k)
            base = Manager(n)
            outer = random_formula(rng, k)
            inners = [random_formula(rng, n) for _ in range(k)]
            composed = base.compose(
                build_formula(outer, holes),
                [build_formula(e, base) for e in inners],
            )
            for x in all_instances(n):
                inner_bits = tuple(eval_formula(e, x) for e in inners)
                assert base.evaluate(composed, x) == eval_formula(outer, inner_bits)
            base.audit(composed)

    def test_truth_table_round_trip(self):
        rng = random.Random(1004)
        for _ in range(50):
            n = rng.randint(1, 6)
            m = Manager(n)
            table = [rng.randint(0, 1) for _ in range(1 << n)]
            f = bdd_from_table(m, table)
            assert table_of(f, n) == table
            m.audit(f)


class TestBudget:
    def test_budget_abort(self):
        m = Manager(16, node_budget=8)
        acc = m.false
        with pytest.raises(BudgetExceededError):
            for v in range(16):
                acc = acc | (m.literal(v) & ~m.literal((v + 1) % 16))
        check_unique_tables(m)  # the abort is inside apply's ite

    def test_literal_abort_makes_no_table(self):
        m = Manager(3, node_budget=3)
        m.literal(2)
        with pytest.raises(BudgetExceededError):
            m.literal(0)
        check_unique_tables(m)
        assert list(m._unique) == [2]

    def test_budget_must_fit_terminals(self):
        with pytest.raises(ValueError):
            Manager(4, node_budget=1)


class TestUniqueTables:
    def test_a_table_is_made_on_a_variables_first_node(self):
        tracemalloc.start()
        try:
            m = Manager(10**8)
            assert m._unique == {}
            f = read_obdd(io.StringIO("obdd n=100000000 root=2\n2 99999999 0 1\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # nothing allocated per variable
        assert list(f.manager._unique) == [99999999]
        check_unique_tables(f.manager)
        assert f == f.manager.literal(99999999)


class TestManagerLifetime:
    """A manager lives exactly as long as a handle or reference to it."""

    def test_no_attribute_of_a_manager_is_a_handle(self):
        assert not any(isinstance(v, NodeRef) for v in vars(Manager(3)).values())

    def test_terminals_are_equal_handles_made_on_each_access(self):
        m = Manager(2)
        assert m.true == NodeRef(m, 1) and hash(m.true) == hash(NodeRef(m, 1))
        assert m.false == NodeRef(m, 0) and hash(m.false) == hash(NodeRef(m, 0))
        assert m.false.is_false and m.true.is_true and m.true != m.false
        assert m.true != Manager(2).true
        assert compile_pseudo(IntThresholdUnit((1, 2), 0), m) == m.true
        assert compile_pseudo(IntThresholdUnit((1, 2), 4), m) == m.false

    def test_every_manager_is_freed_without_the_collector(self, monkeypatch, tmp_path, capsys):
        made = []
        init = Manager.__init__

        def recording_init(self, *args, **kwargs):
            made.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Manager, "__init__", recording_init)
        net = str(tmp_path / "net")
        runs = [
            _lifetime_algebra,
            lambda: compile_pseudo(IntThresholdUnit((3, -2, 2, 1), 2), Manager(4)),
            lambda: compile_network(read_spec("docs/net4x4.json"), 2),
            lambda: _lifetime_round_trip(tmp_path / "f.obdd"),
            _lifetime_queries,
            _lifetime_abort,
            _lifetime_sweep,
            lambda: _lifetime_cli("compile-net", "docs/net4x4.json", "--digits", "2", "-o", net),
            lambda: _lifetime_cli("stats", net + "-out0.obdd"),
            lambda: _lifetime_cli("explain", net + "-out0.obdd", "docs/image4x4.pbm"),
        ]
        gc.disable()
        try:
            for run in runs:
                count = len(made)
                run()
                assert len(made) > count
            alive = [r() for r in made if r() is not None]
        finally:
            gc.enable()
        assert alive == []
        assert "label" in capsys.readouterr().out


def _lifetime_cli(*argv):
    assert cli.main(list(argv)) == 0


def _lifetime_algebra():
    m = Manager(4)
    x = [m.literal(v) for v in range(4)]
    f = m.apply("or", x[0] & ~x[1], x[2] ^ x[3])
    base = Manager(3)
    g = base.compose(f, [base.literal(v) for v in (1, 0, 2, 1)])
    assert g.manager is base and g != base.false


def _lifetime_round_trip(path):
    m = Manager(3)
    f = m.literal(0) | (m.literal(1) & m.literal(2))
    write_obdd(f, str(path))
    assert read_obdd(str(path), m) == f
    assert read_obdd(str(path)).manager is not m


def _lifetime_queries():
    f = compile_network(read_spec("docs/net4x4.json"), 2).outputs[0]
    x = [1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1]
    assert instance_robustness(f, x) >= 1
    assert fooling_complete(f, pi_explanation(f, x), [0] * 16)
    assert model_robustness(f).maxr >= 0
    assert len(marginal_grid(f, 4, 4)) == len(unateness_grid(f, 4, 4)) == 16


def _lifetime_abort():
    try:
        compile_network(read_spec("docs/net4x4.json"), 2, node_budget=20)
    except BudgetExceededError:
        return
    raise AssertionError("the budget did not abort the compile")


def _lifetime_sweep():
    from nnobdd.trainer import LabeledDataset, precision_sweep

    unit = read_neuron("docs/neuron3.txt")
    data = LabeledDataset([[1, 0, 0], [0, 0, 1]], [1, 0])
    assert [row.status for row in precision_sweep(unit, data, range(3))] == ["ok"] * 3


def _compile_net4x4(budget):
    return budget, lambda: compile_network(read_spec("docs/net4x4.json"), 2, node_budget=budget)


def _full_budget(build, query):
    """``query`` on ``build(x0, x1, x2)`` in a manager whose budget is used up."""
    m = Manager(3)
    f = build(*(m.literal(v) for v in range(3)))
    m.node_budget = m.allocated
    return m.node_budget, lambda: query(f)


@pytest.mark.parametrize(
    "case, what",
    [
        (lambda: _compile_net4x4(4), "building the input wires"),
        (lambda: _compile_net4x4(20), "compiling layer 1 of 2 (ConvStep)"),
        (
            lambda: _full_budget(lambda a, b, c: a | b | c, robust_sets),
            "building robustness level 2 by erosion",
        ),
        (
            lambda: _full_budget(
                lambda a, b, c: a & b & c, lambda f: model_robustness(f, "negative")
            ),
            "building robustness level 2 by dilation",
        ),
        (
            # releasing x0 conjoins x1 and x2
            lambda: _full_budget(
                lambda a, b, c: a.manager.ite(a, b, c), lambda f: pi_explanation(f, (1, 1, 1))
            ),
            "building the releases of a PI explanation",
        ),
    ],
    ids=["input-wires", "layer", "erosion", "dilation", "pi-releases"],
)
def test_named_abort_text_and_cause(case, what):
    # every abort is raised once in obdd, then named once by what was building
    budget, run = case()
    with pytest.raises(BudgetExceededError) as exc:
        run()
    plain = "node budget of %d exhausted" % budget
    assert str(exc.value) == "%s while %s" % (plain, what)
    cause = exc.value.__cause__
    assert type(cause) is BudgetExceededError and str(cause) == plain
    assert cause.__cause__ is None


class TestSerialization:
    def test_round_trip_handle_equality(self, m3):
        f = (m3.literal(0) | m3.literal(1)) ^ m3.literal(2)
        buf = io.StringIO()
        write_obdd(f, buf)
        again = read_obdd(io.StringIO(buf.getvalue()), m3)
        assert again == f

    def test_semantic_round_trip_fresh_manager(self):
        rng = random.Random(1005)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = Manager(n)
            expr = random_formula(rng, n)
            f = build_formula(expr, m)
            buf = io.StringIO()
            write_obdd(f, buf)
            g = read_obdd(io.StringIO(buf.getvalue()))
            assert table_of(g, n) == formula_table(expr, n)

    def test_terminal_round_trip(self, m3):
        buf = io.StringIO()
        write_obdd(m3.true, buf)
        assert read_obdd(io.StringIO(buf.getvalue()), m3) == m3.true

    def test_files_are_deterministic_across_managers(self):
        def render():
            m = Manager(4)
            # build the same function through different intermediate junk
            junk = m.literal(3) & ~m.literal(3)
            f = (m.literal(0) | m.literal(2)) & m.literal(1)
            buf = io.StringIO()
            write_obdd(f | junk, buf)
            return buf.getvalue()

        def render_other_history():
            m = Manager(4)
            extra = m.literal(1) ^ m.literal(2)  # shifts node ids around
            f = (m.literal(2) | m.literal(0)) & m.literal(1)
            buf = io.StringIO()
            write_obdd(f, buf)
            return buf.getvalue()

        assert render() == render_other_history()

    def test_writer_text(self):
        m = Manager(3)
        buf = io.StringIO()
        write_obdd((m.literal(0) | m.literal(2)) & m.literal(1), buf)
        assert buf.getvalue() == "obdd n=3 root=5\n2 2 0 1\n3 1 0 2\n4 1 0 1\n5 0 3 4\n"

    def test_reader_rejects_bad_header(self):
        with pytest.raises(ValueError):
            read_obdd(io.StringIO("bogus\n"))

    def test_reader_rejects_undefined_children(self):
        with pytest.raises(ValueError):
            read_obdd(io.StringIO("obdd n=2 root=2\n2 0 5 1\n"))

    @pytest.mark.parametrize(
        "text",
        [
            "obdd n=2 root=3\n2 1 0 1\n3 1 0 2\n",  # a child at its parent's level
            "obdd n=2 root=3\n2 0 0 1\n3 1 2 1\n",  # a child above its parent
        ],
    )
    def test_reader_rejects_order_violations(self, text):
        with pytest.raises(OBDDError, match="ordering violation"):
            read_obdd(io.StringIO(text))

    def test_reader_rejects_wrong_manager_width(self, m3):
        with pytest.raises(ValueError):
            read_obdd(io.StringIO("obdd n=2 root=1\n"), m3)


def read_text(text, manager=None):
    return read_obdd(io.StringIO(text), manager)


class TestReaderContract:
    """What `read_obdd` accepts, and the error it gives for what it does not."""

    @pytest.mark.parametrize(
        "text, exc, message",
        [
            ("", ValueError, "empty diagram file"),
            ("# only a comment\n\n   \n", ValueError, "empty diagram file"),
            ("  bogus  \n", ValueError, "bad header: 'bogus'"),
            ("obdd n=2 root=2\n2 0 1\n", ValueError, "bad node line: '2 0 1'"),
            ("obdd n=2 root=2\n 2 0 0 1 7 \n", ValueError, "bad node line: '2 0 0 1 7'"),
            ("obdd n=2 root=2\n2 0 0 1 x\n", ValueError, "bad node line: '2 0 0 1 x'"),
            ("obdd n=2 root=2\n2 1 0 1\n2 0 0 1\n", ValueError, "duplicate node id 2"),
            ("obdd n=2 root=3\n3 0 0 2\n", ValueError, "node 3 references an undefined child"),
            ("obdd n=2 root=7\n2 0 0 1\n", ValueError, "root id 7 is not defined"),
            ("obdd n=2 root=2\n2 -1 0 1\n", ValueError, "node 2 labeled with bad variable -1"),
            ("obdd n=2 root=2\n2 2 0 1\n", ValueError, "node 2 labeled with bad variable 2"),
            ("obdd n=2 root=3\n2 0 0 1\n3 1 0 2\n", OBDDError, "ordering violation at variable 1"),
            # when a line breaks several rules, the first in this order is named
            ("obdd n=2 root=2\n2 0 0 1\n2 5 0 9\n", ValueError, "duplicate node id 2"),
            ("obdd n=2 root=2\n2 5 0 9\n", ValueError, "node 2 references an undefined child"),
            ("obdd n=2 root=3\n2 1 0 1\n3 7 2 2\n", ValueError, "node 3 labeled with bad variable 7"),
        ],
        ids=[
            "empty", "comments-only", "header", "three-tokens", "five-tokens",
            "five-tokens-not-int", "duplicate-id", "undefined-child",
            "missing-root", "negative-var", "var-too-large", "order",
            "duplicate-before-child", "child-before-var", "var-before-collapse",
        ],
    )
    def test_rejections(self, text, exc, message):
        with pytest.raises(exc) as info:
            read_text(text)
        assert str(info.value) == message

    def test_comments_and_blank_lines_anywhere(self):
        m = Manager(2)
        text = (
            "# written by hand\n\n  obdd n=2 root=3  \n"
            "# between nodes\n\n2 1 0 1\n   # indented\n\t\n  3 0 0 2\n\n"
        )
        assert read_text(text, m) == m.literal(0) & m.literal(1)

    def test_any_distinct_ids(self):
        m = Manager(2)
        f = read_text("obdd n=2 root=90\n-4 1 0 1\n90 0 -4 1\n", m)
        assert f == m.literal(0) | m.literal(1)

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "crlf.obdd"
        path.write_bytes(b"obdd n=2 root=3\r\n2 1 0 1\r\n3 0 0 2\r\n")
        m = Manager(2)
        assert read_obdd(str(path), m) == m.literal(0) & m.literal(1)
        assert read_text("obdd n=2 root=3\r\n2 1 0 1\r\n3 0 0 2\r\n", m) == m.literal(0) & m.literal(1)

    def test_equal_children_collapse(self):
        m = Manager(2)
        f = read_text("obdd n=2 root=3\n2 1 0 1\n3 0 2 2\n", m)
        assert f == m.literal(1)
        assert m.allocated == 3

    def test_equal_triples_merge(self):
        m = Manager(2)
        f = read_text("obdd n=2 root=4\n2 1 0 1\n3 1 0 1\n4 0 0 3\n", m)
        assert m.allocated == 4
        m.audit(f)
        assert f == m.literal(0) & m.literal(1)

    def test_manager_with_nodes_reuses_them(self):
        m = Manager(3)
        g = m.literal(1) ^ m.literal(2)
        before = m.allocated
        buf = io.StringIO()
        write_obdd(g, buf)
        assert read_text(buf.getvalue(), m) == g
        assert m.allocated == before
        f = read_text("obdd n=3 root=3\n2 2 0 1\n3 0 0 2\n", m)
        assert f == m.literal(0) & m.literal(2)
        m.audit(f)

    def test_budget_abort_leaves_manager_usable(self):
        m = Manager(3, node_budget=4)
        text = "obdd n=3 root=4\n2 2 0 1\n3 1 0 2\n4 0 0 3\n"
        with pytest.raises(BudgetExceededError, match="node budget of 4 exhausted"):
            read_text(text, m)
        assert m.allocated == 4
        check_unique_tables(m)
        f = read_text("obdd n=3 root=3\n2 2 0 1\n3 1 0 2\n", m)
        assert m.allocated == 4
        m.audit(f)
        assert table_of(f, 3) == [int(i in (6, 7)) for i in range(8)]
