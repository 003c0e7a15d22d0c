"""Engine tests: construction, Boolean algebra, counting, serialization."""

import io
import random

import pytest

from nnobdd import BudgetExceededError, Manager, read_obdd, write_obdd
from nnobdd.obdd import _reachable

from oracles import (
    all_instances,
    bdd_from_table,
    build_formula,
    eval_formula,
    formula_table,
    index_of,
    random_formula,
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


def ite_compose(base, f, subs):
    """Reference substitution: one `ite` per placeholder node, nothing else."""
    res = {0: 0, 1: 1}
    for u in _reachable(f):
        k, lo, hi = f.manager._nodes[u]
        res[u] = base._ite_id(subs[k].i, res[hi], res[lo])
    return res[f.i]


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

    def test_budget_must_fit_terminals(self):
        with pytest.raises(ValueError):
            Manager(4, node_budget=1)


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

    def test_reader_rejects_bad_header(self):
        with pytest.raises(ValueError):
            read_obdd(io.StringIO("bogus\n"))

    def test_reader_rejects_undefined_children(self):
        with pytest.raises(ValueError):
            read_obdd(io.StringIO("obdd n=2 root=2\n2 0 5 1\n"))

    def test_reader_rejects_wrong_manager_width(self, m3):
        with pytest.raises(ValueError):
            read_obdd(io.StringIO("obdd n=2 root=1\n"), m3)
