"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every expected value below was computed by the oracles
in ``oracles.py`` (exhaustive enumeration, BFS over the hypercube, brute
force over subsets), never copied from the implementation under test.
"""

import math
import os
import random
import time
from fractions import Fraction

import numpy as np

from nnobdd import (
    IntThresholdUnit,
    LabeledDataset,
    LinearThresholdUnit,
    Manager,
    TrainConfig,
    accuracy,
    compile_network,
    compile_pseudo,
    forward_eval,
    instance_robustness,
    marginals,
    max_robustness,
    model_robustness,
    pi_explanation,
    fooling_complete,
    precision_sweep,
    quantize,
    read_spec,
    robust_sets,
    train_neuron,
    unateness,
)

from oracles import (
    all_instances,
    bdd_from_table,
    bits_of,
    compile_exact,
    forces_label,
    formula_table,
    hamming_robustness,
    max_positive_robustness,
    mean_robustness,
    min_sufficient_size,
    random_formula,
    robustness_counts,
    tt_marginal,
    tt_unateness,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def report(num, name, started, limit, failures):
    elapsed = time.perf_counter() - started
    ok = not failures and (limit is None or elapsed < limit)
    print("ACCEPTANCE %02d %s (%.2fs): %s" % (num, "PASS" if ok else "FAIL", elapsed, name))
    assert not failures, failures[:5]
    if limit is not None:
        assert elapsed < limit, "time limit of %ds exceeded" % limit


def random_nontrivial_table(rng, n):
    while True:
        if rng.random() < 0.5:
            table = formula_table(random_formula(rng, n, depth=rng.randint(2, 4)), n)
        else:
            table = [rng.randint(0, 1) for _ in range(1 << n)]
        if 0 < sum(table) < len(table):
            return table


def test_criterion_01_worked_neuron_example():
    """The 3-input neuron at 2-digit truncation equals its known formula."""
    started = time.perf_counter()
    failures = []
    unit = LinearThresholdUnit((1.15, 0.95, -1.05), -0.52)
    quantized = quantize(unit, 2, "truncate")
    if (quantized.weights, quantized.threshold) != ((115, 95, -105), 52):
        failures.append("quantization produced %r" % (quantized,))
    m = Manager(3)
    f = compile_pseudo(quantized, m)
    a, b, c = (m.literal(v) for v in range(3))
    formula = (~c & (a | b)) | (c & a & b)
    for x in all_instances(3):
        if m.evaluate(f, x) != m.evaluate(formula, x):
            failures.append("row %r differs" % (x,))
    if f != formula:
        failures.append("canonical handles differ")
    report(1, "worked 3-input neuron matches its formula on all 8 rows", started, 1.0, failures)


def test_criterion_02_pseudo_polynomial_size_and_time():
    """Node bound n*(2W+1)+2 on 500 units; compile time ~linear in nW."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(20260810)

    def random_unit():
        while True:
            n = rng.randint(8, 64)
            w_max = rng.choice([2, 5, 12, 30, 50])
            weights = tuple(rng.randint(-w_max, w_max) for _ in range(n))
            mass = sum(abs(w) for w in weights)
            if mass < 4:
                continue
            t = rng.randint(-(mass // 4), mass // 4)
            return IntThresholdUnit(weights, t)

    sizes, times = [], []
    for _ in range(500):
        unit = random_unit()
        n, w = unit.arity, unit.magnitude
        reps = 3 if n * w < 10000 else 1
        best = math.inf
        for _ in range(reps):
            manager = Manager(n)
            t0 = time.perf_counter()
            root = compile_pseudo(unit, manager)
            best = min(best, time.perf_counter() - t0)
        nodes = manager.node_count(root)
        if nodes > n * (2 * w + 1) + 2:
            failures.append("unit n=%d W=%d has %d nodes" % (n, w, nodes))
        sizes.append(n * w)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    if not 0.7 <= slope <= 1.3:
        failures.append("log-log slope %.3f outside 1.0 +/- 0.3" % slope)
    report(
        2,
        "pseudo-polynomial bound holds on 500 units; time/nW slope %.2f" % slope,
        started,
        60.0,
        failures,
    )


def test_criterion_03_pseudo_equals_exact_oracle():
    """Both compilers return the same canonical handle on 200 random units."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 12)
        weights = tuple(rng.randint(-20, 20) for _ in range(n))
        bound = sum(abs(w) for w in weights) + 1
        unit = IntThresholdUnit(weights, rng.randint(-bound, bound))
        m = Manager(n)
        if compile_pseudo(unit, m) != compile_exact(unit, m):
            failures.append("compilers disagree on %r" % (unit,))
    report(3, "compile_pseudo handle-equals compile_exact on 200 units", started, 60.0, failures)


def test_criterion_04_robustness_oracles():
    """Instance/model/max robustness and histogram against BFS enumeration."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(44)
    for trial in range(110):
        n = rng.randint(1, 10)
        table = random_nontrivial_table(rng, n)
        m = Manager(n)
        f = bdd_from_table(m, table)
        values = hamming_robustness(table, n)

        if n <= 6:
            probes = range(1 << n)
        else:
            probes = [rng.randrange(1 << n) for _ in range(64)]
        for i in probes:
            got = instance_robustness(f, bits_of(i, n))
            if got != values[i]:
                failures.append("trial %d: r(%d) = %r, oracle %r" % (trial, i, got, values[i]))
                break

        profile = model_robustness(f)
        if profile.mr != mean_robustness(table, n):
            failures.append("trial %d: mean robustness mismatch" % trial)
        if max_robustness(f) != max_positive_robustness(table, n):
            failures.append("trial %d: max robustness mismatch" % trial)

        counts = dict(profile.positive.counts)
        if counts != robustness_counts(table, n, True):
            failures.append("trial %d: per-level counts mismatch" % trial)
        if sum(counts.values()) != m.model_count(f):
            failures.append("trial %d: counts do not partition the models" % trial)
    report(4, "robustness queries match BFS oracles on 110 functions", started, 300.0, failures)


def test_criterion_05_level_chain_empties():
    """For every non-trivial function the (n+1)-th robustness level is FALSE."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(55)
    for trial in range(110):
        n = rng.randint(1, 10)
        table = random_nontrivial_table(rng, n)
        m = Manager(n)
        f = bdd_from_table(m, table)
        levels = robust_sets(f)
        if len(levels) > n:
            failures.append("trial %d: %d satisfiable levels over %d vars" % (trial, len(levels), n))
            continue
        nxt = m.true
        for v in range(n):
            nxt = nxt & m.condition(levels[-1], v, 1) & m.condition(levels[-1], v, 0)
        if nxt != m.false:
            failures.append("trial %d: level %d still satisfiable" % (trial, len(levels) + 1))
    report(5, "robustness level n+1 is always FALSE (110 functions)", started, None, failures)


def test_criterion_06_pi_explanations_and_fooling():
    """Minimum sufficient reasons against brute force; fooling fills exhaustive."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(66)
    for trial in range(100):
        n = rng.randint(1, 10)
        table = random_nontrivial_table(rng, n)
        m = Manager(n)
        f = bdd_from_table(m, table)
        x = bits_of(rng.randrange(1 << n), n)
        reason = pi_explanation(f, x)

        if reason.cardinality != min_sufficient_size(table, n, x):
            failures.append("trial %d: cardinality mismatch" % trial)
        if not forces_label(table, n, reason.literals, reason.label):
            failures.append("trial %d: witness is not sufficient" % trial)
        for k in range(reason.cardinality):
            subset = reason.literals[:k] + reason.literals[k + 1 :]
            if forces_label(table, n, subset, reason.label):
                failures.append("trial %d: witness is not minimal" % trial)
                break

        fixed = dict(reason.literals)
        free = [v for v in range(n) if v not in fixed]
        for combo in range(1 << len(free)):
            fill = [0] * n
            for pos, v in enumerate(free):
                fill[v] = (combo >> pos) & 1
            out = fooling_complete(f, reason, tuple(fill))
            if m.evaluate(f, out) != reason.label:
                failures.append("trial %d: a fill escaped the label" % trial)
                break
    report(6, "sufficient reasons minimal and fooling-proof (100 pairs)", started, 300.0, failures)


def test_criterion_07_marginals_and_unateness():
    """Marginal and unateness agree with truth-table definitions."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(77)
    for trial in range(100):
        n = rng.randint(1, 10)
        table = random_nontrivial_table(rng, n)
        m = Manager(n)
        f = bdd_from_table(m, table)
        marg, unate = marginals(f), unateness(f)
        for v in sorted(rng.sample(range(n), min(n, 3))):
            if marg[v] != tt_marginal(table, n, v):
                failures.append("trial %d: marginal of %d mismatch" % (trial, v))
            if unate[v].value != tt_unateness(table, n, v):
                failures.append("trial %d: unateness of %d mismatch" % (trial, v))
    # a function embedded among extra variables never mentions them
    m = Manager(6)
    f = (m.literal(0) | m.literal(1)) & ~m.literal(2)
    marg, unate = marginals(f), unateness(f)
    for v in (3, 4, 5):
        if marg[v] != Fraction(1, 2):
            failures.append("unused variable %d has marginal %s" % (v, marg[v]))
        if unate[v].value != "unused":
            failures.append("unused variable %d not reported unused" % v)
    report(7, "marginals and unateness match truth tables (100 functions)", started, None, failures)


def test_criterion_08_end_to_end_network():
    """The fixture 4x4 network agrees with the evaluator on all 65,536 images."""
    started = time.perf_counter()
    failures = []
    spec = read_spec(os.path.join(ROOT, "docs", "net4x4.json"))
    net = compile_network(spec, 2)
    evaluate = net.manager.evaluate
    out = net.outputs[0]
    order = net.input_order
    for i in range(1 << 16):
        x = bits_of(i, 16)
        got = evaluate(out, tuple(x[p] for p in order))
        if (got,) != forward_eval(spec, x):
            failures.append("image %d disagrees" % i)
            break
    report(8, "4x4 fixture network exact on all 65,536 images", started, 120.0, failures)


def test_criterion_09_precision_sweep():
    """Sweep on a fixed-seed separable dataset: accuracy, growth, budget rows."""
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260810)
    feats = rng.integers(0, 2, size=(400, 64))
    truth = IntThresholdUnit(tuple([1] * 8 + [-1] * 4 + [0] * 52), 2)
    labels = [truth.fires(tuple(int(b) for b in row)) for row in feats]
    data = LabeledDataset(feats, labels)
    unit = train_neuron(
        data, TrainConfig(learning_rate=0.5, epochs=150, batch_size=32, seed=11, l2=0.001)
    )
    base = accuracy(unit, data)
    rows = precision_sweep(unit, data, range(0, 5), node_budget=100_000)

    for row in rows:
        if row.digits >= 2 and abs(row.accuracy - base) > Fraction(1, 100):
            failures.append("digits %d accuracy %s vs %s" % (row.digits, row.accuracy, base))
    ok_rows = [row for row in rows if row.status == "ok"]
    if len(ok_rows) < 2:
        failures.append("too few completed compilations: %r" % rows)
    node_counts = [row.nodes for row in ok_rows]
    if node_counts != sorted(node_counts):
        failures.append("node counts not non-decreasing: %r" % node_counts)
    budget_rows = [row for row in rows if row.status == "budget"]
    if not budget_rows:
        failures.append("no budget failures at high precision")
    if ok_rows and budget_rows:
        if min(r.digits for r in budget_rows) < max(r.digits for r in ok_rows):
            failures.append("a budget failure precedes a success: %r" % rows)
    report(9, "precision sweep: accuracy stable, size grows, failures reported", started, 300.0, failures)


def test_criterion_10_non_reproduced_numbers_documented():
    """The externally-trained reference results are stated as not reproduced."""
    started = time.perf_counter()
    failures = []
    with open(os.path.join(ROOT, "README.md")) as fp:
        readme = fp.read()
    needed = [
        "98.74", "98.18", "96.93",
        "5,900", "28,735", "1,298", "3,653", "203", "440",
        "11.77", "3.62", "27", "13", "4.47", "2.61",
    ]
    for token in needed:
        if token not in readme:
            failures.append("README does not mention %s" % token)
    if "not reproduced" not in readme.lower():
        failures.append("README does not state the numbers are not reproduced")
    report(10, "non-reproduced reference results stated in the README", started, None, failures)
