"""The four benchmark workloads: seeded inputs, one timed pass, answer checks.

Each workload is a closed loop with one caller: every call into nnobdd is
issued only after the previous one returned.  A pass ("round") runs the
workload's whole seeded batch on fresh managers, so every round does the
same work; run.py repeats rounds until its time is up.  Only the
library calls themselves are timed.  Answers are checked against
independent references (``forward_eval``, brute-force truth tables, exact
re-evaluation) after the round, outside the timed calls, on the first
round; later rounds must reproduce the first round's answers exactly.

Batches hold several networks, not one, because diagram sizes and query
costs differ between networks by up to a factor of two even with the fixed
weight multiset; averaging over the batch keeps the seed-to-seed spread of
each metric inside its bound.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

from nnobdd import analysis, cli, network, trainer
from nnobdd.neuron import compile_pseudo, quantize
from nnobdd.obdd import Manager, read_obdd

import inputs
import oracles


class Op:
    """One operation of a round: a few timed library calls and their checks."""

    def __init__(self, rnd: "Round", latency: bool):
        self.round = rnd
        self.latency = latency
        self.time = {"compile": 0.0, "query": 0.0, "other": 0.0}
        self.failed = False
        self.answer = None

    def call(self, kind: str, fn, *args, **kwargs):
        """Time one library call and book it as compile, query or other work."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.time[kind] += time.perf_counter() - start

    @property
    def elapsed(self) -> float:
        return sum(self.time.values())

    def fail(self, message: str) -> None:
        if not self.failed:
            self.failed = True
            self.round.failed += 1
        if len(self.round.errors) < 20:
            self.round.errors.append(message)

    def check(self, condition) -> None:
        """Defer ``condition() -> error message or None`` until after the round."""
        self.round.checks.append((self, condition))


@dataclass
class Round:
    full_check: bool
    tracer: object = None
    scale: float = 1.0  # machine-speed factor of this round, see `speed`
    first_span: int = 0  # the round's spans, when traced: spans[first_span:end_span]
    end_span: int = 0
    ops: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    output_nodes: int = 0
    nodes_allocated: int = 0

    @contextlib.contextmanager
    def op(self, latency: bool = False, collect: bool = False):
        """Run one operation; an exception fails it and the round goes on.

        ``collect`` first frees the managers of earlier operations (they are
        reference cycles), so memory and collector work do not depend on when
        the cyclic collector last ran.
        """
        if collect:
            gc.collect()
        op = Op(self, latency)
        self.attempted += 1
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.run = len(self.ops)
        try:
            yield op
        except Exception as e:  # counted as a failed operation, never fatal
            op.fail("%s: %s" % (type(e).__name__, e))

    def skip(self, why: str) -> None:
        """Book an operation that could not run because its input failed."""
        with self.op() as op:
            op.fail("skipped: " + why)

    @property
    def wall(self) -> float:
        return sum(op.elapsed for op in self.ops)

    def kind_s(self, kind: str) -> float:
        return sum(op.time[kind] for op in self.ops)

    def finish(self, reference: "Round | None") -> None:
        """Run the deferred checks, or compare answers with the first round."""
        if self.full_check:
            gc.collect()  # free the round's managers before the checks build their own
            for op, condition in self.checks:
                if op.failed:
                    continue
                try:
                    message = condition()
                except Exception as e:
                    message = "check raised %s: %s" % (type(e).__name__, e)
                if message:
                    op.fail(message)
        elif reference is not None:
            if len(self.ops) != len(reference.ops):
                self.ops[-1].fail("round ran %d ops, first round %d" % (len(self.ops), len(reference.ops)))
            for op, ref in zip(self.ops, reference.ops):
                if not op.failed and op.answer != ref.answer:
                    op.fail("answer differs from the first round")
        self.checks = []


def _to_pixels(order, xv) -> tuple[int, ...]:
    """Map an instance in diagram-variable order back to raster pixel order."""
    x = [0] * len(order)
    for var, pixel in enumerate(order):
        x[pixel] = xv[var]
    return tuple(x)


def _forces(f, literals, label) -> bool:
    g = f
    for var, bit in literals:
        g = f.manager.condition(g, var, bit)
    return g.is_terminal and int(g.is_true) == label


# ---------------------------------------------------------- compile-usps16


class CompileUsps16:
    """USPS-scale compiles: 16x16 nets, conv 4x4 stride 4 -> dense(2)."""

    name = "compile-usps16"
    latency = "one compile_network call"
    DIGITS = 1
    CONV_NETS = 8  # conv 4x4 stride 4 -> dense(2), the ROADMAP shape
    POOL_NETS = 2  # conv 2x2 stride 2 -> maxpool_or 2x2 -> dense(2)
    IMAGES = 32

    def setup(self, seed: int, workdir: str):
        rng = random.Random("%s:%d" % (self.name, seed))
        nets = [inputs.conv_net(rng, 16, 4, 1, 2) for _ in range(self.CONV_NETS)]
        nets += [inputs.conv_net(rng, 16, 2, 1, 2, pool=2) for _ in range(self.POOL_NETS)]
        order = inputs.block_order(16, 4)
        images = inputs.images(rng, self.IMAGES, 256)
        return {"nets": nets, "order": order, "images": images}, inputs.digest(nets, order, images)

    def run(self, data, rnd: Round) -> None:
        images = data["images"]
        for spec in data["nets"]:
            net = None
            with rnd.op(latency=True, collect=True) as op:
                net = op.call("compile", network.compile_network, spec, self.DIGITS, order_policy=data["order"])
                sizes = [net.manager.node_count(out) for out in net.outputs]
                op.answer = sizes
                rnd.output_nodes += sum(sizes)
            if net is None:
                rnd.skip("compile failed")
                continue
            with rnd.op() as op:
                got = op.call("query", lambda: [net.evaluate(x) for x in images])
                op.answer = got
                op.check(lambda spec=spec, got=got: _check_labels(spec, images, got))


def _check_labels(spec, images, got):
    for x, labels in zip(images, got):
        if labels != network.forward_eval(spec, x):
            return "compiled outputs disagree with forward_eval"
    return None


# ----------------------------------------------------------- query-explain


class QueryExplain:
    """Per-image explain loop, then grid and robustness queries on small nets.

    The networks are a fixed set; the seed draws the images.  With seeded
    networks too, this workload's times spread by 12-19% between seeds,
    because query cost depends on the network far more than on the image.
    """

    name = "query-explain"
    latency = "one image: evaluate, instance_robustness, pi_explanation, fooling_complete"
    DIGITS = 1
    EXPLAIN_NETS = 20  # 10x10, conv 2x2 stride 2 -> dense(1), block-major order
    IMAGES_PER_NET = 5
    GRID_NETS = 12  # 4x4, two conv 2x2 stride 2 filters -> dense(1), raster order
    ORACLE_IMAGES = 4

    def setup(self, seed: int, workdir: str):
        rng = random.Random("%s:%d" % (self.name, seed))
        zoo = random.Random(self.name)  # the same networks for every seed (see the class docstring)
        order = inputs.block_order(10, 2)
        explain = []
        for _ in range(self.EXPLAIN_NETS):
            spec = inputs.conv_net(zoo, 10, 2, 1, 1)
            # instances in diagram-variable order, with the flipped fill of each
            xs = [tuple(x[p] for p in order) for x in inputs.images(rng, self.IMAGES_PER_NET, 100)]
            explain.append((spec, [(x, tuple(1 - b for b in x)) for x in xs]))
        grids = [inputs.conv_net(zoo, 4, 2, 2, 1) for _ in range(self.GRID_NETS)]
        oracle_images = inputs.images(rng, self.ORACLE_IMAGES, 16)
        data = {"order": order, "explain": explain, "grids": grids, "oracle_images": oracle_images}
        return data, inputs.digest(order, explain, grids, oracle_images)

    def run(self, data, rnd: Round) -> None:
        order = data["order"]
        for spec, cases in data["explain"]:
            net = None
            with rnd.op(collect=True) as op:
                net = op.call("compile", network.compile_network, spec, self.DIGITS, order_policy=order)
                f = net.outputs[0]
                op.answer = net.manager.node_count(f)
                rnd.output_nodes += op.answer
            if net is None:
                for _ in cases:
                    rnd.skip("compile failed")
                continue
            mgr = net.manager
            for x, fill in cases:
                with rnd.op(latency=True) as op:
                    label = op.call("query", mgr.evaluate, f, x)
                    r = op.call("query", analysis.instance_robustness, f, x)
                    reason = op.call("query", analysis.pi_explanation, f, x)
                    fooled = op.call("query", analysis.fooling_complete, f, reason, fill)
                    op.answer = (label, r, reason.literals, fooled)
                    op.check(
                        lambda spec=spec, f=f, x=x, label=label, reason=reason, fooled=fooled: _check_explain(
                            spec, order, f, x, label, reason, fooled
                        )
                    )
        for k, spec in enumerate(data["grids"]):
            net = None
            with rnd.op() as op:
                net = op.call("compile", network.compile_network, spec, self.DIGITS)
                f = net.outputs[0]
                op.answer = net.manager.node_count(f)
                rnd.output_nodes += op.answer
            if net is None:
                rnd.skip("compile failed")
                continue
            with rnd.op() as op:
                h, w = spec.input_shape
                marg = op.call("query", analysis.marginal_grid, f, h, w)
                unate = op.call("query", analysis.unateness_grid, f, h, w)
                profile = op.call("query", analysis.model_robustness, f)
                op.answer = (marg, unate, profile)
                if k == 0:  # one function per round against the truth-table oracles
                    op.check(lambda f=f, m=marg, u=unate, p=profile: _check_oracle(f, m, u, p, data["oracle_images"]))


def _check_explain(spec, order, f, x, label, reason, fooled):
    expected = network.forward_eval(spec, _to_pixels(order, x))[0]
    if label != expected:
        return "label %d, forward_eval says %d" % (label, expected)
    if reason.label != label:
        return "explanation is for label %d, not %d" % (reason.label, label)
    if not _forces(f, reason.literals, label):
        return "PI explanation does not force the label"
    if network.forward_eval(spec, _to_pixels(order, fooled))[0] != label:
        return "fooling image changed the label under forward_eval"
    return None


def _check_oracle(f, marg, unate, profile, images):
    n = f.manager.num_vars
    table = oracles.truth_table(f)
    for var, _, _, value in marg:
        if value != oracles.marginal(table, n, var):
            return "marginal of variable %d disagrees with the truth table" % var
    for var, _, _, value in unate:
        if value.value != oracles.unateness(table, n, var):
            return "unateness of variable %d disagrees with the truth table" % var
    for side, positive in ((profile.positive, True), (profile.negative, False)):
        if side.counts != oracles.robustness_counts(table, n, positive):
            return "model robustness counts disagree with the truth table"
    radius = oracles.robustness(table, n)
    for x in images:
        if analysis.instance_robustness(f, x) != radius[sum(b << k for k, b in enumerate(x))]:
            return "instance robustness disagrees with the truth table"
        reason = analysis.pi_explanation(f, x)
        if not oracles.forces(table, n, reason.literals, reason.label):
            return "PI explanation does not force the label"
        if oracles.smallest_reason_size(table, n, x, reason.cardinality) is not None:
            return "a smaller sufficient reason exists"
    return None


# ------------------------------------------------------------- neuron-sweep


class NeuronSweep:
    """Train 256-input neurons, then quantize and compile them at 0..2 digits."""

    name = "neuron-sweep"
    latency = "one neuron: train_neuron, accuracy, precision_sweep"
    NEURONS = 2
    ROWS = 256
    WIDTH = 256
    DIGITS = range(0, 3)
    CHECK_INSTANCES = 64

    def setup(self, seed: int, workdir: str):
        rng = random.Random("%s:%d" % (self.name, seed))
        datasets = [inputs.linear_dataset(rng.getrandbits(32), self.ROWS, self.WIDTH) for _ in range(self.NEURONS)]
        configs = [trainer.TrainConfig(seed=rng.getrandbits(16)) for _ in range(self.NEURONS)]
        probes = inputs.images(rng, self.CHECK_INSTANCES, self.WIDTH)
        data = {"datasets": datasets, "configs": configs, "probes": probes}
        return data, inputs.digest(*datasets, configs, probes)

    def run(self, data, rnd: Round) -> None:
        for dataset, config in zip(data["datasets"], data["configs"]):
            with rnd.op(latency=True, collect=True) as op:
                unit = op.call("other", trainer.train_neuron, dataset, config)
                acc = op.call("query", trainer.accuracy, unit, dataset)
                rows = op.call("compile", trainer.precision_sweep, unit, dataset, self.DIGITS)
                op.answer = (unit, acc, rows)
                rnd.output_nodes += sum(row.nodes or 0 for row in rows)
                op.check(lambda unit=unit, rows=rows, dataset=dataset: _check_sweep(unit, rows, dataset, data["probes"]))


def _check_sweep(unit, rows, dataset, probes):
    for row in rows:
        if row.status != "ok":
            return "precision %d ended with status %s" % (row.digits, row.status)
        quantized = quantize(unit, row.digits)
        mgr = Manager(quantized.arity)
        root = compile_pseudo(quantized, mgr)
        if mgr.node_count(root) != row.nodes:
            return "precision %d: sweep reports %d nodes, a fresh compile has %d" % (
                row.digits, row.nodes, mgr.node_count(root))
        if trainer.accuracy(root, dataset) != row.accuracy:
            return "precision %d: diagram accuracy differs from the quantized unit" % row.digits
        for x in probes:
            if mgr.evaluate(root, x) != quantized.fires(x):
                return "precision %d: diagram disagrees with the quantized unit" % row.digits
    return None


# ---------------------------------------------------------------- cli-files


_OUTPUT_LINE = re.compile(r"^output (\d+): (\d+) nodes -> (.*)$")


class CliFiles:
    """``nnobdd`` subcommands, in process, on seeded model, image and data files."""

    name = "cli-files"
    latency = "one cli.main invocation"
    MODELS = 8  # 6x6, conv 2x2 stride 2 -> dense(2); the CLI compiles in raster order
    SIZE = 6
    DIGITS = 1
    DATASET_ROWS = 16

    def setup(self, seed: int, workdir: str):
        """Generate the file contents; `run` writes them once, untimed.

        File creation on the build machine's disk slowed from 4 to 11 ms
        over ten consecutive runs, so it is kept out of ``setup_s``.
        """
        rng = random.Random("%s:%d" % (self.name, seed))
        zoo = random.Random(self.name)  # the same models for every seed, as in QueryExplain
        pixels = self.SIZE * self.SIZE
        models = []
        files = {}
        for m in range(self.MODELS):
            spec = inputs.conv_net(zoo, self.SIZE, 2, 1, 2)
            image, fill = inputs.images(rng, 2, pixels)
            rows = inputs.images(rng, self.DATASET_ROWS, pixels)
            paths = {
                kind: os.path.join(workdir, "m%d-%s" % (m, kind))
                for kind in ("model.json", "image.pbm", "fill.pbm", "data.csv")
            }
            files[paths["model.json"]] = inputs.spec_json(spec)
            files[paths["image.pbm"]] = inputs.pbm_text(image, self.SIZE, self.SIZE)
            files[paths["fill.pbm"]] = inputs.pbm_text(fill, self.SIZE, self.SIZE)
            files[paths["data.csv"]] = inputs.csv_text(rows, [0] * len(rows))
            paths["prefix"] = os.path.join(workdir, "m%d" % m)
            models.append({"spec": spec, "image": image, "fill": fill, "paths": paths})
        data = {"models": models, "workdir": workdir, "files": files}
        return data, inputs.digest(sorted(files.values()))

    @staticmethod
    def _write_files(data) -> None:
        if os.path.isdir(data["workdir"]):
            return
        os.makedirs(data["workdir"])
        for path, text in data["files"].items():
            with open(path, "w") as fp:
                fp.write(text)

    def _main(self, rnd: Round, argv, workdir):
        """One timed ``cli.main`` call; returns the op and (exit code, stdout) or None."""
        out = io.StringIO()
        err = io.StringIO()
        result = None
        compiling = argv[0] == "compile-net"
        with rnd.op(latency=True, collect=compiling) as op:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = op.call("compile" if compiling else "query", cli.main, argv)
            result = (code, out.getvalue())
            op.answer = (code, result[1].replace(workdir, "<dir>"))  # printed paths vary
            if code != 0:
                op.fail("nnobdd %s exited %d: %s" % (argv[0], code, err.getvalue().strip()))
        return op, result

    def run(self, data, rnd: Round) -> None:
        self._write_files(data)
        workdir = data["workdir"]
        side = str(self.SIZE)
        for model in data["models"]:
            paths = model["paths"]
            spec = model["spec"]
            op, result = self._main(rnd, ["compile-net", paths["model.json"], "-o", paths["prefix"], "--digits", str(self.DIGITS)], workdir)
            outputs = []
            if result is not None and result[0] == 0:
                for line in result[1].splitlines():
                    m = _OUTPUT_LINE.match(line)
                    if m:
                        outputs.append((int(m.group(1)), int(m.group(2)), m.group(3)))
                        rnd.output_nodes += int(m.group(2))
            if len(outputs) != spec.output_count:
                op.fail("compile-net wrote %d of %d outputs" % (len(outputs), spec.output_count))
                for _ in range(6 * spec.output_count):
                    rnd.skip("compile-net failed")
                continue
            op.check(lambda spec=spec, outputs=outputs, model=model: _check_compiled(spec, outputs, model["image"]))
            for i, nodes, obdd_path in outputs:
                stem = "%s-%d" % (paths["prefix"], i)
                fooled_path = stem + "-fooled.pbm"
                op, res = self._main(rnd, ["stats", obdd_path], workdir)
                op.check(lambda res=res, nodes=nodes: None if res and "nodes %d" % nodes in res[1] else "stats node count differs from compile-net")
                op, res = self._main(rnd, ["eval", obdd_path, paths["image.pbm"]], workdir)
                expected = network.forward_eval(spec, model["image"])[i]
                op.check(lambda res=res, expected=expected: None if res and res[1].strip() == str(expected) else "eval label differs from forward_eval")
                op, res = self._main(rnd, ["robustness", "instance", obdd_path, "--dataset", paths["data.csv"]], workdir)
                op.check(lambda res=res: None if res and Fraction(res[1].strip()) >= 1 else "dataset robustness below one flip")
                op, res = self._main(rnd, ["explain", obdd_path, paths["image.pbm"], "--fool-fill", paths["fill.pbm"], "--fool-out", fooled_path], workdir)
                if res is not None:
                    with open(fooled_path) as fp:
                        op.answer = (op.answer, fp.read())
                op.check(lambda spec=spec, res=res, i=i, obdd_path=obdd_path, fooled=fooled_path, expected=expected: (
                    _check_cli_explain(spec, i, obdd_path, res, fooled, expected)))
                marg_path = stem + "-marginals.csv"
                op, res = self._main(rnd, ["marginals", obdd_path, "--height", side, "--width", side, "-o", marg_path, "--pgm", stem + ".pgm"], workdir)
                op.check(lambda path=marg_path: _check_grid_csv(path, self.SIZE, lambda v: 0 <= Fraction(v) <= 1))
                unate_path = stem + "-unate.csv"
                op, res = self._main(rnd, ["unate", obdd_path, "--height", side, "--width", side, "-o", unate_path], workdir)
                op.check(lambda path=unate_path: _check_grid_csv(path, self.SIZE, lambda v: v in ("pos", "neg", "unused", "none")))


def _check_compiled(spec, outputs, image):
    expected = network.forward_eval(spec, image)
    for i, nodes, path in outputs:
        f = read_obdd(path)
        if f.manager.node_count(f) != nodes:
            return "output %d: file holds %d nodes, compile-net said %d" % (i, f.manager.node_count(f), nodes)
        if f.manager.evaluate(f, image) != expected[i]:
            return "output %d disagrees with forward_eval" % i
    return None


def _check_cli_explain(spec, i, obdd_path, res, fooled_path, expected):
    if res is None:
        return "explain did not run"
    lines = res[1].splitlines()
    if lines[0] != "label %d" % expected:
        return "explain label differs from forward_eval"
    literals = [tuple(int(t) for t in ln.split()) for ln in lines[2:] if ln[0].isdigit()]
    if len(literals) != int(lines[1].split()[1]):
        return "explain printed a wrong number of literals"
    f = read_obdd(obdd_path)
    if not _forces(f, [(var, bit) for var, _, _, bit in literals], expected):
        return "PI explanation does not force the label"
    with open(fooled_path) as fp:
        bits = tuple(int(t) for t in fp.read().split()[3:])
    if network.forward_eval(spec, bits)[i] != expected:
        return "fooling image changed the label under forward_eval"
    return None


def _check_grid_csv(path, size, valid):
    with open(path) as fp:
        rows = [ln.strip().split(",") for ln in fp if ln.strip()]
    if len(rows) != size * size + 1 or not all(valid(row[3]) for row in rows[1:]):
        return "%s is not a full grid of valid values" % os.path.basename(path)
    return None


WORKLOADS = {w.name: w for w in (CompileUsps16(), QueryExplain(), NeuronSweep(), CliFiles())}
