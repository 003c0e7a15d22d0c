#!/usr/bin/env python3
"""nnobdd benchmark: seeded, closed-loop, single-process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --check-determinism [--seed N]

A run generates its inputs from the seed (several times; set-up time is the
median), then repeats rounds of the workload until ``--seconds`` have passed
and reports per-round medians.  With ``--trace 0`` it prints the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` it alternates untraced
and traced rounds, prints the per-layer metrics, reports the tracing
overhead (traced minus untraced round time) and writes every span to
``perfbench/out/spans-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Failed operations (exceptions, wrong answers, nonzero CLI exit codes) are
counted, never fatal; ``failed / attempted`` is the failure ratio.

``--report`` runs every workload in both modes, in child processes, prints
every metric with its unit and writes ``perfbench/out/report.json``.
``--check-determinism`` checks that a seed always gives the same inputs,
node counts and answers, and that another seed gives other inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _typical(rounds):
    """Per operation, its median time over the rounds, for each kind of work.

    Every round does the same work on fresh managers, so an operation's
    spread over the rounds is machine noise; the median of each operation
    is steadier than any single round.  Times are scaled to the reference
    machine speed (see `speed`).
    """
    per_op = list(zip(*([(op, r.scale) for op in r.ops] for r in rounds)))
    return {
        kind: [_median([op.time[kind] * scale for op, scale in ops]) for ops in per_op]
        for kind in ("compile", "query", "other")
    }, [_median([op.elapsed * scale for op, scale in ops]) for ops in per_op if ops[0][0].latency]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up, timed rounds, checks; returns the result."""
    from tracing import NodeLedger, Tracer

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (workload.name, seed), dir=OUT)
    setup_times, digests = [], []

    def setup(scale):
        # repeated between rounds too, so set-up is sampled over the whole run
        start = time.perf_counter()
        data, digest = workload.setup(seed, os.path.join(workdir, "setup%d" % len(digests)))
        setup_times.append((time.perf_counter() - start) * scale)
        digests.append(digest)
        return data

    try:
        scale = speed.REFERENCE_S / speed.reference_time()
        data = setup(scale)
        for _ in range(SETUP_REPEATS - 1):
            setup(scale)
        tracer = Tracer() if trace else None
        rounds, traced = [], []
        start = time.perf_counter()
        with NodeLedger() as ledger:
            while True:
                is_traced = trace and (len(rounds) + len(traced)) % 2 == 1
                began = time.perf_counter()
                rnd = _round(workload, data, ledger, tracer if is_traced else None, full_check=not rounds)
                (traced if is_traced else rounds).append(rnd)
                checked = time.perf_counter()
                rnd.finish(rounds[0] if rnd is not rounds[0] else None)
                if rnd.full_check:  # the answer checks do not count against the run time
                    start += time.perf_counter() - checked
                setup(rnd.scale)
                # no round that would end after the deadline, but one traced round at least
                now = time.perf_counter()
                if now + (checked - began) - start > seconds and (traced or not trace):
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_failed = len(set(digests)) != 1
    all_rounds = rounds + traced
    attempted = sum(r.attempted for r in all_rounds) + 1
    failed = sum(r.failed for r in all_rounds) + int(setup_failed)
    errors = [e for r in all_rounds for e in r.errors]
    if setup_failed:
        errors.insert(0, "the same seed produced different inputs across set-ups")
    kinds, latencies = _typical(rounds)
    summary = {
        "speed": _median([r.scale for r in all_rounds]),
        "raw_wall_s": _median([r.wall for r in rounds]),
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "latency_samples": len(latencies),
        "latency_op": workload.latency,
        "input_digest": digests[0],
        "errors": errors[:20],
    }
    if not trace:
        metrics = {
            "setup_s": _median(setup_times),
            "wall_s": sum(sum(kinds[kind]) for kind in kinds),
            "compile_s": sum(kinds["compile"]),
            "query_s": sum(kinds["query"]),
            "op_p50_ms": _median(latencies) * 1e3,
            "op_p90_ms": _p90(latencies) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "nodes_allocated": _median([r.nodes_allocated for r in rounds]),
            "output_nodes": _median([r.output_nodes for r in rounds]),
        }
    else:
        metrics = _layer_metrics(tracer, rounds, traced)
        path = os.path.join(OUT, "spans-%s-%d.json" % (workload.name, seed))
        with open(path, "w") as fp:
            json.dump({"workload": workload.name, "seed": seed, "spans": tracer.dump()}, fp)
        summary["spans_file"] = os.path.relpath(path, ROOT)
    return {
        "summary": summary,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def _round(workload, data, ledger, tracer, full_check):
    from workloads import Round

    gc.collect()
    ledger.reset()
    rnd = Round(full_check=full_check, tracer=tracer)
    rnd.scale = speed.REFERENCE_S / speed.reference_time()
    if tracer is None:
        workload.run(data, rnd)
    else:
        rnd.first_span = len(tracer.spans)
        with tracer:
            workload.run(data, rnd)
        rnd.end_span = len(tracer.spans)
    rnd.nodes_allocated = ledger.total()
    return rnd


def _layer_metrics(tracer, rounds, traced) -> dict:
    per_round = []
    for rnd in traced:
        spans = (rnd.first_span, rnd.end_span)
        agg = tracer.aggregate(*spans)
        for name in agg:
            if name.endswith(".self_s"):
                agg[name] *= rnd.scale
        agg["trace.spans"] = rnd.end_span - rnd.first_span
        agg["network.useful_node_ratio"] = rnd.output_nodes / rnd.nodes_allocated if rnd.nodes_allocated else 0.0
        compile_s = rnd.kind_s("compile")
        agg["obdd.compose.share_of_compile"] = (
            tracer.inclusive_s("obdd.compose", *spans) / compile_s if compile_s else 0.0
        )
        agg["analysis.share_of_wall"] = tracer.inclusive_s("analysis.", *spans) / rnd.wall
        per_round.append(agg)
    overhead = _median([r.wall * r.scale for r in traced]) - _median([r.wall * r.scale for r in rounds])
    names = _spec()["per_layer"]
    metrics = {}
    for entry in names:
        name = entry["name"]
        metrics[name] = overhead if name == "trace.overhead_s" else _median([agg.get(name, 0) for agg in per_round])
    return metrics


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def _emit(name: str, seed: int, trace: bool, run: dict) -> None:
    entries = _spec()["per_layer" if trace else "end_to_end"]
    units = {e["name"]: e["unit"] for e in entries}
    summary, result = run["summary"], run["result"]
    if set(result["metrics"]) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s" % sorted(set(result["metrics"]) ^ set(units)))
    machine = _machine()
    print("# machine: nproc=%s python=%s %s" % (machine["nproc"], machine["python"], machine["platform"]))
    print("# workload=%s seed=%d rounds=%d traced_rounds=%d inputs=%s" % (
        name, seed, summary["rounds"], summary["traced_rounds"], summary["input_digest"][:16]))
    print("# latency op: %s; samples=%d" % (summary["latency_op"], summary["latency_samples"]))
    print("# times are scaled to the reference machine: speed factor %.3f, unscaled wall_s %.4f" % (
        summary["speed"], summary["raw_wall_s"]))
    print("# fail_ratio=%d/%d" % (result["failed"], result["attempted"]))
    for error in summary["errors"]:
        print("# FAILED: %s" % error)
    if "spans_file" in summary:
        print("# spans written to %s" % summary["spans_file"])
    metrics = {}
    for key, value in result["metrics"].items():
        print("%-40s %16.6f %s" % (key, value, units[key]))
        metrics[key] = {"value": value, "unit": units[key]}
    print(json.dumps(dict(result, metrics=metrics)))


def _check_determinism(seed: int) -> int:
    from tracing import NodeLedger
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    ok = True
    for name, workload in WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix="determinism-", dir=OUT)
        try:
            counts, answers, digests = [], [], []
            for k, s in enumerate((seed, seed, seed + 1)):
                data, digest = workload.setup(s, os.path.join(workdir, str(k)))
                digests.append(digest)
                if k < 2:
                    with NodeLedger() as ledger:
                        rnd = _round(workload, data, ledger, None, full_check=True)
                    rnd.finish(None)
                    counts.append((rnd.nodes_allocated, rnd.output_nodes, rnd.failed))
                    answers.append([op.answer for op in rnd.ops])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        same = digests[0] == digests[1] and counts[0] == counts[1] and answers[0] == answers[1]
        differs = digests[0] != digests[2]
        print("%-16s same seed: inputs %s, nodes_allocated %d/%d, output_nodes %d/%d, answers %s; "
              "seed %d: inputs %s" % (
                  name, "equal" if digests[0] == digests[1] else "DIFFER",
                  counts[0][0], counts[1][0], counts[0][1], counts[1][1],
                  "equal" if answers[0] == answers[1] else "DIFFER",
                  seed + 1, "differ" if differs else "EQUAL"))
        ok = ok and same and differs and counts[0][2] == 0
    print("determinism: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def _report(seed: int, seconds: int) -> int:
    spec = _spec()
    report = {"machine": _machine(), "seed": seed, "seconds": seconds, "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        rows = {}
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows["trace%d" % trace] = result
            print("== %s (trace %d): correct=%s fail_ratio=%d/%d" % (
                name, trace, result["correct"], result["failed"], result["attempted"]))
            for line in proc.stdout.splitlines()[:-1]:
                print("   " + line)
        report["workloads"][name] = rows
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "report.json")
    with open(path, "w") as fp:
        json.dump(report, fp, indent=1)
    print("report written to %s" % os.path.relpath(path, ROOT))
    return 0


def _pin_to_one_cpu() -> None:
    """Keep this process and the reference task's child on one CPU.

    The two vCPUs of the build machine ran at different speeds, so the
    speed scaling only tracks when the reference task and the workload run
    on the same one.  Unpinned, scaled times spread 10-17% between windows;
    pinned, 4-7%.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not supported here: run unpinned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)

    # the package is used from the checkout's source tree, never an installed copy
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        if not os.path.isdir(os.path.join(src, "nnobdd")):
            raise ImportError("no nnobdd package under %s" % src)
        import nnobdd  # noqa: F401
        spec = _spec()
    except (ImportError, OSError, ValueError) as e:
        print("perfbench: cannot start: %s" % e, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.check_determinism:
        return _check_determinism(args.seed)
    if args.report:
        return _report(args.seed, int(seconds))
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of: %s" % ", ".join(WORKLOADS))
    _pin_to_one_cpu()
    run = measure(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))
    _emit(args.workload, args.seed, bool(args.trace), run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
