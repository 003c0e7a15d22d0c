"""Command-line surface for the compile / query / explain / train pipeline.

Exit codes: 0 success, 1 usage error, 2 input error, 3 node-budget abort.
All diagnostics go to stderr; results go to stdout or to the named files.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import analysis, formats
from .neuron import (
    LinearThresholdUnit,
    compile_pseudo,
    quantize,
    read_neuron,
    write_neuron,
)
from .network import compile_network, read_spec
from .obdd import BudgetExceededError, Manager, OBDDError, read_obdd, write_obdd
from .trainer import (
    TrainConfig,
    accuracy,
    precision_sweep,
    read_dataset_csv,
    train_neuron,
)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; input problems are reported by handlers as 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _load_image_for(f, path):
    height, width, bits = formats.read_pbm(path)
    if height * width != f.manager.num_vars:
        raise ValueError(
            "image is %dx%d but the diagram has %d variables"
            % (height, width, f.manager.num_vars)
        )
    return height, width, bits


def _cmd_compile_neuron(args):
    unit = read_neuron(args.neuron)
    if isinstance(unit, LinearThresholdUnit):
        if args.digits is None:
            raise ValueError("real-weight neurons need --digits to quantize")
        unit = quantize(unit, args.digits, args.round)
    manager = Manager(unit.arity, node_budget=args.budget)
    root = compile_pseudo(unit, manager)
    write_obdd(root, args.output)
    print(
        "compiled %d inputs, magnitude %d, %d nodes"
        % (unit.arity, unit.magnitude, manager.node_count(root))
    )
    return 0


def _cmd_compile_net(args):
    spec = read_spec(args.model)
    for note in spec.coverage_notes:
        print(note, file=sys.stderr)
    net = compile_network(
        spec, args.digits, round_mode=args.round, node_budget=args.budget
    )
    for i, out in enumerate(net.outputs):
        path = "%s-out%d.obdd" % (args.output, i)
        write_obdd(out, path)
        print("output %d: %d nodes -> %s" % (i, net.manager.node_count(out), path))
    return 0


def _cmd_eval(args):
    f = read_obdd(args.obdd)
    _, _, bits = _load_image_for(f, args.image)
    print(f.manager.evaluate(f, bits))
    return 0


def _cmd_robustness(args):
    f = read_obdd(args.obdd)
    mgr = f.manager
    if args.mode == "instance":
        if args.image:
            _, _, bits = _load_image_for(f, args.image)
            r = analysis.instance_robustness(f, bits)
            print("inf" if r == float("inf") else int(r))
        elif args.dataset:
            data = read_dataset_csv(args.dataset)
            if data.n_features != mgr.num_vars:
                raise ValueError("dataset width does not match the diagram")
            print(analysis.dataset_average_robustness(f, data))
        else:
            raise ValueError("instance robustness needs --image or --dataset")
    elif args.mode == "model":
        profile = analysis.model_robustness(f, polarity=args.polarity)
        for side in (profile.positive, profile.negative):
            if side is None:
                continue
            print(
                "polarity=%s instances=%d flip_sum=%d mean_over_polarity=%s "
                "mean_over_all=%s maxr=%d"
                % (
                    side.polarity,
                    side.instance_count,
                    side.flip_sum,
                    side.mean_over_polarity,
                    side.mean_over_all,
                    side.max_robustness,
                )
            )
        print("mr=%s maxr=%d vars=%d" % (profile.mr, profile.maxr, profile.num_vars))
    elif args.mode == "max":
        print(analysis.max_robustness(f))
    else:  # hist
        polarity = args.polarity if args.polarity != "both" else "positive"
        summary = analysis.polarity_summary(f, polarity)
        dest = args.output if args.output else sys.stdout
        formats.write_histogram_csv(dict(summary.counts), mgr.num_vars, dest)
    return 0


def _cmd_explain(args):
    f = read_obdd(args.obdd)
    _, width, bits = _load_image_for(f, args.image)
    reason = analysis.pi_explanation(f, bits)
    print("label %d" % reason.label)
    print("cardinality %d" % reason.cardinality)
    for var, bit in reason.literals:
        print("%d %d %d %d" % (var, var // width, var % width, bit))
    if args.fool_fill:
        if not args.fool_out:
            raise ValueError("--fool-fill needs --fool-out for the result")
        fh, fw, fill = formats.read_pbm(args.fool_fill)
        if fh * fw != f.manager.num_vars:
            raise ValueError("fill image does not match the diagram")
        fooled = analysis.fooling_complete(f, reason, fill)
        formats.write_pbm(fooled, fh, fw, args.fool_out)
        print("fooling image written to %s" % args.fool_out)
    return 0


def _cmd_marginals(args):
    f = read_obdd(args.obdd)
    rows = analysis.marginal_grid(f, args.height, args.width)
    formats.write_marginal_grid_csv(rows, args.output)
    if args.pgm:
        formats.write_pgm(
            [float(value) for _, _, _, value in rows], args.height, args.width, args.pgm
        )
    return 0


def _cmd_unate(args):
    f = read_obdd(args.obdd)
    rows = analysis.unateness_grid(f, args.height, args.width)
    formats.write_unateness_grid_csv(rows, args.output)
    return 0


def _train_config(args):
    return TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        l2=args.l2,
    )


def _cmd_train(args):
    data = read_dataset_csv(args.dataset)
    unit = train_neuron(data, _train_config(args))
    write_neuron(unit, args.output)
    print("train_accuracy %s" % accuracy(unit, data))
    return 0


def _cmd_sweep(args):
    data = read_dataset_csv(args.dataset)
    unit = train_neuron(data, _train_config(args))
    rows = precision_sweep(
        unit,
        data,
        range(args.min_digits, args.max_digits + 1),
        node_budget=args.budget,
    )
    formats.write_sweep_csv(rows, args.output)
    for row in rows:
        print(
            "digits=%d accuracy=%s nodes=%s status=%s"
            % (
                row.digits,
                row.accuracy if row.accuracy is not None else "-",
                row.nodes if row.nodes is not None else "-",
                row.status,
            )
        )
    return 0


def _cmd_stats(args):
    f = read_obdd(args.obdd)
    mgr = f.manager
    print("vars %d" % mgr.num_vars)
    print("nodes %d" % mgr.node_count(f))
    print("support %d" % len(mgr.support(f)))
    print("models %d" % mgr.model_count(f))
    return 0


def _add_train_flags(p):
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l2", type=float, default=0.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand tree, built once per process and shared by every `main`.

    Handlers are looked up by name when `main` runs, not stored in the
    tree, so a `_cmd_*` function rebound after the first call still runs.
    """
    parser = _Parser(prog="nnobdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile-neuron", help="neuron file to a diagram file")
    p.add_argument("neuron")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--round", choices=["truncate", "nearest"], default="truncate")
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("compile-net", help="model file to per-output diagram files")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True, help="output file prefix")
    p.add_argument("--digits", type=int, default=2)
    p.add_argument("--round", choices=["truncate", "nearest"], default="truncate")
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("eval", help="classify one PBM image")
    p.add_argument("obdd")
    p.add_argument("image")

    p = sub.add_parser("robustness", help="robustness queries")
    p.add_argument("mode", choices=["instance", "model", "max", "hist"])
    p.add_argument("obdd")
    p.add_argument("--image", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument(
        "--polarity", choices=["positive", "negative", "both"], default="both"
    )
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("explain", help="minimum sufficient reason for one image")
    p.add_argument("obdd")
    p.add_argument("image")
    p.add_argument("--fool-fill", default=None, help="PBM filler for a fooling image")
    p.add_argument("--fool-out", default=None)

    p = sub.add_parser("marginals", help="per-pixel marginals as CSV")
    p.add_argument("obdd")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--pgm", default=None, help="also write a rescaled PGM heatmap")

    p = sub.add_parser("unate", help="per-pixel unateness as CSV")
    p.add_argument("obdd")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("train", help="fit a threshold neuron on a dataset")
    p.add_argument("dataset")
    p.add_argument("-o", "--output", required=True)
    _add_train_flags(p)

    p = sub.add_parser("sweep", help="train, then quantize and compile per precision")
    p.add_argument("dataset")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--min-digits", type=int, default=0)
    p.add_argument("--max-digits", type=int, default=4)
    p.add_argument("--budget", type=int, default=None)
    _add_train_flags(p)

    p = sub.add_parser("stats", help="node count, support size, model count")
    p.add_argument("obdd")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except BudgetExceededError as e:
        print("nnobdd: budget abort: %s" % e, file=sys.stderr)
        return 3
    except RecursionError:
        print(
            "nnobdd: budget abort: %s: diagram too deep for the recursion limit"
            % args.command,
            file=sys.stderr,
        )
        return 3
    except (OSError, ValueError, OBDDError) as e:
        print("nnobdd: error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
