"""Command-line surface for the compile / query / explain / train pipeline.

Exit codes: 0 success, 1 usage error, 2 input error, 3 budget abort (the
node budget, the recursion limit or, as a stopgap, memory ran out).
All diagnostics go to stderr; results go to stdout or to the named files.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys

from . import analysis, formats, trainer
from .neuron import (
    LinearThresholdUnit,
    compile_pseudo,
    quantize,
    read_neuron,
    write_neuron,
)
from .network import compile_network, read_spec
from .obdd import BudgetExceededError, Manager, OBDDError, read_obdd, write_obdd


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


def _load_rows_for(f, path):
    """The feature rows of a dataset file, checked against the diagram's width."""
    rows, _ = trainer.read_dataset_rows(path)
    if len(rows[0]) != f.manager.num_vars:
        raise ValueError("dataset width does not match the diagram")
    return rows


def _refuse_unprintable(f):
    """Refuse, before any count, a satisfiable ``f`` whose counts cannot print:
    each is a multiple of ``2**free``, free = the variables outside its support."""
    mgr = f.manager
    free = mgr.num_vars - len(mgr.support(f))
    if mgr.is_sat(f) and free >= formats.EXACT_TEXT_BITS:
        raise ValueError(
            "an exact count of over %d bits is too long to print (at most %d)"
            % (free, formats.EXACT_TEXT_BITS)
        )


def _cmd_compile_neuron(args):
    unit = read_neuron(args.neuron)
    if isinstance(unit, LinearThresholdUnit):
        if args.digits is None:
            raise ValueError("real-weight neurons need --digits to quantize")
        unit = quantize(unit, args.digits, args.round or "truncate")
    else:
        for flag, value in (("--digits", args.digits), ("--round", args.round)):
            if value is not None:
                raise ValueError("%s is only for real-weight neurons, not integer units" % flag)
    manager = Manager(unit.arity, node_budget=args.budget)
    root = compile_pseudo(unit, manager)
    write_obdd(root, args.output)
    # a fresh manager holds only root's nodes, as in precision_sweep
    print(
        "compiled %d inputs, magnitude %d, %d nodes"
        % (unit.arity, unit.magnitude, manager.allocated - 2)
    )
    return 0


def _cmd_compile_net(args):
    spec = read_spec(args.model)
    for note in spec.coverage_notes:
        print(note, file=sys.stderr)
    net = compile_network(
        spec, args.digits, round_mode=args.round, node_budget=args.budget
    )
    texts = {}
    lines = []
    for i, out in enumerate(net.outputs):
        path = "%s-out%d.obdd" % (args.output, i)
        text = io.StringIO()
        write_obdd(out, text)
        texts[path] = text.getvalue()
        lines.append("output %d: %d nodes -> %s" % (i, net.manager.node_count(out), path))
    # written all or none, then printed: a failure leaves no file and no stdout
    formats.write_files(texts)
    print("\n".join(lines))
    return 0


def _cmd_eval(args):
    f = read_obdd(args.obdd)
    _, _, bits = _load_image_for(f, args.image)
    print(f.manager.evaluate(f, bits))
    return 0


def _cmd_robustness(args):
    # a flag the mode would ignore is an input error, checked before any read
    if args.output and args.mode != "hist":
        raise ValueError("-o is only for robustness hist, not %s" % args.mode)
    source = "--image" if args.image else "--dataset" if args.dataset else None
    if source and args.mode != "instance":
        raise ValueError("%s is only for robustness instance, not %s" % (source, args.mode))
    if args.polarity and args.mode == "instance":
        raise ValueError("--polarity is only for robustness model, max and hist, not instance")
    if args.polarity == "both" and args.mode == "hist":
        raise ValueError("--polarity both is only for robustness model and max, not hist")
    polarity = args.polarity or ("positive" if args.mode == "hist" else "both")
    f = read_obdd(args.obdd)
    mgr = f.manager
    if args.mode in ("model", "hist"):
        _refuse_unprintable(f)
    if args.mode == "instance":
        if args.image:
            _, _, bits = _load_image_for(f, args.image)
            r = analysis.instance_robustness(f, bits)
            print("inf" if r == float("inf") else int(r))
        elif args.dataset:
            rows = _load_rows_for(f, args.dataset)
            print(formats.exact_text(analysis.dataset_average_robustness(f, rows)))
        else:
            raise ValueError("instance robustness needs --image or --dataset")
    elif args.mode == "model":
        profile = analysis.model_robustness(f, polarity=polarity)
        for side in (profile.positive, profile.negative):
            if side is None:
                continue
            print(
                "polarity=%s instances=%s flip_sum=%s mean_over_polarity=%s "
                "mean_over_all=%s maxr=%d"
                % (
                    side.polarity,
                    formats.exact_text(side.instance_count),
                    formats.exact_text(side.flip_sum),
                    formats.exact_text(side.mean_over_polarity),
                    formats.exact_text(side.mean_over_all),
                    side.max_robustness,
                )
            )
        print(
            "mr=%s maxr=%d vars=%d"
            % (formats.exact_text(profile.mr), profile.maxr, profile.num_vars)
        )
    elif args.mode == "max":
        print(analysis.max_robustness(f, polarity=polarity))
    else:  # hist: a histogram holds one polarity
        profile = analysis.model_robustness(f, polarity)
        summary = profile.positive or profile.negative
        dest = args.output if args.output else sys.stdout
        formats.write_histogram_csv(dict(summary.counts), mgr.num_vars, dest)
    return 0


def _cmd_explain(args):
    # a flag the source would ignore is an input error, checked before any read
    if args.dataset and (args.fool_fill or args.fool_out):
        raise ValueError("--fool-fill and --fool-out are only for an image, not --dataset")
    if args.fool_fill and not args.fool_out:
        raise ValueError("--fool-fill needs --fool-out for the result")
    if args.fool_out and not args.fool_fill:
        raise ValueError("--fool-out needs --fool-fill for the filler")
    if not (args.image or args.dataset):
        raise ValueError("explain needs an image or --dataset")
    f = read_obdd(args.obdd)
    if args.dataset:
        lines = []
        # every row's reason reads the one walk kept on f
        for row, x in enumerate(_load_rows_for(f, args.dataset), start=1):
            reason = analysis.pi_explanation(f, x)
            literals = "".join(" %d=%d" % pair for pair in reason.literals)
            lines.append(
                "row %d label %d cardinality %d literals%s"
                % (row, reason.label, reason.cardinality, literals)
            )
        print("\n".join(lines))  # formatted whole first: a failure leaves stdout empty
        return 0
    height, width, bits = _load_image_for(f, args.image)
    if args.fool_fill:
        fh, fw, fill = formats.read_pbm(args.fool_fill)
        if (fh, fw) != (height, width):
            raise ValueError("filler is %dx%d but the image is %dx%d" % (fh, fw, height, width))
    reason = analysis.pi_explanation(f, bits)
    lines = ["label %d" % reason.label, "cardinality %d" % reason.cardinality]
    for var, bit in reason.literals:
        lines.append("%d %d %d %d" % (var, var // width, var % width, bit))
    if args.fool_fill:
        fooled = analysis.fooling_complete(f, reason, fill)
        formats.write_pbm(fooled, height, width, args.fool_out)
        lines.append("fooling image written to %s" % args.fool_out)
    # printed after every step that can fail: a failure leaves stdout empty
    print("\n".join(lines))
    return 0


def _cmd_marginals(args):
    if args.pgm and os.path.realpath(args.pgm) == os.path.realpath(args.output):
        raise ValueError("-o and --pgm name the same file: %s" % args.output)
    f = read_obdd(args.obdd)
    rows = analysis.marginal_grid(f, args.height, args.width)
    # both outputs are formatted before either file is opened
    texts = {args.output: io.StringIO()}
    formats.write_marginal_grid_csv(rows, texts[args.output])
    if args.pgm:
        texts[args.pgm] = io.StringIO()
        formats.write_pgm(
            [float(value) for _, _, _, value in rows],
            args.height,
            args.width,
            texts[args.pgm],
        )
    formats.write_files({path: text.getvalue() for path, text in texts.items()})
    return 0


def _cmd_unate(args):
    f = read_obdd(args.obdd)
    rows = analysis.unateness_grid(f, args.height, args.width)
    formats.write_unateness_grid_csv(rows, args.output)
    return 0


def _train_config(args):
    return trainer.TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        l2=args.l2,
    )


def _cmd_train(args):
    config = _train_config(args)
    data = trainer.read_dataset_csv(args.dataset)
    unit = trainer.train_neuron(data, config)
    write_neuron(unit, args.output)
    print("train_accuracy %s" % trainer.accuracy(unit, data))
    return 0


def _cmd_sweep(args):
    # checked before the dataset is read: the training options, the budget
    # (by the manager's own rule) and the digits (quantize takes 0..9)
    config = _train_config(args)
    Manager(0, node_budget=args.budget)
    for flag, value in (("--min-digits", args.min_digits), ("--max-digits", args.max_digits)):
        if not 0 <= value <= 9:
            raise ValueError("%s must be in 0..9, not %d" % (flag, value))
    if args.min_digits > args.max_digits:
        raise ValueError(
            "--min-digits %d is above --max-digits %d" % (args.min_digits, args.max_digits)
        )
    data = trainer.read_dataset_csv(args.dataset)
    unit = trainer.train_neuron(data, config)
    rows = trainer.precision_sweep(
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
    _refuse_unprintable(f)
    # formatted whole before any of it is written: a failure leaves stdout empty
    models = formats.exact_text(mgr.model_count(f))
    print(
        "vars %d\nnodes %d\nsupport %d\nmodels %s"
        % (mgr.num_vars, mgr.node_count(f), len(mgr.support(f)), models)
    )
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
    p.add_argument("--round", choices=["truncate", "nearest"], default=None)
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
    source = p.add_mutually_exclusive_group()
    source.add_argument("--image", default=None)
    source.add_argument("--dataset", default=None)
    p.add_argument("--polarity", choices=["positive", "negative", "both"], default=None)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("explain", help="minimum sufficient reason for an image or dataset rows")
    p.add_argument("obdd")
    source = p.add_mutually_exclusive_group()
    source.add_argument("image", nargs="?", default=None)
    source.add_argument("--dataset", default=None)
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
    except (RecursionError, MemoryError) as e:
        # a stopgap for MemoryError, not an honest bound: the query commands
        # take no --budget, and the ITE cache has no bound at all
        why = (
            "out of memory"
            if isinstance(e, MemoryError)
            else "diagram too deep for the recursion limit"
        )
        print("nnobdd: budget abort: %s: %s" % (args.command, why), file=sys.stderr)
        return 3
    # an ImportError is a missing numpy, which only train and sweep load
    except (OSError, ValueError, OverflowError, OBDDError, ImportError) as e:
        print("nnobdd: error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
