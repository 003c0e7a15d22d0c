"""End-to-end command-line flows and exit codes."""

import decimal
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from nnobdd import Manager, analysis, cli, formats, obdd, pi_explanation, read_obdd, write_obdd
from nnobdd.cli import build_parser, main
from nnobdd.formats import write_pbm
from oracles import bdd_from_table, formula_table, random_formula, robustness_counts

NEURON3 = "weights: 1.15 0.95 -1.05\nbias: -0.52\n"
OR_NEURON = "weights: 1 1\nthreshold: 1\n"  # x0 or x1
ROOT = Path(__file__).resolve().parent.parent
# 7x7 input, one 3x3 filter at stride 2: its windows overlap, so 15 of 49 pixels are not unate
OVERLAP_7X7 = (
    '{"input":{"h":7,"w":7},"layers":[{"type":"conv_step","stride":2,"filters":[{"weights":'
    '[[[-1,-2,1],[-2,2,2],[2,2,-1]]],"bias":-1}]},{"type":"dense_step","weights":'
    '[[-2,2,-2,2,2,-2,2,1,-1]],"bias":[0]}]}'
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "neuron3.txt").write_text(NEURON3)
    (tmp_path / "or.txt").write_text(OR_NEURON)
    (tmp_path / "img3.pbm").write_text("P1\n3 1\n1 1 1\n")
    (tmp_path / "img2.pbm").write_text("P1\n2 1\n1 1\n")
    (tmp_path / "fill2.pbm").write_text("P1\n2 1\n0 0\n")
    (tmp_path / "data.csv").write_text(
        "0,0,0\n0,1,0\n1,0,1\n1,1,1\n"
    )
    return tmp_path


def compile_or(workdir):
    out = workdir / "or.obdd"
    assert main(["compile-neuron", str(workdir / "or.txt"), "-o", str(out)]) == 0
    return out


class TestCompileAndEval:
    def test_worked_neuron_then_eval(self, workdir, capsys):
        out = workdir / "n3.obdd"
        rc = main(
            [
                "compile-neuron",
                str(workdir / "neuron3.txt"),
                "--digits",
                "2",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        rc = main(["eval", str(out), str(workdir / "img3.pbm")])
        assert rc == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "1"

    def test_compile_neuron_prints_the_node_count(self, workdir, capsys):
        out = workdir / "n3.obdd"
        argv = ["compile-neuron", str(workdir / "neuron3.txt"), "--digits", "2"]
        assert main(argv + ["-o", str(out)]) == 0
        f = read_obdd(str(out))
        assert capsys.readouterr().out == (
            "compiled 3 inputs, magnitude 367, %d nodes\n" % f.manager.node_count(f)
        )

    def test_real_neuron_without_digits_is_input_error(self, workdir):
        rc = main(
            ["compile-neuron", str(workdir / "neuron3.txt"), "-o", str(workdir / "x")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [["--digits", "3"], ["--round", "nearest"], ["--round", "truncate"]],
        ids=["digits", "round-nearest", "round-truncate"],
    )
    def test_quantizing_flags_on_an_integer_unit_exit_2(self, workdir, capsys, flags):
        out = workdir / "or.obdd"
        assert main(["compile-neuron", str(workdir / "or.txt"), "-o", str(out)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error: %s " % flags[0])
        assert not out.exists()

    def test_round_trip_is_handle_equal(self, workdir):
        out = compile_or(workdir)
        m = Manager(2)
        first = read_obdd(str(out), m)
        again = read_obdd(str(out), m)
        assert first == again
        assert first == (m.literal(0) | m.literal(1))

    def test_compile_net_writes_per_output_files(self, workdir, capsys):
        rc = main(
            [
                "compile-net",
                "docs/net4x4.json",
                "--digits",
                "2",
                "-o",
                str(workdir / "net"),
            ]
        )
        assert rc == 0
        assert (workdir / "net-out0.obdd").exists()

    @pytest.mark.parametrize(
        "layers",
        [
            [1],
            [{"type": "dense_step", "weights": [[1, 1, 1, 1]]}],
            5,
        ],
    )
    def test_malformed_model_exits_2(self, workdir, capsys, layers):
        model = workdir / "bad.json"
        model.write_text(json.dumps({"input": {"h": 2, "w": 2}, "layers": layers}))
        assert main(["compile-net", str(model), "-o", str(workdir / "net")]) == 2
        assert capsys.readouterr().err.startswith("nnobdd: error:")

    def test_non_integer_size_exits_2(self, workdir, capsys):
        model = workdir / "bad.json"
        layer = {"type": "maxpool_or", "window": [1.9, 1], "stride": True}
        model.write_text(json.dumps({"input": {"h": 2, "w": 2}, "layers": [layer]}))
        assert main(["compile-net", str(model), "-o", str(workdir / "net")]) == 2
        assert capsys.readouterr().err.startswith("nnobdd: error: layer 1: window")

    @pytest.mark.parametrize(
        "layer, weights, shape",
        [
            (0, [[0.5, -0.25], [0.25, 0.5]], "weights[channel][row][col]"),
            (0, [[[[0.5], -0.25], [0.25, 0.5]]], "weights[channel][row][col]"),
            (1, [0.75, 0.5, 0.5, 0.75], "weights[out][in]"),
            (1, [[[0.75], 0.5, 0.5, 0.75]], "weights[out][in]"),
            (1, [["0.5", 0.5, 0.5, 0.75]], "weights[out][in] holds '0.5', not a finite number"),
            (1, [[0.75, True, 0.5, 0.75]], "weights[out][in] holds True, not a finite number"),
            (0, [[[0.5, float("nan")], [0.25, 0.5]]], "weights[channel][row][col] holds nan"),
            (0, [[[0.5, float("inf")], [0.25, 0.5]]], "weights[channel][row][col] holds inf"),
        ],
        ids=[
            "conv-no-channel",
            "conv-too-deep",
            "dense-no-row",
            "dense-too-deep",
            "dense-string",
            "dense-bool",
            "conv-nan",
            "conv-infinity",
        ],
    )
    def test_weight_nesting_error_names_the_shape(
        self, workdir, capsys, layer, weights, shape
    ):
        model = json.loads((ROOT / "docs" / "net4x4.json").read_text())
        entry = model["layers"][layer]
        (entry["filters"][0] if layer == 0 else entry)["weights"] = weights
        (workdir / "bad.json").write_text(json.dumps(model))
        argv = ["compile-net", str(workdir / "bad.json"), "-o", str(workdir / "net")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error: layer %d: " % (layer + 1))
        assert shape in captured.err

    @staticmethod
    def two_output_model(workdir):
        model = json.loads((ROOT / "docs" / "net4x4.json").read_text())
        dense = model["layers"][1]
        dense["weights"] *= 2
        dense["bias"] *= 2
        model["outputs"] = 2
        (workdir / "two.json").write_text(json.dumps(model))
        return ["compile-net", str(workdir / "two.json"), "-o", str(workdir / "net")]

    def test_compile_net_prints_after_every_file(self, workdir, capsys, monkeypatch):
        written = []

        def write_first_only(f, dest):
            if written:
                raise OSError("disk full")
            written.append(dest)
            write_obdd(f, dest)

        monkeypatch.setattr(cli, "write_obdd", write_first_only)
        assert main(self.two_output_model(workdir)) == 2
        assert len(written) == 1
        assert not list(workdir.glob("net-out*.obdd"))
        assert capsys.readouterr().out == ""

    def test_compile_net_writes_every_file_or_none(self, workdir, capsys):
        argv = self.two_output_model(workdir)
        (workdir / "net-out1.obdd").mkdir()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error: ")
        assert not (workdir / "net-out0.obdd").exists()
        (workdir / "net-out1.obdd").rmdir()
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert sorted(p.name for p in workdir.glob("net-out*.obdd")) == [
            "net-out0.obdd",
            "net-out1.obdd",
        ]

    def test_compile_net_budget_abort_exits_3(self, workdir):
        rc = main(
            [
                "compile-net",
                "docs/net4x4.json",
                "-o",
                str(workdir / "net"),
                "--budget",
                "20",
            ]
        )
        assert rc == 3


class TestRobustnessCommands:
    def test_max(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        # x0 or x1: 11 needs two flips to turn negative, 00 one to turn positive
        for flags, expected in (
            ([], "2"),
            (["--polarity", "both"], "2"),
            (["--polarity", "positive"], "2"),
            (["--polarity", "negative"], "1"),
        ):
            assert main(["robustness", "max", str(out)] + flags) == 0
            assert capsys.readouterr().out.strip() == expected, flags

    def test_max_is_the_model_maxr(self, workdir, capsys):
        # x0 and x1 and x2: 111 needs one flip to turn negative, 000 three
        and3 = workdir / "and3.txt"
        and3.write_text("weights: 1 1 1\nthreshold: 3\n")
        out = workdir / "and3.obdd"
        assert main(["compile-neuron", str(and3), "-o", str(out)]) == 0
        capsys.readouterr()
        for flags, expected in (
            ([], "3"),
            (["--polarity", "both"], "3"),
            (["--polarity", "positive"], "1"),
            (["--polarity", "negative"], "3"),
        ):
            assert main(["robustness", "max", str(out)] + flags) == 0
            assert capsys.readouterr().out.strip() == expected, flags
            assert main(["robustness", "model", str(out)] + flags) == 0
            assert capsys.readouterr().out.splitlines()[-1].split()[1] == "maxr=" + expected

    def test_instance(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        assert main(["robustness", "instance", str(out), "--image", str(workdir / "img2.pbm")]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_instance_needs_an_input(self, workdir):
        out = compile_or(workdir)
        assert main(["robustness", "instance", str(out)]) == 2

    def test_image_and_dataset_together_is_a_usage_error(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        argv = ["robustness", "instance", str(out), "--image", str(workdir / "img2.pbm")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dataset", str(workdir / "data.csv")])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize(
        "mode, extra, flag",
        [
            ("model", ["-o", "out.txt"], "-o"),
            ("instance", ["--image", "img2.pbm", "-o", "out.txt"], "-o"),
            ("max", ["--image", "img2.pbm"], "--image"),
            ("hist", ["--image", "img2.pbm"], "--image"),
            ("instance", ["--image", "img2.pbm", "--polarity", "negative"], "--polarity"),
            ("hist", ["--polarity", "both", "-o", "out.txt"], "--polarity"),
        ],
        ids=["model-o", "instance-o", "max-image", "hist-image", "instance-polarity", "hist-both"],
    )
    def test_flag_the_mode_ignores_exits_2(self, workdir, capsys, mode, extra, flag):
        out = compile_or(workdir)
        capsys.readouterr()
        extra = [str(workdir / a) if a.endswith((".txt", ".pbm")) else a for a in extra]
        assert main(["robustness", mode, str(out)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error: %s " % flag)
        assert "not %s" % mode in captured.err
        assert not (workdir / "out.txt").exists()

    def test_model_summary(self, workdir, capsys):
        out = compile_or(workdir)
        assert main(["robustness", "model", str(out)]) == 0
        text = capsys.readouterr().out
        assert "mr=5/4" in text
        assert "polarity=positive instances=3 flip_sum=4" in text

    def test_hist_csv(self, workdir, capsys):
        out = compile_or(workdir)
        csv_path = workdir / "hist.csv"
        assert main(["robustness", "hist", str(out), "-o", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "k,count,proportion"
        assert lines[1] == "1,2,1/2"
        assert lines[2] == "2,1,1/4"

    def test_failed_hist_writes_nothing(self, workdir, capsys):
        # the count 2**1099999 is longer than formats.exact_text prints
        path = workdir / "wide.obdd"
        path.write_text("obdd n=1100000 root=2\n2 0 0 1\n")
        csv_path = workdir / "hist.csv"
        for extra in ([], ["-o", str(csv_path)]):
            assert main(["robustness", "hist", str(path)] + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("nnobdd: error:")
        assert not csv_path.exists()

    @pytest.mark.parametrize("polarity", ["positive", "negative"])
    def test_hist_matches_the_hamming_oracle(self, workdir, polarity):
        rng = random.Random(426)
        path, csv_path = workdir / "f.obdd", workdir / "hist.csv"
        checked = 0
        while checked < 20:
            n = rng.randint(1, 7)
            if rng.random() < 0.5:
                table = formula_table(random_formula(rng, n, depth=rng.randint(2, 4)), n)
            else:
                table = [rng.randint(0, 1) for _ in range(1 << n)]
            if not 0 < sum(table) < len(table):
                continue
            checked += 1
            f = bdd_from_table(Manager(n), table)
            write_obdd(f, str(path))
            argv = ["robustness", "hist", str(path), "--polarity", polarity]
            assert main(argv + ["-o", str(csv_path)]) == 0
            lines = csv_path.read_text().splitlines()
            assert lines[0] == "k,count,proportion"
            rows = [line.split(",") for line in lines[1:]]
            side = getattr(analysis.model_robustness(f, polarity), polarity)
            oracle = sorted(robustness_counts(table, n, polarity == "positive").items())
            assert [(int(k), int(c)) for k, c, _ in rows] == list(side.counts) == oracle
            assert [Fraction(p) for _, _, p in rows] == [Fraction(c, 1 << n) for _, c in oracle]

    def test_flags_do_not_carry_over_between_calls(self, workdir, capsys):
        out = compile_or(workdir)
        neg, pos = workdir / "neg.csv", workdir / "pos.csv"
        argv = ["robustness", "hist", str(out)]
        assert main(argv + ["--polarity", "negative", "-o", str(neg)]) == 0
        assert main(argv + ["-o", str(pos)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert neg.read_text().splitlines()[1:] == ["1,1,1/4"]
        assert pos.read_text().splitlines()[1:] == ["1,2,1/2", "2,1,1/4"]
        assert capsys.readouterr().out.splitlines()[1:] == ["1,2,1/2", "2,1,1/4"]

    def test_handler_rebound_after_first_call_runs(self, workdir, monkeypatch):
        # wrappers that time a command replace the module's `_cmd_*` function
        out = compile_or(workdir)
        assert main(["robustness", "max", str(out)]) == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_robustness", lambda args: seen.append(args.mode) or 0)
        monkeypatch.setattr(cli, "_cmd_stats", lambda args: seen.append("stats") or 0)
        assert main(["robustness", "max", str(out)]) == 0
        assert main(["stats", str(out)]) == 0
        assert seen == ["max", "stats"]

    def test_dataset_average(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        data = workdir / "rows.csv"
        data.write_text("0,0,0\n0,1,1\n1,0,1\n1,1,1\n")
        assert main(["robustness", "instance", str(out), "--dataset", str(data)]) == 0
        assert capsys.readouterr().out.strip() == "5/4"


class TestExplainCommand:
    def test_literals_and_fooling_image(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        fooled = workdir / "fooled.pbm"
        rc = main(
            [
                "explain",
                str(out),
                str(workdir / "img2.pbm"),
                "--fool-fill",
                str(workdir / "fill2.pbm"),
                "--fool-out",
                str(fooled),
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "label 1"
        assert lines[1] == "cardinality 1"
        assert lines[2] == "0 0 0 1"
        assert fooled.read_text() == "P1\n2 1\n1 0\n"

    def test_fool_fill_requires_out(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        rc = main(
            [
                "explain",
                str(out),
                str(workdir / "img2.pbm"),
                "--fool-fill",
                str(workdir / "fill2.pbm"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().out == ""  # checked before the explanation prints

    def test_fool_out_requires_fill(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        fooled = workdir / "fooled.pbm"
        argv = ["explain", str(out), str(workdir / "img2.pbm"), "--fool-out", str(fooled)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--fool-fill" in captured.err
        assert not fooled.exists()

    def test_wrong_size_fill_prints_nothing(self, workdir, capsys, monkeypatch):
        shutil.copytree(ROOT / "docs", workdir / "docs")
        monkeypatch.chdir(workdir / "docs")
        assert main(["compile-net", "net4x4.json", "-o", "net"]) == 0
        capsys.readouterr()
        argv = ["explain", "net-out0.obdd", "image4x4.pbm", "--fool-fill", "image3.pbm"]
        assert main(argv + ["--fool-out", "x.pbm"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error:")
        assert not Path("x.pbm").exists()

    def test_fill_of_another_shape_exits_2(self, workdir, capsys, monkeypatch):
        # 8x2 has the 16 pixels of the 4x4 image, but not its rows and columns
        shutil.copytree(ROOT / "docs", workdir / "docs")
        monkeypatch.chdir(workdir / "docs")
        assert main(["compile-net", "net4x4.json", "-o", "net"]) == 0
        Path("fill8x2.pbm").write_text("P1\n2 8\n" + "0 1\n" * 8)
        capsys.readouterr()
        argv = ["explain", "net-out0.obdd", "image4x4.pbm", "--fool-fill", "fill8x2.pbm"]
        assert main(argv + ["--fool-out", "fooled.pbm"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nnobdd: error: filler is 8x2 but the image is 4x4\n"
        assert not Path("fooled.pbm").exists()

    def test_exact_pass_fools_the_overlapping_checkerboard(self, workdir, capsys, monkeypatch):
        # the 7x7 net that CI's numpy-free step compiles: its windows overlap,
        # and the checkerboard's certified check fails, so the exact pass runs,
        # with releases newer than the root; CI fools it under -X dev -W error
        monkeypatch.chdir(workdir)
        Path("overlap.json").write_text(OVERLAP_7X7)
        assert main(["compile-net", "overlap.json", "--digits", "0", "-o", "overlap"]) == 0
        Path("checker7.pbm").write_text("P1\n7 7\n" + " ".join("10" * 24 + "1") + "\n")
        Path("zeros7.pbm").write_text("P1\n7 7\n" + " ".join("0" * 49) + "\n")
        passes = []
        cheapest = analysis._cheapest_reason
        monkeypatch.setattr(
            analysis, "_cheapest_reason", lambda *args: passes.append(args[-1]) or cheapest(*args)
        )
        capsys.readouterr()
        argv = ["explain", "overlap-out0.obdd", "checker7.pbm"]
        assert main(argv + ["--fool-fill", "zeros7.pbm", "--fool-out", "fooled7.pbm"]) == 0
        f = read_obdd("overlap-out0.obdd")
        assert len(passes) == 2 and passes[0] == f.i < passes[1]  # certified, then exact
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["label 1", "cardinality 14"]
        literals = [tuple(map(int, line.split()))[::3] for line in lines[2:-1]]
        _, _, fooled = formats.read_pbm("fooled7.pbm")
        assert fooled == tuple(dict(literals).get(v, 0) for v in range(49))
        assert f.manager.evaluate(f, fooled) == 1


class TestExplainDataset:
    """`explain --dataset`: one reason per row, from one walk of the diagram."""

    def test_one_reason_per_row(self, workdir, capsys, monkeypatch):
        shutil.copytree(ROOT / "docs", workdir / "docs")
        monkeypatch.chdir(workdir / "docs")
        assert main(["compile-net", "net4x4.json", "-o", "net"]) == 0
        capsys.readouterr()
        walks = []
        walk = obdd._walk_from
        monkeypatch.setattr(obdd, "_walk_from", lambda f: walks.append(f) or walk(f))
        assert main(["explain", "net-out0.obdd", "--dataset", "dataset4x4.csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [ln.split(",")[:-1] for ln in Path("dataset4x4.csv").read_text().split()]
        assert len(lines) == len(rows) > 1 and len(walks) == 1
        f = read_obdd("net-out0.obdd")
        for k, (line, row) in enumerate(zip(lines, rows), start=1):
            reason = pi_explanation(f, [int(b) for b in row])
            literals = " ".join("%d=%d" % pair for pair in reason.literals)
            assert line == "row %d label %d cardinality %d literals %s" % (
                k, reason.label, reason.cardinality, literals
            )
        assert {line.split()[3] for line in lines} == {"0", "1"}

    def test_a_failing_row_prints_nothing(self, workdir, capsys, monkeypatch):
        out = compile_or(workdir)
        capsys.readouterr()
        explain = analysis.pi_explanation
        seen = []

        def third_row_fails(f, x):
            seen.append(x)
            if len(seen) == 3:
                raise ValueError("third row")
            return explain(f, x)

        monkeypatch.setattr(analysis, "pi_explanation", third_row_fails)
        assert main(["explain", str(out), "--dataset", str(workdir / "data.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nnobdd: error: third row\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--fool-fill", "fill2.pbm"],
            ["--fool-out", "x.pbm"],
            ["--fool-fill", "fill2.pbm", "--fool-out", "x.pbm"],
        ],
        ids=["fill", "out", "both"],
    )
    def test_fooling_flags_exit_2(self, workdir, capsys, monkeypatch, flags):
        out = compile_or(workdir)
        monkeypatch.chdir(workdir)
        capsys.readouterr()
        assert main(["explain", str(out), "--dataset", "data.csv"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dataset" in captured.err
        assert not (workdir / "x.pbm").exists()

    def test_needs_an_image_or_a_dataset(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        assert main(["explain", str(out)]) == 2
        assert capsys.readouterr().err == "nnobdd: error: explain needs an image or --dataset\n"

    def test_image_and_dataset_together_is_a_usage_error(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["explain", str(out), str(workdir / "img2.pbm"), "--dataset", "data.csv"])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err

    def test_width_mismatch_exits_2(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        (workdir / "wide.csv").write_text("0,1,0,1\n")
        assert main(["explain", str(out), "--dataset", str(workdir / "wide.csv")]) == 2
        assert capsys.readouterr().out == ""


class TestGridCommands:
    def test_marginals_csv_and_pgm(self, workdir):
        out = compile_or(workdir)
        csv_path = workdir / "marg.csv"
        pgm_path = workdir / "marg.pgm"
        rc = main(
            [
                "marginals",
                str(out),
                "--height",
                "1",
                "--width",
                "2",
                "-o",
                str(csv_path),
                "--pgm",
                str(pgm_path),
            ]
        )
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "var,row,col,marginal"
        assert lines[1] == "0,0,0,2/3"
        assert pgm_path.read_text().startswith("P2\n2 1\n255\n")

    def test_unwritable_pgm_writes_no_csv(self, workdir, capsys, monkeypatch):
        monkeypatch.chdir(workdir)
        assert main(["compile-net", str(ROOT / "docs" / "net4x4.json"), "-o", "net4x4"]) == 0
        capsys.readouterr()
        argv = ["marginals", "net4x4-out0.obdd", "--height", "4", "--width", "4"]
        bad = ["--pgm", "/nonexistent/dir/m.pgm"]
        assert main(argv + ["-o", "m.csv"] + bad) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error:")
        assert not (workdir / "m.csv").exists()
        # a file already there keeps its contents
        (workdir / "m.csv").write_text("old\n")
        assert main(argv + ["-o", "m.csv"] + bad) == 2
        assert (workdir / "m.csv").read_text() == "old\n"
        assert main(argv + ["-o", "m.csv", "--pgm", "m.pgm"]) == 0
        assert (workdir / "m.csv").read_text().startswith("var,row,col,marginal\n")
        assert (workdir / "m.pgm").read_text().startswith("P2\n4 4\n255\n")

    @pytest.mark.parametrize("pgm", ["m.csv", "./m.csv", "sub/../m.csv"])
    def test_csv_and_pgm_on_one_path_exits_2(self, workdir, capsys, monkeypatch, pgm):
        out = compile_or(workdir)
        (workdir / "sub").mkdir()
        monkeypatch.chdir(workdir)
        capsys.readouterr()
        argv = ["marginals", str(out), "--height", "1", "--width", "2"]
        assert main(argv + ["-o", "m.csv", "--pgm", pgm]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error:")
        assert not (workdir / "m.csv").exists()

    @pytest.mark.parametrize("command", ["marginals", "unate"])
    def test_negative_grid_exits_2(self, workdir, capsys, command):
        m = Manager(4)
        path = workdir / "and4.obdd"
        write_obdd(m.literal(0) & m.literal(3), str(path))
        csv_path = workdir / "grid.csv"
        argv = [command, str(path), "--height", "-2", "--width", "-2"]
        assert main(argv + ["-o", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith("nnobdd: error:")
        assert not csv_path.exists()

    def test_unate_csv(self, workdir):
        out = compile_or(workdir)
        csv_path = workdir / "unate.csv"
        rc = main(
            ["unate", str(out), "--height", "1", "--width", "2", "-o", str(csv_path)]
        )
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[1] == "0,0,0,pos"
        assert lines[2] == "1,0,1,pos"


class TestTrainAndSweep:
    def test_train_writes_neuron(self, workdir, capsys):
        neuron_out = workdir / "trained.txt"
        rc = main(
            [
                "train",
                str(workdir / "data.csv"),
                "-o",
                str(neuron_out),
                "--epochs",
                "120",
            ]
        )
        assert rc == 0
        assert "train_accuracy 1" in capsys.readouterr().out
        assert neuron_out.read_text().startswith("weights:")

    def test_sweep_writes_csv(self, workdir, capsys):
        sweep_out = workdir / "sweep.csv"
        rc = main(
            [
                "sweep",
                str(workdir / "data.csv"),
                "-o",
                str(sweep_out),
                "--epochs",
                "60",
                "--min-digits",
                "0",
                "--max-digits",
                "2",
            ]
        )
        assert rc == 0
        lines = sweep_out.read_text().strip().splitlines()
        assert lines[0] == "digits,accuracy,nodes,status"
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "digits, flag",
        [
            (["--min-digits", "3", "--max-digits", "1"], "--min-digits 3 is above --max-digits 1"),
            (["--max-digits", "10"], "--max-digits must be in 0..9"),
            (["--min-digits", "-1"], "--min-digits must be in 0..9"),
            (["--budget", "1"], "node budget must allow at least the terminals"),
            (["--epochs", "0"], "epoch count must be positive"),
        ],
        ids=["empty", "max-too-large", "min-negative", "budget-1", "epochs-0"],
    )
    def test_sweep_digit_range_it_cannot_run_exits_2(self, workdir, capsys, digits, flag):
        sweep_out = workdir / "sweep.csv"
        # the check comes before the dataset is read, so a missing one is never reached
        argv = ["sweep", str(workdir / "missing.csv"), "-o", str(sweep_out)]
        assert main(argv + digits) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error: " + flag)
        assert not sweep_out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lr", "0", "learning rate must be positive"),
            ("--lr", "nan", "learning rate must be finite, not nan"),
            ("--l2", "nan", "l2 penalty must be finite, not nan"),
            ("--lr", "inf", "learning rate must be finite, not inf"),
            ("--l2", "inf", "l2 penalty must be finite, not inf"),
        ],
        ids=["lr-0", "lr-nan", "l2-nan", "lr-inf", "l2-inf"],
    )
    def test_train_checks_its_options_before_the_dataset(
        self, workdir, capsys, command, flag, value, message
    ):
        out = workdir / "unit.txt"
        argv = [command, str(workdir / "missing.csv"), "-o", str(out), flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("nnobdd: error: " + message)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "2", "99999999999999999999"])
    def test_out_of_range_dataset_value_exits_2(self, workdir, capsys, value):
        out = compile_or(workdir)
        for cell in ((1, 0), (1, 2)):  # a feature, then a label
            rows = [["0", "1", "1"], ["1", "0", "1"]]
            rows[cell[0]][cell[1]] = value
            data = workdir / "bad.csv"
            data.write_text("".join(",".join(r) + "\n" for r in rows))
            for argv in (
                ["train", str(data), "-o", str(workdir / "t.txt")],
                ["sweep", str(data), "-o", str(workdir / "s.csv")],
                ["robustness", "instance", str(out), "--dataset", str(data)],
                ["explain", str(out), "--dataset", str(data)],
            ):
                capsys.readouterr()
                assert main(argv) == 2, (argv, cell)
                err = capsys.readouterr().err
                assert err.startswith("nnobdd: error:") and "must be 0 or 1" in err

    def test_deterministic_given_flags(self, workdir):
        out1 = workdir / "a.txt"
        out2 = workdir / "b.txt"
        argv = ["train", str(workdir / "data.csv"), "--epochs", "50", "--seed", "3"]
        assert main(argv + ["-o", str(out1)]) == 0
        assert main(argv + ["-o", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()


class TestStatsAndExitCodes:
    def test_stats_on_false(self, workdir, capsys):
        m = Manager(2)
        path = workdir / "false.obdd"
        write_obdd(m.false, str(path))
        assert main(["stats", str(path)]) == 0
        text = capsys.readouterr().out
        assert "nodes 0" in text
        assert "models 0" in text

    def test_stats_is_one_walk_with_the_queries_answers(self, workdir, capsys, monkeypatch):
        m = Manager(5)
        x = [m.literal(v) for v in range(5)]
        cases = [m.true, m.false, x[3], (x[0] & x[2]) | ~x[4], x[1] ^ x[2] ^ x[3]]
        expected = [
            "vars 5\nnodes %d\nsupport %d\nmodels %d\n"
            % (m.node_count(f), len(m.support(f)), m.model_count(f))
            for f in cases
        ]
        walks = []
        walk = obdd._walk_from
        monkeypatch.setattr(obdd, "_walk_from", lambda f: walks.append(f) or walk(f))
        path = workdir / "f.obdd"
        for f, text in zip(cases, expected):
            write_obdd(f, str(path))
            assert main(["stats", str(path)]) == 0
            assert capsys.readouterr().out == text
        assert len(walks) == len(cases)

    def test_failed_stats_writes_nothing(self, workdir, capsys):
        # 2**99999999 models has far more digits than Python will print
        path = workdir / "wide.obdd"
        path.write_text("obdd n=100000000 root=2\n2 0 0 1\n")
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error:")

    @pytest.mark.parametrize("mode, query", [("model", "model_robustness"), ("max", "max_robustness")])
    def test_memory_error_is_a_budget_abort(self, workdir, capsys, monkeypatch, mode, query):
        # a stopgap: the query commands take no --budget to bound memory
        out = compile_or(workdir)
        capsys.readouterr()

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(analysis, query, exhausted)
        assert main(["robustness", mode, str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nnobdd: budget abort: robustness: out of memory\n"

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["robustness"])  # missing required arguments
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_file_exits_2(self):
        assert main(["stats", "/nonexistent/thing.obdd"]) == 2

    def test_mismatched_image_exits_2(self, workdir):
        out = compile_or(workdir)
        # negative dimensions whose product matches the diagram's 2 inputs
        (workdir / "negative.pbm").write_text("P1\n-1 -2\n1 1\n")
        for image in ("img3.pbm", "negative.pbm"):
            assert main(["eval", str(out), str(workdir / image)]) == 2, image


class TestCountsTooLongToPrint:
    """A count is refused from the support, before it is built, not after."""

    @pytest.mark.parametrize(
        "header, argv, code",
        [
            ("obdd n=1000000000 root=2\n2 0 0 1\n", ["stats"], 2),
            ("obdd n=1000000000 root=2\n2 0 0 1\n", ["robustness", "model"], 2),
            ("obdd n=1000000000 root=2\n2 0 0 1\n", ["robustness", "hist"], 2),
            ("obdd n=1000000000 root=0\n", ["stats"], 0),
            ("obdd n=10000000000 root=0\n", ["stats"], 0),
        ],
    )
    def test_memory_grows_with_the_file_not_the_variables(
        self, workdir, capsys, header, argv, code
    ):
        path = workdir / "huge.obdd"
        path.write_text(header)
        build_parser()  # built once per process; not part of the command's cost
        tracemalloc.start()
        try:
            assert main(argv + [str(path)]) == code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the count of TRUE alone is 125 MB or more
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert "too long to print" in captured.err
        else:
            assert captured.out.endswith("nodes 0\nsupport 0\nmodels 0\n")

    @pytest.mark.parametrize("argv", [["stats"], ["robustness", "model"], ["robustness", "hist"]])
    def test_refused_exactly_when_a_count_is_too_long(self, workdir, capsys, monkeypatch, argv):
        # under a 64-bit limit, x0 counts 2**63 (64 bits) over 64 variables
        # and 2**64 over 65: the second is refused before any count is made
        monkeypatch.setattr(formats, "EXACT_TEXT_BITS", 64)
        counted = []
        count = Manager.model_count
        monkeypatch.setattr(Manager, "model_count", lambda m, f: counted.append(f) or count(m, f))
        path = workdir / "x0.obdd"
        for n, code in ((64, 0), (65, 2)):
            path.write_text("obdd n=%d root=2\n2 0 0 1\n" % n)
            counted.clear()
            assert main(argv + [str(path)]) == code
            assert bool(counted) == (code == 0)
        capsys.readouterr()


class TestMaxFromChainLengths:
    """`robustness max` prints a chain length and counts no level."""

    @pytest.mark.parametrize("polarity", ["positive", "negative", "both"])
    def test_memory_grows_with_the_file_not_the_variables(self, workdir, capsys, polarity):
        # the longest chain of x0 over 10**9 variables has one level
        path = workdir / "huge.obdd"
        path.write_text("obdd n=1000000000 root=2\n2 0 0 1\n")
        build_parser()
        tracemalloc.start()
        try:
            assert main(["robustness", "max", str(path), "--polarity", polarity]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the count of TRUE alone is 125 MB
        assert capsys.readouterr().out == "1\n"


WIDE = 15000  # 2**14999 models: more digits than Python's default str limit


def wide_models_text():
    """2**14999 in decimal, converted without Python's int-to-str digit limit."""
    return str(decimal.Decimal(2 ** (WIDE - 1)))


class TestExactCountsOfAnySize:
    """Every printing command on x0 over 15,000 variables prints exact counts."""

    @pytest.fixture
    def wide(self, workdir):
        (workdir / "wide.obdd").write_text("obdd n=%d root=2\n2 0 0 1\n" % WIDE)
        image = (1,) + (0,) * (WIDE - 1)
        write_pbm(image, 1, WIDE, str(workdir / "wide.pbm"))
        (workdir / "wide.csv").write_text(
            "".join(",".join(["%d" % b] + ["1"] * (WIDE - 1) + ["0"]) + "\n" for b in (0, 1))
        )
        return workdir

    def run(self, capsys, argv):
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    def test_counts_print_in_full(self, wide, capsys, monkeypatch):
        monkeypatch.chdir(wide)
        big = wide_models_text()
        assert len(big) == 4516 and int(decimal.Decimal(big)) == 2 ** (WIDE - 1)
        assert self.run(capsys, ["stats", "wide.obdd"]) == (
            "vars %d\nnodes 1\nsupport 1\nmodels %s\n" % (WIDE, big)
        )
        side = "instances=%s flip_sum=%s mean_over_polarity=1 mean_over_all=1/2 maxr=1" % (big, big)
        assert self.run(capsys, ["robustness", "model", "wide.obdd"]) == (
            "polarity=positive %s\npolarity=negative %s\nmr=1 maxr=1 vars=%d\n" % (side, side, WIDE)
        )
        for polarity in ("positive", "negative"):
            argv = ["robustness", "hist", "wide.obdd", "--polarity", polarity]
            assert self.run(capsys, argv) == "k,count,proportion\r\n1,%s,1/2\r\n" % big
            assert self.run(capsys, argv + ["-o", "hist.csv"]) == ""
            assert (wide / "hist.csv").read_text() == "k,count,proportion\n1,%s,1/2\n" % big

    def test_every_printing_command_exits_0(self, wide, capsys, monkeypatch):
        monkeypatch.chdir(wide)
        assert self.run(capsys, ["robustness", "max", "wide.obdd"]) == "1\n"
        assert self.run(capsys, ["eval", "wide.obdd", "wide.pbm"]) == "1\n"
        argv = ["robustness", "instance", "wide.obdd"]
        assert self.run(capsys, argv + ["--image", "wide.pbm"]) == "1\n"
        assert self.run(capsys, argv + ["--dataset", "wide.csv"]) == "1\n"
        assert self.run(capsys, ["explain", "wide.obdd", "wide.pbm"]) == "label 1\ncardinality 1\n0 0 0 1\n"
        assert self.run(capsys, ["explain", "wide.obdd", "--dataset", "wide.csv"]) == (
            "row 1 label 0 cardinality 1 literals 0=0\nrow 2 label 1 cardinality 1 literals 0=1\n"
        )
        grid = ["--height", "1", "--width", str(WIDE)]
        assert self.run(capsys, ["marginals", "wide.obdd", *grid, "-o", "m.csv", "--pgm", "m.pgm"]) == ""
        rows = (wide / "m.csv").read_text().splitlines()
        assert rows[1] == "0,0,0,1" and rows[2] == "1,0,1,1/2" and len(rows) == WIDE + 1
        assert self.run(capsys, ["unate", "wide.obdd", *grid, "-o", "u.csv"]) == ""
        rows = (wide / "u.csv").read_text().splitlines()
        assert rows[1] == "0,0,0,pos" and rows[2] == "1,0,1,unused"

    def test_a_header_too_wide_to_count_exits_2(self, workdir, capsys):
        # 1 << 10**20 cannot be made at all
        path = workdir / "huge.obdd"
        path.write_text("obdd n=100000000000000000000 root=2\n2 0 0 1\n")
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error:")


class TestDeepDiagrams:
    """A 1,200-variable conjunction, deeper than the recursion limit."""

    @pytest.fixture
    def deep(self, workdir):
        m = Manager(1200)
        f = m.true
        for v in reversed(range(1200)):
            f = m.literal(v) & f
        path = workdir / "deep.obdd"
        write_obdd(f, str(path))
        image = workdir / "ones.pbm"
        write_pbm((1,) * 1200, 30, 40, str(image))
        return path, image

    def test_stats(self, deep, capsys):
        path, _ = deep
        assert main(["stats", str(path)]) == 0
        text = capsys.readouterr().out
        assert "nodes 1200" in text
        assert "models 1" in text

    def test_explain(self, deep, workdir, capsys):
        path, image = deep
        assert main(["explain", str(path), str(image)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["label 1", "cardinality 1200"]
        assert len(lines) == 1202
        one_zero = workdir / "one_zero.pbm"
        write_pbm((1,) * 700 + (0,) + (1,) * 499, 30, 40, str(one_zero))
        assert main(["explain", str(path), str(one_zero)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["label 0", "cardinality 1", "700 17 20 0"]

    def test_robustness_of_a_deep_disjunction(self, workdir, capsys):
        # all ones needs every variable flipped, so the search reads every node
        m = Manager(1200)
        f = m.false
        for v in reversed(range(1200)):
            f = m.literal(v) | f
        path = workdir / "deep_or.obdd"
        write_obdd(f, str(path))
        image = workdir / "ones.pbm"
        write_pbm((1,) * 1200, 30, 40, str(image))
        argv = ["robustness", "instance", str(path), "--image", str(image)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "1200\n"

    @staticmethod
    def explain_all_ones(workdir, hi, lo):
        """`explain` of the all-ones image on ite(x0, AND of hi, AND of lo)."""
        m = Manager(1200)

        def conjunction(variables):
            f = m.true
            for v in sorted(variables, reverse=True):
                f = m.literal(v) & f
            return f

        path = workdir / "deep_release.obdd"
        write_obdd(m.ite(m.literal(0), conjunction(hi), conjunction(lo)), str(path))
        image = workdir / "ones.pbm"
        write_pbm((1,) * 1200, 30, 40, str(image))
        return main(["explain", str(path), str(image)])

    def test_recursion_is_a_budget_abort(self, workdir, capsys):
        # ite(x0, x1 & ... & x1197 & x1199, x1 & ... & x1198): the cofactors
        # are incomparable, so releasing x0 conjoins two chains about 1,200
        # levels deep
        hi = [*range(1, 1198), 1199]
        assert self.explain_all_ones(workdir, hi, range(1, 1199)) == 3
        assert "nnobdd: budget abort: explain:" in capsys.readouterr().err

    def test_ordered_deep_cofactors_explain_without_ite(self, workdir, capsys):
        # ite(x0, x1 & ... & x1198, x1 & ... & x1199): the x0 = 0 cofactor
        # implies the other, so the certified pass releases into it directly
        assert self.explain_all_ones(workdir, range(1, 1199), range(1, 1200)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["label 1", "cardinality 1199"]


def readme_commands():
    """Every `nnobdd ...` line of README's "Command line" block, as argv."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("nnobdd ")]


class TestReadme:
    def test_command_line_examples_exit_0(self, tmp_path, monkeypatch):
        shutil.copytree(ROOT / "docs", tmp_path / "docs")
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert commands
        for argv in commands:
            assert main(argv) == 0, argv

    def test_library_tour_runs(self, capsys):
        text = (ROOT / "README.md").read_text()
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "5/4"
        assert lines[1].startswith("Explanation(")


class TestStartup:
    @staticmethod
    def run_python(code, *args):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_cli_import_leaves_numpy_out(self):
        code = "import sys, nnobdd, nnobdd.cli; print('numpy' in sys.modules)"
        assert self.run_python(code).split() == ["False"]

    def test_training_names_load_on_use(self):
        code = (
            "import sys, nnobdd; from nnobdd import trainer; "
            "print(nnobdd.train_neuron is trainer.train_neuron, 'numpy' in sys.modules); "
            "trainer.LabeledDataset([[0, 1]], [1]); print('numpy' in sys.modules)"
        )
        assert self.run_python(code).split() == ["True", "False", "True"]

    def test_dataset_queries_run_without_numpy(self, tmp_path, capsys):
        obdd_path = str(tmp_path / "net-out0.obdd")
        data = str(ROOT / "docs" / "dataset4x4.csv")
        assert main(["compile-net", str(ROOT / "docs" / "net4x4.json"), "-o", str(tmp_path / "net")]) == 0
        queries = [
            ["robustness", "instance", obdd_path, "--dataset", data],
            ["explain", obdd_path, "--dataset", data],
        ]
        expected = []
        for argv in queries:
            capsys.readouterr()
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)
        training = [
            ["train", data, "-o", str(tmp_path / "t.txt")],
            ["sweep", data, "-o", str(tmp_path / "s.csv")],
        ]
        # numpy = None in sys.modules makes every import of it fail, as if it were absent
        code = (
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from nnobdd import cli\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = cli.main(argv)\n"
            "    runs.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps([runs, sys.modules['numpy'] is None]))\n"
        )
        runs, still_absent = json.loads(self.run_python(code, json.dumps(queries + training)))
        assert still_absent
        assert [run[:2] for run in runs[:2]] == [[0, out] for out in expected]
        for code, out, err in runs[2:]:
            assert (code, out) == (2, "")
            assert err.startswith("nnobdd: error:") and "numpy" in err
            assert err.count("\n") == 1
