"""End-to-end command-line flows and exit codes."""

import json
import shlex
import shutil
from pathlib import Path

import pytest

from nnobdd import Manager, cli, read_obdd, write_obdd
from nnobdd.cli import main
from nnobdd.formats import write_pbm

NEURON3 = "weights: 1.15 0.95 -1.05\nbias: -0.52\n"
OR_NEURON = "weights: 1 1\nthreshold: 1\n"  # x0 or x1
ROOT = Path(__file__).resolve().parent.parent


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

    def test_real_neuron_without_digits_is_input_error(self, workdir):
        rc = main(
            ["compile-neuron", str(workdir / "neuron3.txt"), "-o", str(workdir / "x")]
        )
        assert rc == 2

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
        assert main(["robustness", "max", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_instance(self, workdir, capsys):
        out = compile_or(workdir)
        capsys.readouterr()
        assert main(["robustness", "instance", str(out), "--image", str(workdir / "img2.pbm")]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_instance_needs_an_input(self, workdir):
        out = compile_or(workdir)
        assert main(["robustness", "instance", str(out)]) == 2

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

    def test_fool_fill_requires_out(self, workdir):
        out = compile_or(workdir)
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
        assert main(["eval", str(out), str(workdir / "img3.pbm")]) == 2


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

    def test_recursion_is_a_budget_abort(self, workdir, capsys):
        # ite(x0, x1 & ... & x1198, x1 & ... & x1199): releasing x0 for the
        # all-ones image conjoins two chains about 1,200 levels deep
        m = Manager(1200)

        def conjunction(last):
            f = m.true
            for v in reversed(range(1, last + 1)):
                f = m.literal(v) & f
            return f

        path = workdir / "deep_release.obdd"
        write_obdd(m.ite(m.literal(0), conjunction(1198), conjunction(1199)), str(path))
        image = workdir / "ones.pbm"
        write_pbm((1,) * 1200, 30, 40, str(image))
        assert main(["explain", str(path), str(image)]) == 3
        assert "nnobdd: budget abort: explain:" in capsys.readouterr().err


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
