"""Seeded mutation fuzz of the command line's input files.

Every mutant of a `docs/` fixture or of a compiled `.obdd` file goes through
`cli.main` in every command form that reads that kind of file.  Whatever the
mutant holds, the command must exit 0, 2 (input error) or 3 (budget abort):
an exception escaping `main` is a traceback, which exits 1, the usage-error
code.
"""

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from nnobdd.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12)
MUTANTS = 16  # per fixture and seed
TOKENS = (
    "0", "1", "2", "-1", "16", "0.5", "-2.75", "1e9", "nan", "inf",
    "99999999999999999999", "x", "#", "{", "]", ",", '""', "null", "P1", "obdd",
)


def mutate(rng, text):
    """One seeded edit of ``text``, as bytes: a byte changed, inserted or
    dropped, or a whitespace-separated token replaced, dropped or repeated."""
    data = bytearray(text.encode())
    kind = rng.randrange(6)
    if kind == 0:
        data[rng.randrange(len(data))] = rng.randrange(256)
    elif kind == 1:
        data.insert(rng.randrange(len(data) + 1), rng.choice(b"0123456789 -.\n,{}[]:#"))
    elif kind == 2:
        del data[rng.randrange(len(data))]
    else:
        parts = re.split(r"(\s+)", text)  # tokens at the even indices
        at = rng.choice([i for i in range(0, len(parts), 2) if parts[i]])
        if kind == 3:
            parts[at] = rng.choice(TOKENS)
        elif kind == 4:
            parts[at] = ""
        else:
            parts[at] += " " + parts[at]
        data = "".join(parts).encode()
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The fixtures, a compiled net4x4 output, 3- and 4-input diagrams, and
    x0 over 15,000 variables, whose 2**14999 models print only in full."""
    tmp = tmp_path_factory.mktemp("fuzz")
    for src in (ROOT / "docs").iterdir():
        shutil.copy(src, tmp / src.name)
    assert main(["compile-net", str(tmp / "net4x4.json"), "-o", str(tmp / "net")]) == 0
    assert main(["compile-neuron", str(tmp / "neuron3.txt"), "--digits", "2",
                 "-o", str(tmp / "neuron3.obdd")]) == 0
    (tmp / "x0.obdd").write_text("obdd n=4 root=2\n2 0 0 1\n")
    (tmp / "wide.obdd").write_text("obdd n=15000 root=2\n2 0 0 1\n")
    return tmp


# per fixture, the command forms that read it; X is the mutant, and the other
# files are unmutated inputs or outputs in the fixtures' directory
FORMS = {
    "net-out0.obdd": [
        ["stats", "X"],
        ["eval", "X", "image4x4.pbm"],
        ["robustness", "instance", "X", "--image", "image4x4.pbm"],
        ["robustness", "model", "X"],
        ["robustness", "max", "X", "--polarity", "negative"],
        ["robustness", "hist", "X", "-o", "out.csv"],
        ["explain", "X", "image4x4.pbm", "--fool-fill", "image4x4.pbm", "--fool-out", "out.pbm"],
        ["marginals", "X", "--height", "4", "--width", "4", "-o", "out.csv", "--pgm", "out.pgm"],
        ["unate", "X", "--height", "4", "--width", "4", "-o", "out.csv"],
    ],
    "wide.obdd": [
        ["stats", "X"],
        ["robustness", "model", "X"],
        ["robustness", "max", "X", "--polarity", "negative"],
        ["robustness", "hist", "X", "-o", "out.csv"],
    ],
    "image4x4.pbm": [
        ["eval", "net-out0.obdd", "X"],
        ["robustness", "instance", "net-out0.obdd", "--image", "X"],
        ["explain", "net-out0.obdd", "image4x4.pbm", "--fool-fill", "X", "--fool-out", "out.pbm"],
    ],
    "image3.pbm": [
        ["explain", "neuron3.obdd", "X"],
    ],
    "net4x4.json": [
        ["compile-net", "X", "-o", "out"],
    ],
    "neuron3.txt": [
        ["compile-neuron", "X", "--digits", "2", "-o", "out.obdd"],
    ],
    "dataset4x4.csv": [
        ["robustness", "instance", "net-out0.obdd", "--dataset", "X"],
    ],
    "tiny-dataset.csv": [
        ["robustness", "instance", "x0.obdd", "--dataset", "X"],
        ["sweep", "X", "-o", "out.csv", "--epochs", "2", "--max-digits", "1"],
    ],
}


def run(form, mutant):
    return main([mutant if a == "X" else a for a in form])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fixture", sorted(FORMS))
def test_mutants_exit_0_2_or_3(files, fixture, seed, monkeypatch):
    monkeypatch.chdir(files)
    rng = random.Random("%s:%d" % (fixture, seed))
    text = (files / fixture).read_text()
    mutant = "mutant-" + fixture
    for k in range(MUTANTS):
        data = mutate(rng, text)
        (files / mutant).write_bytes(data)
        for form in FORMS[fixture]:
            assert run(form, mutant) in (0, 2, 3), (form, k, data)


@pytest.mark.parametrize(
    "body",
    [
        "obdd n=2 root=3\n2 1 0 1\n3 1 0 2\n",  # a child at its parent's level
        "obdd n=2 root=3\n2 1 0 1\n3 0 2 1\n3 0 1 2\n",  # a duplicate id
        "obdd n=2 root=3\n2 1 0 1\n3 0 4 2\n",  # a dangling child
        "obdd n=2 root=4\n2 1 0 1\n3 0 2 1\n",  # a missing root
    ],
    ids=["order", "duplicate", "dangling", "root"],
)
def test_structured_obdd_mutants_exit_2(files, body, capsys, monkeypatch):
    monkeypatch.chdir(files)
    (files / "bad.obdd").write_text(body)
    for form in FORMS["net-out0.obdd"]:
        assert run(form, "bad.obdd") == 2, form
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nnobdd: error: ")


@pytest.mark.parametrize(
    "form",
    [
        ["robustness", "model", "net-out0.obdd", "-o", "out.txt"],
        ["robustness", "max", "net-out0.obdd", "-o", "out.txt"],
        ["robustness", "instance", "net-out0.obdd", "--image", "image4x4.pbm", "-o", "out.txt"],
        ["robustness", "model", "net-out0.obdd", "--image", "image4x4.pbm"],
        ["robustness", "max", "net-out0.obdd", "--dataset", "dataset4x4.csv"],
        ["robustness", "hist", "net-out0.obdd", "--image", "image4x4.pbm"],
        ["robustness", "hist", "net-out0.obdd", "--dataset", "dataset4x4.csv", "-o", "out.txt"],
        ["robustness", "instance", "net-out0.obdd", "--image", "image4x4.pbm", "--polarity", "negative"],
        ["robustness", "hist", "net-out0.obdd", "--polarity", "both", "-o", "out.txt"],
    ],
    ids=lambda form: "-".join(a for a in form[1:] if "." not in a),
)
def test_flags_the_mode_ignores_exit_2(files, form, capsys, monkeypatch):
    # -o belongs to hist alone, --image and --dataset to instance alone, and
    # --polarity to every mode but instance, with hist taking one polarity
    monkeypatch.chdir(files)
    assert main(form) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nnobdd: error: ")
    assert not (files / "out.txt").exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["layers"][0]["filters"][0].update(weights=[[[0.5, -0.25, 1], [0.25, 0.5, 1]]]),
        lambda m: m["layers"][0]["filters"][0].update(weights=[[0.5, -0.25], [0.25, 0.5]]),
        lambda m: m["layers"][1].update(weights=[[0.75, 0.5, 0.5]]),
        lambda m: m["layers"][1].update(bias=[-1.0, 0.5]),
        lambda m: m.update(outputs=2),
    ],
    ids=["kernel-3-wide", "kernel-no-channel", "dense-row-short", "dense-bias-long", "outputs"],
)
def test_model_weight_shape_mutants_exit_2(files, edit, capsys, monkeypatch):
    monkeypatch.chdir(files)
    model = json.loads((files / "net4x4.json").read_text())
    edit(model)
    (files / "bad.json").write_text(json.dumps(model))
    assert main(["compile-net", "bad.json", "-o", "bad"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nnobdd: error: ")
