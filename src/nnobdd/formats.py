"""File formats: PBM/PGM images, the CSV table writers, and `opened`, which
every reader and writer in the package uses to accept a path or a handle."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from fractions import Fraction
from typing import IO, Iterator, Sequence, Union

PathOrFile = Union[str, "IO[str]"]


@contextmanager
def opened(
    target: PathOrFile, mode: str = "r", newline: str | None = None
) -> Iterator[IO[str]]:
    """Use ``target`` if it is already a text handle, else open the path.

    Only a file opened here is closed on exit; a caller's handle stays open.
    """
    if hasattr(target, "write" if "w" in mode else "read"):
        yield target  # type: ignore[misc]
    else:
        with open(target, mode, newline=newline) as fp:  # type: ignore[arg-type]
            yield fp


def read_pbm(src: PathOrFile) -> tuple[int, int, tuple[int, ...]]:
    """Read an ASCII (P1) bitmap; returns (height, width, raster bits)."""
    with opened(src) as fp:
        text = fp.read()
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P1":
        raise ValueError("not an ASCII PBM (P1) image")
    if len(tokens) < 3:
        raise ValueError("truncated PBM header")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ValueError("bad PBM dimensions")
    digits = "".join(tokens[3:])
    if len(digits) != width * height or any(d not in "01" for d in digits):
        raise ValueError(
            "PBM body must carry exactly %d binary digits" % (width * height)
        )
    return height, width, tuple(int(d) for d in digits)


def write_pbm(bits: Sequence[int], height: int, width: int, dest: PathOrFile) -> None:
    if len(bits) != height * width:
        raise ValueError("bit count does not match the image size")
    lines = ["P1", "%d %d" % (width, height)]
    for r in range(height):
        lines.append(" ".join(str(bits[r * width + c]) for c in range(width)))
    with opened(dest, "w") as fp:
        fp.write("\n".join(lines) + "\n")


def write_pgm(values: Sequence[float], height: int, width: int, dest: PathOrFile) -> None:
    """Write a grayscale (P2) heatmap, min-max rescaled to 0..255.

    Presentation only: the rescaling destroys the absolute scale.
    """
    if len(values) != height * width:
        raise ValueError("value count does not match the image size")
    lo = min(values)
    span = max(values) - lo
    if span:
        gray = [round(255 * (float(v) - lo) / span) for v in values]
    else:
        gray = [0] * len(values)
    lines = ["P2", "%d %d" % (width, height), "255"]
    for r in range(height):
        lines.append(" ".join(str(gray[r * width + c]) for c in range(width)))
    with opened(dest, "w") as fp:
        fp.write("\n".join(lines) + "\n")


def write_histogram_csv(counts, num_vars: int, dest: PathOrFile) -> None:
    """Rows `k,count,proportion`; proportions are exact fractions."""
    with opened(dest, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["k", "count", "proportion"])
        for k, count in sorted(dict(counts).items()):
            writer.writerow([k, count, str(Fraction(count, 2**num_vars))])


def write_marginal_grid_csv(rows, dest: PathOrFile) -> None:
    """Rows `var,row,col,marginal` with exact fraction marginals."""
    with opened(dest, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["var", "row", "col", "marginal"])
        for var, r, c, value in rows:
            writer.writerow([var, r, c, str(value)])


def write_unateness_grid_csv(rows, dest: PathOrFile) -> None:
    """Rows `var,row,col,label` with labels pos/neg/unused/none."""
    with opened(dest, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["var", "row", "col", "label"])
        for var, r, c, value in rows:
            writer.writerow([var, r, c, value.value])


def write_sweep_csv(rows, dest: PathOrFile) -> None:
    """Rows `digits,accuracy,nodes,status`; blank cells for failed steps."""
    with opened(dest, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["digits", "accuracy", "nodes", "status"])
        for row in rows:
            writer.writerow(
                [
                    row.digits,
                    "%.6f" % float(row.accuracy) if row.accuracy is not None else "",
                    row.nodes if row.nodes is not None else "",
                    row.status,
                ]
            )
