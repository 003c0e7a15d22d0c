"""File formats: PBM/PGM images, the CSV table writers, and the package's
only file reads and writes.  Every reader parses what `read_text` returns;
every writer formats its whole text before `write_text`, so a value that
fails to format leaves the file as it was; `write_files` writes several
texts or none.  Exact counts and ratios are printed by `exact_text`, at
any size."""

from __future__ import annotations

import csv
import decimal
import io
import os
from contextlib import ExitStack
from fractions import Fraction
from typing import IO, Sequence, Union

PathOrFile = Union[str, "IO[str]"]


def read_text(src: PathOrFile) -> str:
    """The whole text of a caller's open handle, or of the file at a path."""
    if hasattr(src, "read"):
        return src.read()  # type: ignore[union-attr]
    with open(src) as fp:
        return fp.read()


def write_text(dest: PathOrFile, text: str) -> None:
    """Write ``text`` as it is to a caller's open handle, or replace the path's file."""
    if hasattr(dest, "write"):
        dest.write(text)  # type: ignore[union-attr]
    else:
        write_files({dest: text})  # type: ignore[dict-item]


def write_files(texts: dict[str, str]) -> None:
    """Write each text to its path, after every path has been opened.

    Paths are opened without truncation, so when one cannot be opened the
    others keep their old contents, and a file created here is removed.
    """
    created = []
    with ExitStack() as stack:
        handles = []
        try:
            for path in texts:
                existed = os.path.exists(path)
                handles.append(stack.enter_context(open(path, "a", newline="")))
                if not existed:
                    created.append(path)
        except OSError:
            stack.close()
            for path in created:
                os.remove(path)
            raise
        for (path, text), fp in zip(texts.items(), handles):
            if os.path.isfile(path):  # not a device such as /dev/null
                fp.truncate(0)
            fp.write(text)


#: Longest int `exact_text` prints, in bits: about 315,000 decimal digits.
EXACT_TEXT_BITS = 1 << 20


def exact_text(value: int | Fraction) -> str:
    """Decimal text of an exact int, or ``n/d`` of a Fraction.

    ``str`` refuses an int of more than 4,300 digits on Python 3.11 and
    later, and that limit is process-wide; `decimal` converts an int
    exactly without it, so this leaves the limit as it is.  The conversion
    takes time quadratic in the length, about 2 s at `EXACT_TEXT_BITS`, so
    a longer int is a `ValueError` raised before any conversion.
    """
    if isinstance(value, Fraction) and value.denominator != 1:
        return "%s/%s" % (exact_text(value.numerator), exact_text(value.denominator))
    value = int(value)
    if value.bit_length() > EXACT_TEXT_BITS:
        raise ValueError(
            "an exact count of %d bits is too long to print (at most %d)"
            % (value.bit_length(), EXACT_TEXT_BITS)
        )
    return str(decimal.Decimal(value))


def read_pbm(src: PathOrFile) -> tuple[int, int, tuple[int, ...]]:
    """Read an ASCII (P1) bitmap; returns (height, width, raster bits)."""
    tokens: list[str] = []
    for line in read_text(src).splitlines():
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
    if width <= 0 or height <= 0:
        raise ValueError("PBM dimensions must be positive")
    digits = "".join(tokens[3:])
    if len(digits) != width * height or any(d not in "01" for d in digits):
        raise ValueError(
            "PBM body must carry exactly %d binary digits" % (width * height)
        )
    return height, width, tuple(int(d) for d in digits)


def _raster(header: str, cells: Sequence, height: int, width: int) -> str:
    """A plain PNM text: the header lines, then one line of cells per row."""
    rows = (
        " ".join(str(v) for v in cells[r * width : (r + 1) * width]) for r in range(height)
    )
    return "\n".join([header, *rows]) + "\n"


def _table(header: str, rows) -> str:
    """A CSV text: the comma-separated header, then one line per formatted row."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return out.getvalue()


def write_pbm(bits: Sequence[int], height: int, width: int, dest: PathOrFile) -> None:
    if len(bits) != height * width:
        raise ValueError("bit count does not match the image size")
    write_text(dest, _raster("P1\n%d %d" % (width, height), bits, height, width))


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
    write_text(dest, _raster("P2\n%d %d\n255" % (width, height), gray, height, width))


def write_histogram_csv(counts, num_vars: int, dest: PathOrFile) -> None:
    """Rows `k,count,proportion`; proportions are exact fractions."""
    rows = [
        (k, exact_text(n), exact_text(Fraction(n, 2**num_vars)))
        for k, n in sorted(dict(counts).items())
    ]
    write_text(dest, _table("k,count,proportion", rows))


def write_marginal_grid_csv(rows, dest: PathOrFile) -> None:
    """Rows `var,row,col,marginal` with exact fraction marginals."""
    rows = [(var, r, c, exact_text(value)) for var, r, c, value in rows]
    write_text(dest, _table("var,row,col,marginal", rows))


def write_unateness_grid_csv(rows, dest: PathOrFile) -> None:
    """Rows `var,row,col,label` with labels pos/neg/unused/none."""
    rows = [(var, r, c, value.value) for var, r, c, value in rows]
    write_text(dest, _table("var,row,col,label", rows))


def write_sweep_csv(rows, dest: PathOrFile) -> None:
    """Rows `digits,accuracy,nodes,status`; blank cells for failed steps."""
    rows = [
        (
            row.digits,
            "%.6f" % float(row.accuracy) if row.accuracy is not None else "",
            row.nodes if row.nodes is not None else "",
            row.status,
        )
        for row in rows
    ]
    write_text(dest, _table("digits,accuracy,nodes,status", rows))
