"""Table and raster writers: whole texts, written only once formatted."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from nnobdd import Unateness
from nnobdd.formats import (
    write_marginal_grid_csv,
    write_sweep_csv,
    write_unateness_grid_csv,
)


@pytest.mark.parametrize(
    "write, rows",
    [
        (write_marginal_grid_csv, [(0, 0, 0, Fraction(1, 2)), (1, 0)]),
        (write_unateness_grid_csv, [(0, 0, 0, Unateness.POSITIVE), (1, 0)]),
        (
            write_sweep_csv,
            [
                SimpleNamespace(digits=0, accuracy=0.5, nodes=3, status="ok"),
                SimpleNamespace(digits=1, accuracy="x", nodes=None, status="budget"),
            ],
        ),
    ],
    ids=["marginal", "unateness", "sweep"],
)
def test_a_row_that_fails_to_format_leaves_the_file_as_it_was(tmp_path, write, rows):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError):
        write(rows, str(path))
    assert path.read_bytes() == b"old\n"
