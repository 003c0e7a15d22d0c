"""Table and raster writers: whole texts, written only once formatted."""

import decimal
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nnobdd import Unateness, formats
from nnobdd.formats import (
    exact_text,
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


class TestExactText:
    def test_small_values_print_as_str_does(self):
        for value in (0, 7, -12, 10**30, Fraction(3), Fraction(-5, 4), Fraction(1, 2**70)):
            assert exact_text(value) == str(value)

    def test_past_the_interpreters_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        big = 2**14999
        text = exact_text(big)
        assert len(text) == 4516 and int(decimal.Decimal(text)) == big
        assert exact_text(Fraction(big - 1, big)) == "%s/%s" % (exact_text(big - 1), text)
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    def test_an_int_past_the_cap_is_refused_before_converting(self, monkeypatch):
        monkeypatch.setattr(formats, "EXACT_TEXT_BITS", 64)
        assert exact_text(2**64 - 1) == str(2**64 - 1)
        for value in (2**64, -(2**64), Fraction(1, 2**64)):
            with pytest.raises(ValueError, match="65 bits"):
                exact_text(value)
