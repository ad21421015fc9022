"""The renderer's cell rules: each kind of raw cell reads the same in
every format."""

import csv
import math

import pytest

from boomsuite.reporting import FORMATS, fmt_num, render_prose, render_table

CELLS = [3, 2.0, 0.12345, True, False, None, "", "vlp16,d435i"]
TEXTS = ["3", "2", "0.1235", "yes", "no", "-", "", "vlp16,d435i"]
HEADERS = [f"c{i}" for i in range(len(CELLS))]


def _row(text: str, fmt: str) -> list[str]:
    """The one body row of a rendered one-row table."""
    last = text.splitlines()[-1]
    if fmt == "csv":
        return next(csv.reader([last]))
    if fmt == "md":
        return [cell.strip() for cell in last[1:-1].split("|")]
    # table: columns are padded to their widths, which the header row, under the title, shows
    header = text.splitlines()[1]
    starts = [header.index(h) for h in HEADERS] + [None]
    return [last[a:b].strip() for a, b in zip(starts, starts[1:])]


@pytest.mark.parametrize("fmt", FORMATS)
def test_each_kind_of_cell_reads_the_same_in_every_format(fmt):
    assert _row(render_table(HEADERS, [CELLS], fmt, "cells"), fmt) == TEXTS


@pytest.mark.parametrize("fmt", FORMATS)
def test_only_the_table_format_prints_prose(fmt):
    before = [("{} of {} kg", 0.5, 2.0)]
    after = iter([("plan: {}", True)])
    text = render_table(["field"], [["x"]], fmt, "prose", before=before, after=after)
    if fmt == "table":
        assert text.splitlines()[0] == "0.5 of 2 kg"
        assert text.splitlines()[-1] == "plan: yes"
    else:
        assert "kg" not in text
        assert next(after) == ("plan: {}", True)  # never iterated


def test_prose_formats_its_cells_as_tables_do():
    assert render_prose([("{} {} {} {}", 1.0, None, False, "a")]) == ["1 - no a"]


@pytest.mark.parametrize("value", [-1.2e-5, -4.9e-5, -0.0, -1e-300, 1e-300, 4.9e-5])
def test_a_number_that_rounds_to_zero_prints_as_0(value):
    assert fmt_num(value) == "0"


@pytest.mark.parametrize("value, text", [
    (1e15, "1000000000000000.0"),
    (-1e300, "-1e+300"),
    (1e300, "1e+300"),
    # below 1e15, as ever: an integral value as an integer, any other to 4 decimals
    (1e15 - 1, "999999999999999"),
    (math.nextafter(1e15, 0), "999999999999999.875"),
])
def test_a_number_from_1e15_up_prints_in_the_shortest_form_that_reads_back(value, text):
    assert fmt_num(value) == text
