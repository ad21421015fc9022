"""README commands for the ``cli_paper`` workload and the facts each must print.

The checker parses an output in any of the three formats into
``{section: {row key: {column: cell}}}`` and compares the cells the README
states.  Numbers compare by value, not by text, and rows it does not name
are ignored, so a layout change that keeps the stated facts (dropping a
constant row, say) still passes.  Comparing every format against the same
expected cells is what checks that table, csv and md carry the same numbers.
"""

from __future__ import annotations

import csv
import re

FORMATS = ("table", "csv", "md")

NUMBER_TOLERANCE = 5e-5

BUDGET = "Mass and Buckling Budget"
COVERAGE = "Cross-Section Coverage"
SUITE = "Selected Suite"
SWEEP = "Sensitivity: affordability weight"

_ENVELOPE = {
    "boom_mass_kg": {"value": "0.62"},
    "total_boom_mass_kg": {"value": "4.96"},
    "body_sensor_budget_kg": {"value": "1.988"},
    "distal_sensor_budget_kg": {"value": "0.7295"},
}
_ALL_VISIBLE = {s: {"Visible": "yes"} for s in ("floor", "ceiling", "right_wall", "left_wall")}
_PAPER_PICK = {
    "body_sensors": {"value": "vlp16"},
    "distal_sensors": {"value": "d435i"},
    "aggregate_score": {"value": "50"},
    "total_price_usd": {"value": "4334"},
}
_FAR_FIELD = {
    "Velodyne Puck (VLP-16)": {"Weighted Sum": "26", "Eligible": "yes"},
    "Ouster OS1-32": {"Weighted Sum": "26", "Eligible": "yes"},
    "Cygbot Mini Lidar": {"Eligible": "no", "Failing": "range"},
}

# (argv without --format, exit code, {section: {row: {column: cell}}},
#  [(section, row, column, substrings)])
COMMANDS = [
    (
        ["evaluate", "--preset", "paper", "--profile", "far_field"], 0,
        {"Decision Matrix (far_field)": _FAR_FIELD}, [],
    ),
    (
        ["evaluate", "--preset", "paper", "--profile", "modality"], 0,
        {"Modality Overview": {
            "lidar": {"Exemplar": "Velodyne Puck (VLP-16)"},
            "radar": {"Exemplar": "XM132", "Dust": "High"},
        }}, [],
    ),
    (["budget", "--preset", "paper"], 0, {BUDGET: _ENVELOPE}, []),
    (["coverage", "--preset", "paper"], 0, {COVERAGE: _ALL_VISIBLE}, []),
    (
        ["coverage", "--preset", "paper", "--tube-width", "300"], 1,
        {COVERAGE: {
            "floor": {"Visible": "yes"},
            "ceiling": {"Visible": "yes"},
            "right_wall": {"Visible": "no", "Beyond Range": "yes", "Min Slant (m)": "150"},
            "left_wall": {"Visible": "no", "Beyond Range": "yes", "Min Slant (m)": "150"},
        }}, [],
    ),
    (
        ["select", "--preset", "paper"], 0, {SUITE: _PAPER_PICK},
        [(SUITE, "note_0", "value", ("tie at score 50", "os1_32", "broken by price"))],
    ),
    (
        ["select", "--preset", "paper", "--redundancy"], 0,
        {SUITE: {
            "body_sensors": {"value": "vlp16,xm132"},
            "distal_sensors": {"value": "d435i"},
            "aggregate_score": {"value": "74"},
        }},
        [(SUITE, "note_0", "value", ("tie at score 74", "broken by price"))],
    ),
    (
        ["select", "--preset", "paper", "--sweep", "affordability", "0", "4"], 0,
        {SWEEP: {
            "0": {"Body": "os1_32", "Distal": "zed2", "Score": "47"},
            "1": {"Body": "os1_32", "Distal": "d435i", "Score": "48", "Changed": "yes"},
            "2": {"Body": "vlp16", "Distal": "d435i", "Score": "50", "Changed": "yes"},
            "3": {"Body": "vlp16", "Distal": "d435i", "Score": "54", "Changed": "no"},
            "4": {"Body": "vlp16", "Distal": "d435i", "Score": "58", "Changed": "no"},
        }}, [],
    ),
    (
        ["report", "--preset", "paper"], 0,
        {
            "Far-Field Matrix": _FAR_FIELD,
            BUDGET: _ENVELOPE,
            COVERAGE: _ALL_VISIBLE,
            SUITE: _PAPER_PICK,
        },
        [(SUITE, "note_0", "value", ("broken by price",))],
    ),
]


def command_list() -> list[list[str]]:
    """Every README command in every format, as argv lists."""
    return [argv + ["--format", fmt] for argv, *_ in COMMANDS for fmt in FORMATS]


def _expectation(argv: list[str]):
    base = argv[: argv.index("--format")]
    for cmd, code, cells, notes in COMMANDS:
        if cmd == base:
            return code, cells, notes
    raise KeyError(" ".join(argv))


_TITLES = {
    "table": re.compile(r"^== (.*) ==$"),
    "csv": re.compile(r"^# (.*)$"),
    "md": re.compile(r"^## (.*)$"),
}


def _split(line: str, fmt: str) -> list[str] | None:
    """Cells of one output line, or None for rules and blank lines."""
    if not line.strip() or re.fullmatch(r"[-\s|]+", line):
        return None
    if fmt == "csv":
        return next(csv.reader([line]))
    if fmt == "md":
        return [c.strip() for c in line.strip().strip("|").split("|")]
    return re.split(r"\s{2,}", line.strip())


def parse(text: str, fmt: str) -> dict[str, dict[str, dict[str, str]]]:
    """Sections of an output: title -> first cell of a row -> column -> cell.

    Lines before the first title land in section "".  Each section's first
    multi-cell line is its header row.
    """
    sections: dict[str, dict[str, dict[str, str]]] = {}
    title, header = "", None
    for line in text.splitlines():
        match = _TITLES[fmt].match(line)
        if match:
            title, header = match.group(1), None
            continue
        cells = _split(line, fmt)
        if cells is None:
            continue
        if header is None and len(cells) > 1:
            header = cells
            continue
        row = dict(zip(header or [], cells))
        sections.setdefault(title, {})[cells[0]] = row
    return sections


def _same(actual: str | None, expected: str) -> bool:
    if actual is None:
        return False
    try:
        return abs(float(actual) - float(expected)) <= NUMBER_TOLERANCE
    except ValueError:
        return actual.strip() == expected


def check(argv: list[str], exit_code: int, stdout: str) -> list[str]:
    """Problems with one command's result (empty when every fact holds)."""
    code, cells, notes = _expectation(argv)
    fmt = argv[argv.index("--format") + 1]
    problems = []
    if exit_code != code:
        problems.append(f"exit code {exit_code}, expected {code}")
    sections = parse(stdout, fmt)
    for section, rows in cells.items():
        for key, columns in rows.items():
            row = sections.get(section, {}).get(key, {})
            for column, expected in columns.items():
                if not _same(row.get(column), expected):
                    problems.append(f"{section} / {key} / {column}: {row.get(column)!r} != {expected!r}")
    for section, key, column, needles in notes:
        cell = sections.get(section, {}).get(key, {}).get(column, "")
        for needle in needles:
            if needle not in cell:
                problems.append(f"{section} / {key} / {column}: missing {needle!r}")
    return problems
