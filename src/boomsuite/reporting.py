"""Render computed results as aligned text, CSV, or Markdown.

Emitters are layout-only: each builds rows of raw cells (numbers, text,
booleans, ``None``) and hands them to :func:`render_table`, with any
prose lines that belong only in the ``table`` format.  Values are
formatted there and nowhere else: a number by :func:`fmt_num`, a boolean
as ``yes``/``no`` and ``None`` as ``-``, the same in every format, so the
three output formats always carry identical values.  A prose line is a
``str.format`` template and the raw values for its fields.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # result types, for annotations only
    from .budget import BudgetReport
    from .catalog import Catalog, Modality, Ordinal
    from .geometry import CoverageReport, StagePlan
    from .scoring import CriterionName, DecisionMatrix
    from .selector import SensitivityRow, SuiteSolution

    Cell = float | int | str | bool | None
    Prose = tuple  # a template, then a cell for each of its fields

__all__ = [
    "FORMATS",
    "fmt_num",
    "render_table",
    "render_prose",
    "decision_matrix_table",
    "modality_overview_table",
    "budget_table",
    "budget_summary_lines",
    "coverage_table",
    "selection_lines",
    "sensitivity_table",
    "stage_plan_lines",
]

FORMATS = ("table", "csv", "md")

# Column label of each criterion, by CriterionName value, in the order
# CriterionName declares them; keyed by value so that rendering loads no
# scoring code.
_CRITERION_LABELS = {
    "resolution": "Res",
    "accuracy": "Acc",
    "fov": "FoV",
    "range": "Rng",
    "darkness": "Dark",
    "dust": "Dust",
    "power": "Pwr",
    "implementation_ease": "Ease",
    "lightness": "Light",
    "affordability": "Afford",
}


def fmt_num(value: float | int) -> str:
    """Canonical number rendering shared by every output format."""
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def _cell(value: Cell) -> str:
    """A cell's text, the same in every format."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return value if isinstance(value, str) else fmt_num(value)


def render_prose(lines: Iterable[Prose]) -> list[str]:
    """Prose lines, each a template and a cell for each of its fields, as text."""
    return [template.format(*map(_cell, cells)) for template, *cells in lines]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    fmt: str,
    title: str | None = None,
    before: Iterable[Prose] = (),
    after: Iterable[Prose] = (),
) -> str:
    """Render one table of raw cells in the requested format.  ``before``
    and ``after`` are prose lines above and below it that only ``table``
    prints; the other formats never iterate them, so a generator there
    does its work only for ``table``."""
    rows = [[_cell(value) for value in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if title:
            buf.write(f"# {title}\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "md":
        lines = [f"## {title}", ""] if title else []
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)
    if fmt == "table":
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        lines = [f"== {title} =="] if title else []
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join([*render_prose(before), *(line.rstrip() for line in lines), *render_prose(after)])
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def decision_matrix_table(
    matrix: DecisionMatrix, catalog: Catalog, fmt: str, title: str | None = None
) -> str:
    """Sensor rows, per-criterion scores, weighted sum, gate flags."""
    headers = (
        ["Sensor"]
        + [_CRITERION_LABELS[c.value] for c in matrix.criteria]
        + ["Weighted Sum", "Eligible", "Failing"]
    )
    rows = [["(weights)", *(matrix.weights[c] for c in matrix.criteria), "", "", ""]]
    for sid in matrix.sensor_ids:
        failing = matrix.failing[sid]
        rows.append(
            [catalog.get(sid).name]
            + [matrix.scores[sid][c] for c in matrix.criteria]
            + [matrix.weighted_sums[sid], not failing, ",".join(c.value for c in failing) or None]
        )
    return render_table(headers, rows, fmt, title=title)


def modality_overview_table(
    table: dict[Modality, dict[CriterionName, Ordinal]],
    catalog: Catalog,
    exemplars: dict[Modality, str],
    fmt: str,
    title: str | None = None,
) -> str:
    """Per-modality High/Mid/Low capability grid."""
    headers = ["Modality", "Exemplar"] + list(_CRITERION_LABELS.values())
    rows = []
    for modality, cells in table.items():
        exemplar_id = exemplars.get(modality)
        exemplar = catalog.get(exemplar_id).name if exemplar_id else None
        words = {c.value: grade.word for c, grade in cells.items()}
        rows.append([modality.value, exemplar] + [words[c] for c in _CRITERION_LABELS])
    return render_table(headers, rows, fmt, title=title)


def budget_table(
    report: BudgetReport, fmt: str, title: str | None = None, before: Iterable[Prose] = ()
) -> str:
    """Machine-readable field/value rendering of a budget report."""
    rows = [
        ["boom_mass_kg", report.boom_mass],
        ["total_boom_mass_kg", report.total_boom_mass],
        ["body_sensor_budget_kg", report.body_sensor_budget],
        ["distal_sensor_budget_kg", report.distal_sensor_budget],
        ["body_sensor_mass_kg", report.body_sensor_mass],
        ["distal_sensor_mass_kg", report.distal_sensor_mass],
        ["shoulder_moment_nm", report.shoulder_moment],
        ["allowable_moment_nm", report.allowable_moment],
        ["pulloff_capacity_n", report.pulloff_capacity],
        ["weight_on_grippers_n", report.weight_on_grippers],
        ["body_margin_kg", report.body_margin],
        ["distal_margin_kg", report.distal_margin],
        ["pulloff_margin_n", report.pulloff_margin],
        ["feasible", report.feasible],
    ]
    rows += ([f"reason_{i}", reason] for i, reason in enumerate(report.reasons))
    return render_table(["field", "value"], rows, fmt, title=title, before=before)


def budget_summary_lines(report: BudgetReport) -> list[Prose]:
    """Human-oriented one-liners accompanying the budget table."""
    return [
        ("one boom: {} kg; all booms: {} kg (~{} kg)",
         report.boom_mass, report.total_boom_mass, round(report.total_boom_mass)),
        ("body sensor budget: {} kg (~{} kg)",
         report.body_sensor_budget, round(report.body_sensor_budget, 1)),
        ("boom-tip sensor budget: {} kg", report.distal_sensor_budget),
        ("shoulder moment at {} kg tip mass: {} N*m vs allowable {} N*m",
         report.distal_sensor_mass, report.shoulder_moment, report.allowable_moment),
        *(("infeasible: {}", reason) for reason in report.reasons),
    ]


def coverage_table(
    report: CoverageReport,
    fmt: str,
    title: str | None = None,
    before: Iterable[Prose] = (),
    after: Iterable[Prose] = (),
) -> str:
    headers = ["Surface", "Visible", "Beyond Range", "Min Slant (m)", "Seen By"]
    rows = [
        [cov.surface, cov.visible, cov.beyond_range, cov.min_slant_m, ",".join(cov.seen_by) or None]
        for cov in report.surfaces.values()
    ]
    return render_table(headers, rows, fmt, title=title, before=before, after=after)


def stage_plan_lines(plan: StagePlan) -> list[Prose]:
    lines = [
        ("stage plan: far={} near={}", plan.far_sensor_id, plan.near_sensor_id),
        ("near-field boundary: {} m; far stage {}-{} m (credit-capped)",
         plan.near_field_max, plan.far_field_min, plan.far_field_max),
        ("switchover overlap: {} m", plan.overlap),
    ]
    if plan.valid:
        lines.append(("stage plan: valid",))
    elif plan.marginal:
        lines.append(("stage plan: marginal - blind band of {} m ({}-{} m)",
                      plan.blind_band, plan.near_field_max - plan.blind_band, plan.near_field_max))
    else:
        lines.append(("stage plan: invalid",))
    return lines


def selection_lines(
    suite: SuiteSolution, fmt: str, title: str | None = None, before: Iterable[Prose] = ()
) -> str:
    """Chosen suite plus the justification trace (margins, ties, warnings)."""
    rows = [
        ["body_sensors", ",".join(suite.body_sensors) or None],
        ["distal_sensors", ",".join(suite.distal_sensors) or None],
        ["body_mass_kg", suite.body_mass],
        ["distal_mass_kg", suite.distal_mass],
        ["total_price_usd", suite.total_price],
        ["aggregate_score", suite.aggregate_score],
    ]
    plan = suite.stage_plan
    status = "valid" if plan.valid else "marginal"  # a selected suite's plan is always usable
    rows.append(["stage_plan", status])
    rows.append(["stage_overlap_m", plan.overlap])
    if plan.blind_band > 0:
        rows.append(["stage_blind_band_m", plan.blind_band])
    rows += ([f"note_{i}", note] for i, note in enumerate(suite.notes))
    rows += ([f"warning_{i}", warning] for i, warning in enumerate(suite.warnings))
    return render_table(["field", "value"], rows, fmt, title=title, before=before)


def sensitivity_table(
    rows: list[SensitivityRow], criterion: CriterionName, fmt: str, title: str | None = None
) -> str:
    headers = ["Weight", "Body", "Distal", "Score", "Changed", "Notes"]
    table_rows = [
        [row.weight, ",".join(row.body_sensors) or None, ",".join(row.distal_sensors) or None,
         row.aggregate_score, row.changed, "; ".join(row.notes) or None]
        for row in rows
    ]
    return render_table(headers, table_rows, fmt, title=title)
