"""Render computed results as aligned text, CSV, or Markdown.

Emitters are layout-only: every number comes from an operation result and
is formatted exactly once by :func:`fmt_num`, so the three output formats
always carry identical numeric values.
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

__all__ = [
    "FORMATS",
    "fmt_num",
    "render_table",
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
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN guard; should not happen
        return "nan"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[str]], fmt: str, title: str | None = None
) -> str:
    """Render one table in the requested format."""
    rows = [list(map(str, r)) for r in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if title:
            buf.write(f"# {title}\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "md":
        lines = []
        if title:
            lines.append(f"## {title}")
            lines.append("")
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)
    if fmt == "table":
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if title:
            lines.append(f"== {title} ==")
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(line.rstrip() for line in lines)
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
    weight_row = (
        ["(weights)"]
        + [fmt_num(matrix.weights[c]) for c in matrix.criteria]
        + ["", "", ""]
    )
    rows = [weight_row]
    for sid in matrix.sensor_ids:
        failing = matrix.failing[sid]
        rows.append(
            [catalog.get(sid).name]
            + [fmt_num(matrix.scores[sid][c]) for c in matrix.criteria]
            + [
                fmt_num(matrix.weighted_sums[sid]),
                "no" if failing else "yes",
                ",".join(c.value for c in failing) or "-",
            ]
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
        exemplar = catalog.get(exemplar_id).name if exemplar_id else "-"
        words = {c.value: grade.word for c, grade in cells.items()}
        rows.append([modality.value, exemplar] + [words[c] for c in _CRITERION_LABELS])
    return render_table(headers, rows, fmt, title=title)


def budget_table(report: BudgetReport, fmt: str, title: str | None = None) -> str:
    """Machine-readable field/value rendering of a budget report."""
    rows = [
        ["boom_mass_kg", fmt_num(report.boom_mass)],
        ["total_boom_mass_kg", fmt_num(report.total_boom_mass)],
        ["body_sensor_budget_kg", fmt_num(report.body_sensor_budget)],
        ["distal_sensor_budget_kg", fmt_num(report.distal_sensor_budget)],
        ["body_sensor_mass_kg", fmt_num(report.body_sensor_mass)],
        ["distal_sensor_mass_kg", fmt_num(report.distal_sensor_mass)],
        ["shoulder_moment_nm", fmt_num(report.shoulder_moment)],
        ["allowable_moment_nm", fmt_num(report.allowable_moment)],
        ["pulloff_capacity_n", fmt_num(report.pulloff_capacity)],
        ["weight_on_grippers_n", fmt_num(report.weight_on_grippers)],
        ["body_margin_kg", fmt_num(report.body_margin)],
        ["distal_margin_kg", fmt_num(report.distal_margin)],
        ["pulloff_margin_n", fmt_num(report.pulloff_margin)],
        ["feasible", "yes" if report.feasible else "no"],
    ]
    for i, reason in enumerate(report.reasons):
        rows.append([f"reason_{i}", reason])
    return render_table(["field", "value"], rows, fmt, title=title)


def budget_summary_lines(report: BudgetReport) -> list[str]:
    """Human-oriented one-liners accompanying the budget table."""
    lines = [
        f"one boom: {fmt_num(report.boom_mass)} kg; all booms: "
        f"{fmt_num(report.total_boom_mass)} kg (~{fmt_num(round(report.total_boom_mass))} kg)",
        f"body sensor budget: {fmt_num(report.body_sensor_budget)} kg "
        f"(~{fmt_num(round(report.body_sensor_budget, 1))} kg)",
        f"boom-tip sensor budget: {fmt_num(report.distal_sensor_budget)} kg",
        f"shoulder moment at {fmt_num(report.distal_sensor_mass)} kg tip mass: "
        f"{fmt_num(report.shoulder_moment)} N*m vs allowable {fmt_num(report.allowable_moment)} N*m",
    ]
    if report.reasons:
        lines.extend(f"infeasible: {r}" for r in report.reasons)
    return lines


def coverage_table(report: CoverageReport, fmt: str, title: str | None = None) -> str:
    headers = ["Surface", "Visible", "Beyond Range", "Min Slant (m)", "Seen By"]
    rows = []
    for cov in report.surfaces.values():
        rows.append(
            [
                cov.surface,
                "yes" if cov.visible else "no",
                "yes" if cov.beyond_range else "no",
                fmt_num(cov.min_slant_m) if cov.min_slant_m is not None else "-",
                ",".join(cov.seen_by) or "-",
            ]
        )
    return render_table(headers, rows, fmt, title=title)


def stage_plan_lines(plan: StagePlan) -> list[str]:
    lines = [
        f"stage plan: far={plan.far_sensor_id} near={plan.near_sensor_id}",
        f"near-field boundary: {fmt_num(plan.near_field_max)} m; "
        f"far stage {fmt_num(plan.far_field_min)}-{fmt_num(plan.far_field_max)} m (credit-capped)",
        f"switchover overlap: {fmt_num(plan.overlap)} m",
    ]
    if plan.valid:
        lines.append("stage plan: valid")
    elif plan.marginal:
        lines.append(
            f"stage plan: marginal - blind band of {fmt_num(plan.blind_band)} m "
            f"({fmt_num(plan.near_field_max - plan.blind_band)}-{fmt_num(plan.near_field_max)} m)"
        )
    else:
        lines.append("stage plan: invalid")
    return lines


def selection_lines(suite: SuiteSolution, fmt: str, title: str | None = None) -> str:
    """Chosen suite plus the justification trace (margins, ties, warnings)."""
    rows = [
        ["body_sensors", ",".join(suite.body_sensors) or "-"],
        ["distal_sensors", ",".join(suite.distal_sensors) or "-"],
        ["body_mass_kg", fmt_num(suite.body_mass)],
        ["distal_mass_kg", fmt_num(suite.distal_mass)],
        ["total_price_usd", fmt_num(suite.total_price)],
        ["aggregate_score", fmt_num(suite.aggregate_score)],
    ]
    if suite.stage_plan is not None:
        plan = suite.stage_plan
        status = "valid" if plan.valid else ("marginal" if plan.marginal else "invalid")
        rows.append(["stage_plan", status])
        rows.append(["stage_overlap_m", fmt_num(plan.overlap)])
        if plan.blind_band > 0:
            rows.append(["stage_blind_band_m", fmt_num(plan.blind_band)])
    for i, note in enumerate(suite.notes):
        rows.append([f"note_{i}", note])
    for i, warning in enumerate(suite.warnings):
        rows.append([f"warning_{i}", warning])
    return render_table(["field", "value"], rows, fmt, title=title)


def sensitivity_table(
    rows: list[SensitivityRow], criterion: CriterionName, fmt: str, title: str | None = None
) -> str:
    headers = ["Weight", "Body", "Distal", "Score", "Changed", "Notes"]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                fmt_num(row.weight),
                ",".join(row.body_sensors) or "-",
                ",".join(row.distal_sensors) or "-",
                fmt_num(row.aggregate_score),
                "yes" if row.changed else "no",
                "; ".join(row.notes) or "-",
            ]
        )
    return render_table(headers, table_rows, fmt, title=title)
