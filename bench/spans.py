"""Span recorder for the traced run.

Spans are recorded from outside the program, by swapping wrappers in for
the public functions of each layer.  A function is swapped wherever a
module holds it, so the names importing modules bound at import time
(``boomsuite.selector.stage_plan``, ``boomsuite.cli.load_profile``) are
traced too.  Each span keeps its name, start, end, parent span and
operation id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

# (module, function) -> span name.  yaml.load is the third-party boundary:
# yaml.safe_load looks it up at call time.
TARGETS = {
    ("boomsuite.cli", "main"): "cli.main",
    ("yaml", "load"): "yaml.load",
    ("boomsuite.catalog", "load_catalog"): "catalog.load_catalog",
    ("boomsuite.catalog", "load_mission"): "catalog.load_mission",
    ("boomsuite.mounts", "load_mounts"): "mounts.load_mounts",
    ("boomsuite.scoring", "load_profile"): "scoring.load_profile",
    ("boomsuite.scoring", "score_matrix"): "scoring.score_matrix",
    ("boomsuite.scoring", "gate_requirements"): "scoring.gate_requirements",
    ("boomsuite.selector", "select_best"): "selector.select_best",
    ("boomsuite.selector", "sensitivity_report"): "selector.sensitivity_report",
    ("boomsuite.geometry", "stage_plan"): "geometry.stage_plan",
    ("boomsuite.geometry", "section_coverage"): "geometry.section_coverage",
    ("boomsuite.budget", "budget_report"): "budget.budget_report",
}
# The public render functions; render_table and fmt_num are helpers they
# call, so their time is reporting self time.
for _name in (
    "decision_matrix_table", "modality_overview_table", "budget_table",
    "budget_summary_lines", "coverage_table", "stage_plan_lines",
    "selection_lines", "sensitivity_table",
):
    TARGETS[("boomsuite.reporting", _name)] = "reporting"

STAGE_PLAN = "geometry.stage_plan"


class Recorder:
    """Spans as parallel lists; index i is span i."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        # per operation: distinct (far id, near id, boom length) keys, rejects
        self.plan_keys: dict[int, set] = {}
        self.plan_rejects = 0
        self._sites: list[tuple[object, str, object, object]] = []

    def _wrap(self, label: str, fn):
        name_id = len(self.names)
        self.names.append(label)
        now = time.perf_counter_ns
        is_plan = label == STAGE_PLAN

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = now()
                self.stack.pop()
            if is_plan:
                far, near, boom = args
                self.plan_keys.setdefault(self.op_id, set()).add((far.id, near.id, boom))
                if not (result.valid or result.marginal):
                    self.plan_rejects += 1
            return result

        return wrapper

    def prepare(self) -> None:
        """Find every module attribute that holds a target function."""
        labels = {}
        originals = {}
        for (module, attr), label in TARGETS.items():
            fn = getattr(importlib.import_module(module), attr)
            originals[id(fn)] = fn
            labels[id(fn)] = label
        wrappers = {key: self._wrap(labels[key], fn) for key, fn in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "yaml" or mod_name.split(".")[0] == "boomsuite"):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)]:
                    self._sites.append((module, attr, value, wrappers[id(value)]))

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Trace one operation: wrappers are in place only inside."""
        self.op_id = op_id
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "name": self.name, "parent": self.parent,
                 "op": self.op, "start_ns": self.start, "end_ns": self.end},
                fh,
            )


def self_times(start: list[int], end: list[int], parent: list[int]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0
        cursor = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            s, e = max(start[c], cursor), min(end[c], hi)
            if e > s:
                covered += e - s
                cursor = e
        out.append(hi - lo - covered)
    return out


def layer_totals(rec: Recorder) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self nanoseconds per span name."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    totals = {label: {"calls": 0, "ns": 0, "self_ns": 0} for label in rec.names}
    for i, name_id in enumerate(rec.name):
        row = totals[rec.names[name_id]]
        row["calls"] += 1
        row["ns"] += rec.end[i] - rec.start[i]
        row["self_ns"] += selfs[i]
    return totals
