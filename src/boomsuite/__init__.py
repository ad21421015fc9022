"""boomsuite: trade studies for perception sensor suites on boom-based climbers.

The library evaluates candidate sensors on an ordinal decision matrix,
budgets mass against a buckling-limited boom, analyzes two-stage sensing
geometry in a tube cross-section, and selects feasible body/boom-tip
suites under those constraints.  Loaded configuration objects are
immutable; every analysis is a pure function, safe to run in parallel.

The public names below are resolved on first access, so importing the
package, or one of its submodules, runs only the submodules that are
used (PEP 562).
"""

import importlib

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "budget": (
            "BudgetReport",
            "body_sensor_budget",
            "boom_mass",
            "budget_report",
            "max_distal_sensor_mass",
            "pulloff_capacity_check",
            "shoulder_moment",
        ),
        "catalog": (
            "Catalog",
            "MissionConfig",
            "Modality",
            "Ordinal",
            "SensorRecord",
            "bundled_path",
            "load_catalog",
            "load_mission",
        ),
        "errors": (
            "ConfigError",
            "EnumerationGuardError",
            "InfeasibleError",
            "NoFeasibleSuiteError",
            "ScoringError",
            "TradeStudyError",
            "ValidationError",
        ),
        "geometry": (
            "CoverageReport",
            "Footprint",
            "Mount",
            "StagePlan",
            "Strategy",
            "TubeSection",
            "effective_vertical_fov",
            "feature_resolvable",
            "footprint_at_range",
            "near_field_threshold",
            "section_coverage",
            "stage_plan",
            "strategy_recommend",
        ),
        "mounts": ("MountSpec", "load_mounts"),
        "scoring": (
            "BinRule",
            "Criterion",
            "CriterionKind",
            "CriterionName",
            "DecisionMatrix",
            "ScoringProfile",
            "Stage",
            "load_profile",
            "modality_table",
            "score_matrix",
        ),
        "selector": (
            "Placement",
            "PlacementRule",
            "SensitivityRow",
            "SuiteSolution",
            "enumerate_suites",
            "paper_rules",
            "select_best",
            "sensitivity_report",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule defining a public name on first access and
    keep the value, so later lookups are plain attribute reads."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
