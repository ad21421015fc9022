"""Ordinal scoring of sensors and weighted decision matrices.

Raw specs are binned onto the {0, 1, 2} = {Low, Mid, High} scale by
per-criterion cutoff rules; cells the rules cannot reach (absent vendor
data, judgment calls) are filled from explicit override tables carried by
the scoring profile, keeping the numeric rules auditable.  Weighted sums
are exact integer arithmetic; no normalization, no rounding.

All operations are pure functions of immutable inputs and are safe to
evaluate in parallel; results never depend on evaluation order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from .catalog import (
    Catalog, Modality, Ordinal, PixelGrid, SensorRecord,
    _Table, _boolean, _enum, _integer, _list, _mapping, _modality, _number, _read, _read_yaml, _record, _text,
)
from .errors import ScoringError, ValidationError

__all__ = [
    "CriterionName",
    "CriterionKind",
    "BinRule",
    "Criterion",
    "ScoringProfile",
    "Stage",
    "DecisionMatrix",
    "score_matrix",
    "modality_table",
    "load_profile",
]


class CriterionName(enum.Enum):
    RESOLUTION = "resolution"
    ACCURACY = "accuracy"
    FOV = "fov"
    RANGE = "range"
    DARKNESS = "darkness"
    DUST = "dust"
    POWER = "power"
    IMPLEMENTATION_EASE = "implementation_ease"
    LIGHTNESS = "lightness"
    AFFORDABILITY = "affordability"


class CriterionKind(enum.Enum):
    REQUIREMENT = "requirement"
    OBJECTIVE = "objective"
    BOTH = "both"

    @property
    def gates(self) -> bool:
        return self is not CriterionKind.OBJECTIVE


# Numeric quantities a bin rule may read off a sensor record.
_QUANTITIES = {
    "resolution_mp": lambda s: s.resolution.megapixels if isinstance(s.resolution, PixelGrid) else None,
    "accuracy_pct": lambda s: s.accuracy_percent(),
    "fov_max_deg": lambda s: s.fov.max_deg if s.fov is not None else None,
    "range_max_m": lambda s: s.range_max,
    "range_min_m": lambda s: s.range_min,
    "power_w": lambda s: s.power,
    "mass_g": lambda s: s.mass,
    "price_usd": lambda s: s.price,
}

# Ordinal sensor fields a passthrough rule may read.
_ORDINAL_FIELDS = ("darkness_robust", "dust_robust", "implementation_ease")


@dataclass(frozen=True)
class BinRule:
    """Maps one raw quantity to an ordinal score.

    Numeric form: scores 2 in the high region, 0 in the low region and 1
    everywhere between.  The high region is above ``high`` and the low
    region below ``low``; a lower-is-better rule is the higher-is-better
    rule applied to the negated quantity and the negated cutoffs, so its
    high region lies below ``high`` and its low region above ``low``.
    ``*_inclusive`` controls whether the cutoff itself belongs to its
    region.  Either cutoff may be omitted, leaving that region empty.

    Passthrough form (``ordinal_field`` set): copies an already-ordinal
    sensor field.
    """

    quantity: str | None = None
    higher_is_better: bool = True
    high: float | None = None
    high_inclusive: bool = True
    low: float | None = None
    low_inclusive: bool = True
    ordinal_field: str | None = None

    def __post_init__(self) -> None:
        if (self.quantity is None) == (self.ordinal_field is None):
            raise ValidationError(
                "bin", "quantity", "exactly one of quantity/ordinal_field must be set"
            )
        if self.quantity is not None and self.quantity not in _QUANTITIES:
            allowed = ", ".join(sorted(_QUANTITIES))
            raise ValidationError("bin", "quantity", f"unknown quantity; expected one of: {allowed}")
        if self.ordinal_field is not None and self.ordinal_field not in _ORDINAL_FIELDS:
            allowed = ", ".join(_ORDINAL_FIELDS)
            raise ValidationError("bin", "ordinal_field", f"expected one of: {allowed}")
        if self.high is not None and self.low is not None:
            # regions must not overlap: every value lands in exactly one bin
            if self.higher_is_better and not self.high > self.low:
                raise ValidationError("bin", "high", "high cutoff must exceed low cutoff")
            if not self.higher_is_better and not self.low > self.high:
                raise ValidationError("bin", "low", "low cutoff must exceed high cutoff")

    def apply(self, sensor: SensorRecord) -> int | None:
        """Ordinal score for this sensor, or None when the field is absent."""
        if self.ordinal_field is not None:
            value = getattr(sensor, self.ordinal_field)
            return None if value is None else int(value)
        x = _QUANTITIES[self.quantity](sensor)  # type: ignore[index]
        if x is None:
            return None
        high, low = self.high, self.low
        if not self.higher_is_better:  # negation is exact, so this is the same rule
            x, high, low = -x, None if high is None else -high, None if low is None else -low
        if high is not None and (x >= high if self.high_inclusive else x > high):
            return 2
        if low is not None and (x <= low if self.low_inclusive else x < low):
            return 0
        return 1


@dataclass(frozen=True)
class Criterion:
    """One evaluation axis: how to bin it, whether it gates, and its weight."""

    name: CriterionName
    kind: CriterionKind
    weight: int
    bins: BinRule

    def __post_init__(self) -> None:
        if not isinstance(self.weight, int) or isinstance(self.weight, bool) or self.weight < 0:
            raise ValidationError(self.name.value, "weight", "must be a non-negative integer")


class Stage(enum.Enum):
    FAR_FIELD = "far_field"
    NEAR_FIELD = "near_field"
    MODALITY_OVERVIEW = "modality_overview"


@dataclass(frozen=True)
class ScoringProfile:
    """A full criteria set for one sensing stage, plus override scores.

    ``overrides`` maps sensor id -> criterion name -> ordinal, recording
    judgment-based scores and filling cells where vendor data is absent.
    ``modalities`` names the sensor families the profile is meant to
    evaluate, None for all (callers pick the pool with ``Catalog.subset``;
    score_matrix itself scores whatever it is handed).  ``exemplars``
    maps modality -> sensor id for the modality-overview table.
    """

    stage: Stage
    criteria: tuple[Criterion, ...]
    overrides: Mapping[str, Mapping[CriterionName, int]] = field(default_factory=dict)
    modalities: tuple[Modality, ...] | None = None
    exemplars: Mapping[Modality, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [c.name for c in self.criteria]
        if len(set(names)) != len(names) or set(names) != set(CriterionName):
            raise ValidationError(
                self.stage.value, "criteria", "all ten criteria must appear exactly once"
            )
        for sensor_id, cells in self.overrides.items():
            for crit, value in cells.items():
                if type(value) is not int or value not in (0, 1, 2):  # True and 1.0 too
                    raise ValidationError(sensor_id, crit.value, "override must be 0, 1 or 2")

    def with_weight(self, name: CriterionName, weight: int) -> "ScoringProfile":
        """Copy of this profile with one criterion's weight replaced."""
        criteria = tuple(
            replace(c, weight=weight) if c.name is name else c for c in self.criteria
        )
        return replace(self, criteria=criteria)


@dataclass(frozen=True)
class DecisionMatrix:
    """Ordinal scores, weighted sums and gate results.

    ``weights`` and each row of ``scores`` are in profile order, and
    ``scores`` holds one row per sensor, in catalog order.
    ``failing[sid]`` names the gating criteria the sensor scores 0 on, in
    profile order; it is eligible exactly when that is empty.
    """

    weights: Mapping[CriterionName, int]
    scores: Mapping[str, Mapping[CriterionName, int]]
    weighted_sums: Mapping[str, int]
    failing: Mapping[str, tuple[CriterionName, ...]]

    @property
    def ranking(self) -> tuple[str, ...]:
        """Ids by weighted sum descending, ties broken by catalog order."""
        return tuple(sorted(self.weighted_sums, key=lambda sid: -self.weighted_sums[sid]))  # a stable sort


# A function of its own because bench/spans.py traces it by name.
def gate_requirements(profile: ScoringProfile) -> tuple[CriterionName, ...]:
    """The gating criteria (kind requirement or both), in profile order."""
    return tuple(c.name for c in profile.criteria if c.kind.gates)


def score_matrix(catalog: Catalog, profile: ScoringProfile) -> DecisionMatrix:
    """Score and gate every sensor in ``catalog`` against ``profile``.

    The profile's override cells take precedence over binned values;
    cells that remain unresolved raise ScoringError listing the
    sensor/criterion pairs.  A score of 0 on any gating criterion fails
    the sensor's gate; its scores and rank are kept.
    """
    scores: dict[str, dict[CriterionName, int]] = {}
    for sensor in catalog:
        cells = profile.overrides.get(sensor.id, {})
        row = scores[sensor.id] = {}
        for criterion in profile.criteria:
            value = cells.get(criterion.name)
            row[criterion.name] = criterion.bins.apply(sensor) if value is None else value
    unresolved = [
        (sid, name.value) for sid, row in scores.items() for name, cell in row.items() if cell is None
    ]
    if unresolved:
        raise ScoringError(unresolved)

    gating = gate_requirements(profile)
    weights = {c.name: c.weight for c in profile.criteria}
    sums = {sid: sum(row[name] * w for name, w in weights.items()) for sid, row in scores.items()}
    failing = {sid: tuple(name for name in gating if row[name] == 0) for sid, row in scores.items()}
    return DecisionMatrix(weights=weights, scores=scores, weighted_sums=sums, failing=failing)


def modality_table(
    catalog: Catalog, profile: ScoringProfile
) -> dict[Modality, tuple[SensorRecord, dict[CriterionName, Ordinal]]]:
    """Per-modality ordinal summary: for each modality in the catalog, the
    exemplar sensor that stands for it and that sensor's grades.

    The exemplar is the one the profile names for the modality, else the
    first catalog sensor of that modality.  A named exemplar missing from
    the catalog, or of another modality, is an error.
    """
    table: dict[Modality, tuple[SensorRecord, dict[CriterionName, Ordinal]]] = {}
    for modality in catalog.modalities():
        exemplar_id = profile.exemplars.get(modality)
        key = f"exemplars.{modality.value}"
        if exemplar_id is None:
            exemplar = next(s for s in catalog if s.modality is modality)
        elif exemplar_id not in catalog:
            raise ValidationError(profile.stage.value, key, f"sensor {exemplar_id!r} not in catalog")
        else:
            exemplar = catalog.get(exemplar_id)
        if exemplar.modality is not modality:
            kind = f"is a {exemplar.modality.value}, not a {modality.value}"
            raise ValidationError(profile.stage.value, key, f"sensor {exemplar_id!r} {kind}")
        row_matrix = score_matrix(Catalog((exemplar,)), profile)
        grades = {name: Ordinal(score) for name, score in row_matrix.scores[exemplar.id].items()}
        table[modality] = exemplar, grades
    return table


# ---------------------------------------------------------------------------
# profile file parsing


def _criterion(value: Any, subject: str, field_name: str) -> Criterion:
    """A criteria entry, named by its criterion; its kind defaults to objective."""
    values = _read(value, _CRITERION, subject, field_name)
    kind = values.get("kind", CriterionKind.OBJECTIVE)
    return Criterion(values["name"], kind, values["weight"], values["bin"])


def _overrides(value: Any, subject: str, field_name: str) -> dict[str, dict[CriterionName, Any]]:
    """sensor id -> criterion -> score; ScoringProfile checks the scores."""
    return {
        _text(sensor_id, subject, field_name): {
            _criterion_name(name, sensor_id, field_name): score
            for name, score in _mapping(cells, sensor_id, field_name).items()
        }
        for sensor_id, cells in _mapping(value, subject, field_name).items()
    }


def _exemplars(value: Any, subject: str, field_name: str) -> dict[Modality, str]:
    """modality -> the sensor id that stands for it."""
    return {
        _modality(name, subject, field_name): _text(sensor_id, subject, field_name)
        for name, sensor_id in _mapping(value, subject, field_name).items()
    }


_criterion_name = _enum(CriterionName)
_CRITERION = _Table({
    "name": _criterion_name,
    "kind": _enum(CriterionKind),
    "weight": _integer,  # Criterion checks that it is not negative
    "bin": _record(BinRule, _Table({
        "quantity": _text, "higher_is_better": _boolean, "high": _number, "high_inclusive": _boolean,
        "low": _number, "low_inclusive": _boolean, "ordinal_field": _text,
    })),
}, required=("name", "weight", "bin"), names="name")
_PROFILE = _Table(
    {"stage": _enum(Stage), "criteria": _list(_criterion), "overrides": _overrides,
     "modalities": _list(_modality), "exemplars": _exemplars},
    required=("stage", "criteria"), names="stage",
)


def load_profile(path: str | Path) -> ScoringProfile:
    """Load a scoring profile file (criteria, weights, bins, overrides)."""
    return ScoringProfile(**_read(_read_yaml(path), _PROFILE, "profile"))
