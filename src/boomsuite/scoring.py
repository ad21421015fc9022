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
    _Table, _boolean, _enum, _list, _mapping, _modality, _number, _read, _read_yaml, _record, _text,
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
    everywhere between.  For ``higher_is_better`` rules the high region is
    above ``high`` and the low region below ``low``; directions flip for
    lower-is-better.  ``*_inclusive`` controls whether the cutoff itself
    belongs to its region.  Either cutoff may be omitted, leaving that
    region empty.

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
        if self.higher_is_better:
            if self.high is not None and (x >= self.high if self.high_inclusive else x > self.high):
                return 2
            if self.low is not None and (x <= self.low if self.low_inclusive else x < self.low):
                return 0
        else:
            if self.high is not None and (x <= self.high if self.high_inclusive else x < self.high):
                return 2
            if self.low is not None and (x >= self.low if self.low_inclusive else x > self.low):
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

    def override_for(self, sensor_id: str, name: CriterionName) -> int | None:
        cells = self.overrides.get(sensor_id)
        if cells is None:
            return None
        return cells.get(name)

    def with_weight(self, name: CriterionName, weight: int) -> "ScoringProfile":
        """Copy of this profile with one criterion's weight replaced."""
        criteria = tuple(
            replace(c, weight=weight) if c.name is name else c for c in self.criteria
        )
        return replace(self, criteria=criteria)


@dataclass(frozen=True)
class DecisionMatrix:
    """Ordinal scores, weighted sums, ranking and gate results.

    ``ranking`` sorts ids by weighted sum descending, ties broken by
    catalog order.  ``failing[sid]`` names the gating criteria the sensor
    scores 0 on, in profile order; it is eligible exactly when that is empty.
    """

    sensor_ids: tuple[str, ...]
    criteria: tuple[CriterionName, ...]
    weights: Mapping[CriterionName, int]
    scores: Mapping[str, Mapping[CriterionName, int]]
    weighted_sums: Mapping[str, int]
    ranking: tuple[str, ...]
    failing: Mapping[str, tuple[CriterionName, ...]]

    def score(self, sensor_id: str, criterion: CriterionName) -> int:
        return self.scores[sensor_id][criterion]


# A function of its own because bench/spans.py traces it by name.
def gate_requirements(profile: ScoringProfile) -> tuple[CriterionName, ...]:
    """The gating criteria (kind requirement or both), in profile order."""
    return tuple(c.name for c in profile.criteria if c.kind.gates)


def score_matrix(
    catalog: Catalog,
    profile: ScoringProfile,
    overrides: Mapping[str, Mapping[CriterionName, int]] | None = None,
) -> DecisionMatrix:
    """Score and gate every sensor in ``catalog`` against ``profile``.

    Overrides (explicit argument first, then the profile's own table)
    take precedence over binned values; cells that remain unresolved
    raise ScoringError listing the sensor/criterion pairs.  A score of 0
    on any gating criterion fails the sensor's gate; its scores and rank
    are kept.
    """
    gating = gate_requirements(profile)
    extra = overrides or {}
    unresolved: list[tuple[str, str]] = []
    scores: dict[str, dict[CriterionName, int]] = {}
    sums: dict[str, int] = {}
    failing: dict[str, tuple[CriterionName, ...]] = {}
    for sensor in catalog:
        row: dict[CriterionName, int] = {}
        for criterion in profile.criteria:
            value = extra.get(sensor.id, {}).get(criterion.name)
            if value is None:
                value = profile.override_for(sensor.id, criterion.name)
            if value is None:
                value = criterion.bins.apply(sensor)
            if value is None:
                unresolved.append((sensor.id, criterion.name.value))
                continue
            if value not in (0, 1, 2):
                raise ValidationError(sensor.id, criterion.name.value, "override must be 0, 1 or 2")
            row[criterion.name] = value
        scores[sensor.id] = row
        sums[sensor.id] = sum(row[c.name] * c.weight for c in profile.criteria if c.name in row)
        failing[sensor.id] = tuple(name for name in gating if row.get(name) == 0)
    if unresolved:
        raise ScoringError(unresolved)

    ids = catalog.ids()
    return DecisionMatrix(
        sensor_ids=ids,
        criteria=tuple(c.name for c in profile.criteria),
        weights={c.name: c.weight for c in profile.criteria},
        scores=scores,
        weighted_sums=sums,
        ranking=tuple(sorted(ids, key=lambda sid: -sums[sid])),  # a stable sort: ties keep catalog order
        failing=failing,
    )


def modality_table(catalog: Catalog, profile: ScoringProfile) -> dict[Modality, dict[CriterionName, Ordinal]]:
    """Per-modality ordinal summary: one exemplar device for each modality
    in the catalog.

    Exemplars come from the profile's exemplar map, falling back to the
    first catalog sensor of that modality.  An exemplar id missing from
    the catalog is an error.
    """
    table: dict[Modality, dict[CriterionName, Ordinal]] = {}
    for modality in catalog.modalities():
        exemplar_id = profile.exemplars.get(modality)
        if exemplar_id is not None:
            if exemplar_id not in catalog:
                raise ValidationError(modality.value, "exemplar", f"sensor {exemplar_id!r} not in catalog")
            exemplar = catalog.get(exemplar_id)
        else:
            exemplar = next(s for s in catalog if s.modality is modality)
        row_matrix = score_matrix(Catalog((exemplar,)), profile)
        table[modality] = {
            name: Ordinal(row_matrix.scores[exemplar.id][name]) for name in row_matrix.criteria
        }
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
    "weight": lambda value, subject, field_name: value,  # Criterion checks it
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
