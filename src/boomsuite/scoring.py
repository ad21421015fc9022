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
from typing import Any, Iterable, Mapping

from .catalog import (
    Catalog, Modality, Ordinal, PixelGrid, SensorRecord, _boolean, _list, _mapping, _number, _read_yaml,
)
from .errors import ScoringError, ValidationError

__all__ = [
    "CriterionName",
    "CriterionKind",
    "BinRule",
    "Criterion",
    "ScoringProfile",
    "DecisionMatrix",
    "Eligibility",
    "bin_score",
    "score_matrix",
    "gate_requirements",
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
    evaluate (used by callers to pre-filter catalogs; score_matrix itself
    scores whatever it is handed).  ``exemplars`` maps modality ->
    sensor id for the modality-overview table.
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
                if value not in (0, 1, 2):
                    raise ValidationError(sensor_id, crit.value, "override must be 0, 1 or 2")

    def criterion(self, name: CriterionName) -> Criterion:
        for c in self.criteria:
            if c.name is name:
                return c
        raise KeyError(name)

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

    def scaled(self, k: int) -> "ScoringProfile":
        """Copy with every weight multiplied by a positive integer k."""
        if k <= 0:
            raise ValueError("scale factor must be a positive integer")
        return replace(self, criteria=tuple(replace(c, weight=c.weight * k) for c in self.criteria))


@dataclass(frozen=True)
class Eligibility:
    eligible: bool
    failing: tuple[CriterionName, ...] = ()


@dataclass(frozen=True)
class DecisionMatrix:
    """Ordinal scores, weighted sums and ranking for a set of sensors.

    ``ranking`` sorts ids by weighted sum descending, ties broken by
    catalog order.  ``eligibility`` is filled by gate_requirements; until
    then every sensor is marked eligible with no failing criteria.
    """

    stage: Stage
    sensor_ids: tuple[str, ...]
    criteria: tuple[CriterionName, ...]
    weights: Mapping[CriterionName, int]
    scores: Mapping[str, Mapping[CriterionName, int]]
    weighted_sums: Mapping[str, int]
    ranking: tuple[str, ...]
    eligibility: Mapping[str, Eligibility]

    def score(self, sensor_id: str, criterion: CriterionName) -> int:
        return self.scores[sensor_id][criterion]


def bin_score(sensor: SensorRecord, criterion: Criterion) -> int | None:
    """Deterministic ordinal score, or None (absent) when the underlying
    spec field is missing.  Absence is a value, not an error."""
    return criterion.bins.apply(sensor)


def score_matrix(
    catalog: Catalog,
    profile: ScoringProfile,
    overrides: Mapping[str, Mapping[CriterionName, int]] | None = None,
) -> DecisionMatrix:
    """Score every sensor in ``catalog`` against ``profile``.

    Overrides (explicit argument first, then the profile's own table)
    take precedence over binned values; cells that remain unresolved
    raise ScoringError listing the sensor/criterion pairs.
    """
    extra = overrides or {}
    unresolved: list[tuple[str, str]] = []
    scores: dict[str, dict[CriterionName, int]] = {}
    sums: dict[str, int] = {}
    for sensor in catalog:
        row: dict[CriterionName, int] = {}
        for criterion in profile.criteria:
            value = extra.get(sensor.id, {}).get(criterion.name)
            if value is None:
                value = profile.override_for(sensor.id, criterion.name)
            if value is None:
                value = bin_score(sensor, criterion)
            if value is None:
                unresolved.append((sensor.id, criterion.name.value))
                continue
            if value not in (0, 1, 2):
                raise ValidationError(sensor.id, criterion.name.value, "override must be 0, 1 or 2")
            row[criterion.name] = value
        scores[sensor.id] = row
        sums[sensor.id] = sum(row[c.name] * c.weight for c in profile.criteria if c.name in row)
    if unresolved:
        raise ScoringError(unresolved)

    ranking = tuple(
        sorted(catalog.ids(), key=lambda sid: (-sums[sid], catalog.position(sid)))
    )
    return DecisionMatrix(
        stage=profile.stage,
        sensor_ids=catalog.ids(),
        criteria=tuple(c.name for c in profile.criteria),
        weights={c.name: c.weight for c in profile.criteria},
        scores=scores,
        weighted_sums=sums,
        ranking=ranking,
        eligibility={sid: Eligibility(eligible=True) for sid in catalog.ids()},
    )


def gate_requirements(matrix: DecisionMatrix, profile: ScoringProfile) -> DecisionMatrix:
    """Apply requirement gating: a score of 0 on any gating criterion
    (kind requirement or both) flags the sensor ineligible.  Scores and
    ranking are retained; only the eligibility flags change."""
    gating = tuple(c.name for c in profile.criteria if c.kind.gates)
    eligibility: dict[str, Eligibility] = {}
    for sid in matrix.sensor_ids:
        failing = tuple(name for name in gating if matrix.scores[sid][name] == 0)
        eligibility[sid] = Eligibility(eligible=not failing, failing=failing)
    return replace(matrix, eligibility=eligibility)


def modality_table(
    catalog: Catalog,
    profile: ScoringProfile,
    modalities: Iterable[Modality] | None = None,
) -> dict[Modality, dict[CriterionName, Ordinal]]:
    """Per-modality ordinal summary: one exemplar device per modality.

    Exemplars come from the profile's exemplar map, falling back to the
    first catalog sensor of that modality.  Requesting a modality with no
    exemplar in the catalog is an error.
    """
    wanted = tuple(modalities) if modalities is not None else catalog.modalities()
    table: dict[Modality, dict[CriterionName, Ordinal]] = {}
    for modality in wanted:
        exemplar_id = profile.exemplars.get(modality)
        if exemplar_id is not None:
            if exemplar_id not in catalog:
                raise ValidationError(modality.value, "exemplar", f"sensor {exemplar_id!r} not in catalog")
            exemplar = catalog.get(exemplar_id)
        else:
            candidates = [s for s in catalog if s.modality is modality]
            if not candidates:
                raise ValidationError(modality.value, "exemplar", "no sensor of this modality in catalog")
            exemplar = candidates[0]
        row_matrix = score_matrix(Catalog((exemplar,)), profile)
        table[modality] = {
            name: Ordinal(row_matrix.scores[exemplar.id][name]) for name in row_matrix.criteria
        }
    return table


# ---------------------------------------------------------------------------
# profile file parsing


def _parse_bin(raw: Any, subject: str) -> BinRule:
    raw = _mapping(raw, subject, "bin")
    if "ordinal_field" in raw:
        return BinRule(ordinal_field=str(raw["ordinal_field"]))
    kwargs: dict[str, Any] = {"quantity": str(raw.get("quantity", ""))}
    for key in ("high", "low"):
        if raw.get(key) is not None:
            kwargs[key] = _number(raw[key], subject, f"bin.{key}")
    for key in ("higher_is_better", "high_inclusive", "low_inclusive"):
        if key in raw:
            kwargs[key] = _boolean(raw[key], subject, f"bin.{key}")
    return BinRule(**kwargs)


def load_profile(path: str | Path) -> ScoringProfile:
    """Load a scoring profile file (criteria, weights, bins, overrides)."""
    doc = _mapping(_read_yaml(path), "profile", "file")

    try:
        stage = Stage(str(doc.get("stage")))
    except ValueError:
        allowed = ", ".join(s.value for s in Stage)
        raise ValidationError("profile", "stage", f"must be one of: {allowed}") from None

    raw_criteria = doc.get("criteria")
    if not isinstance(raw_criteria, list):
        raise ValidationError(stage.value, "criteria", "expected a list")
    criteria = []
    for raw in raw_criteria:
        raw = _mapping(raw, stage.value, "criteria")
        try:
            name = CriterionName(str(raw.get("name")))
        except ValueError:
            allowed = ", ".join(c.value for c in CriterionName)
            raise ValidationError(stage.value, "criteria.name", f"must be one of: {allowed}") from None
        try:
            kind = CriterionKind(str(raw.get("kind", "objective")))
        except ValueError:
            raise ValidationError(name.value, "kind", "must be requirement/objective/both") from None
        weight = raw.get("weight")
        if isinstance(weight, bool) or not isinstance(weight, int):
            raise ValidationError(name.value, "weight", "must be a non-negative integer")
        criteria.append(Criterion(name=name, kind=kind, weight=weight, bins=_parse_bin(raw.get("bin"), name.value)))

    overrides: dict[str, dict[CriterionName, int]] = {}
    for sensor_id, cells in _mapping(doc.get("overrides") or {}, stage.value, "overrides").items():
        if not isinstance(cells, Mapping):
            raise ValidationError(str(sensor_id), "overrides", "expected criterion->score mapping")
        parsed: dict[CriterionName, int] = {}
        for crit_name, value in cells.items():
            try:
                crit = CriterionName(str(crit_name))
            except ValueError:
                raise ValidationError(str(sensor_id), str(crit_name), "unknown criterion") from None
            if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1, 2):
                raise ValidationError(str(sensor_id), crit.value, "override must be 0, 1 or 2")
            parsed[crit] = value
        overrides[str(sensor_id)] = parsed

    modalities = None
    if doc.get("modalities") is not None:
        modalities = tuple(Modality(str(m)) for m in _list(doc["modalities"], stage.value, "modalities"))

    exemplars: dict[Modality, str] = {}
    for mod_name, sensor_id in _mapping(doc.get("exemplars") or {}, stage.value, "exemplars").items():
        exemplars[Modality(str(mod_name))] = str(sensor_id)

    return ScoringProfile(
        stage=stage,
        criteria=tuple(criteria),
        overrides=overrides,
        modalities=modalities,
        exemplars=exemplars,
    )
