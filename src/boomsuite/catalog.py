"""Sensor catalog and mission data model, with YAML loading/validation.

All quantities use fixed units, documented per field (meters, grams,
watts, degrees, USD).  There is no unit parsing: a value of ``mass: 830``
is 830 grams, full stop.  Optional spec fields load as absent (``None``),
never as zero, so downstream scoring can distinguish "unknown" from
"measured zero".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import ConfigError, ValidationError

__all__ = [
    "Modality",
    "Ordinal",
    "PixelGrid",
    "ScanPattern",
    "Accuracy",
    "FieldOfView",
    "SensorRecord",
    "MissionConfig",
    "Catalog",
    "load_catalog",
    "load_mission",
    "bundled_path",
]

_DATA_DIR = Path(__file__).parent / "data"


def bundled_path(name: str) -> Path:
    """Return the path of a bundled fixture file (e.g. ``paper_catalog.yaml``)."""
    p = _DATA_DIR / name
    if not p.exists():
        raise ConfigError(f"no bundled fixture named {name!r}")
    return p


class Modality(enum.Enum):
    LIDAR = "lidar"
    CAMERA2D = "camera2d"
    CAMERA3D = "camera3d"
    RADAR = "radar"
    SONAR = "sonar"
    THERMAL = "thermal"


class Ordinal(enum.IntEnum):
    """Three-grade ordinal scale used throughout the scoring rules."""

    LOW = 0
    MID = 1
    HIGH = 2

    @classmethod
    def from_word(cls, word: str) -> "Ordinal":
        try:
            return cls[word.upper()]
        except KeyError:
            raise ValueError(f"expected low/mid/high, got {word!r}") from None

    @property
    def word(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class PixelGrid:
    """Imager resolution as a pixel grid."""

    width_px: int
    height_px: int

    @property
    def megapixels(self) -> float:
        return self.width_px * self.height_px / 1e6


@dataclass(frozen=True)
class ScanPattern:
    """Scanner resolution as channels plus angular step sizes (degrees)."""

    channels: int
    horizontal_res_deg: float
    vertical_res_deg: float


@dataclass(frozen=True)
class Accuracy:
    """Ranging accuracy: percent error at nominal range, or absolute error.

    Exactly one of the two representations is set.
    """

    percent: float | None = None
    absolute_mm: float | None = None


@dataclass(frozen=True)
class FieldOfView:
    """Angular field of view in degrees.  Vertical/diagonal optional."""

    horizontal_deg: float
    vertical_deg: float | None = None
    diagonal_deg: float | None = None

    @property
    def max_deg(self) -> float:
        return max(v for v in (self.horizontal_deg, self.vertical_deg) if v is not None)


@dataclass(frozen=True)
class SensorRecord:
    """Raw physical specs of one candidate sensor.

    Units: range in meters, power in watts, mass in grams, dimensions in
    millimeters, price in USD, angles in degrees.
    """

    id: str
    name: str
    modality: Modality
    mass: float                         # grams
    price: float                        # USD
    resolution: PixelGrid | ScanPattern | None = None
    accuracy: Accuracy | None = None
    fov: FieldOfView | None = None
    range_min: float | None = None      # meters
    range_max: float | None = None      # meters
    power: float | None = None          # watts
    darkness_robust: Ordinal | None = None
    dust_robust: Ordinal | None = None
    implementation_ease: Ordinal | None = None
    dimensions: tuple[float, ...] | None = None   # mm, 2 or 3 values
    aliases: tuple[str, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("<sensor>", "id", "must be non-empty")
        if self.mass <= 0:
            raise ValidationError(self.id, "mass", "must be > 0 grams")
        if self.price < 0:
            raise ValidationError(self.id, "price", "must be >= 0 USD")
        if self.range_min is not None and self.range_min < 0:
            raise ValidationError(self.id, "range_min", "must be >= 0 m")
        if (
            self.range_min is not None
            and self.range_max is not None
            and not self.range_min < self.range_max
        ):
            raise ValidationError(
                self.id, "range_min", "must be strictly less than range_max"
            )
        if self.range_max is not None and self.range_max <= 0:
            raise ValidationError(self.id, "range_max", "must be > 0 m")
        if self.fov is not None:
            for label, deg in (
                ("horizontal_deg", self.fov.horizontal_deg),
                ("vertical_deg", self.fov.vertical_deg),
                ("diagonal_deg", self.fov.diagonal_deg),
            ):
                if deg is not None and not 0 < deg <= 360:
                    raise ValidationError(self.id, f"fov.{label}", "must be in (0, 360]")
        if isinstance(self.resolution, PixelGrid):
            if self.resolution.width_px <= 0 or self.resolution.height_px <= 0:
                raise ValidationError(self.id, "resolution", "pixel counts must be > 0")
        if isinstance(self.resolution, ScanPattern):
            if (
                self.resolution.horizontal_res_deg <= 0
                or self.resolution.vertical_res_deg <= 0
            ):
                raise ValidationError(self.id, "resolution", "angular steps must be > 0")
        if self.dimensions is not None and len(self.dimensions) not in (2, 3):
            raise ValidationError(self.id, "dimensions", "expected 2 or 3 mm values")

    @property
    def mass_kg(self) -> float:
        return self.mass / 1000.0

    def accuracy_percent(self) -> float | None:
        """Percent error at nominal range; absolute errors are converted
        against range_max.  None when not derivable."""
        if self.accuracy is None:
            return None
        if self.accuracy.percent is not None:
            return self.accuracy.percent
        if self.accuracy.absolute_mm is not None and self.range_max:
            return self.accuracy.absolute_mm / (self.range_max * 1000.0) * 100.0
        return None


@dataclass(frozen=True)
class MissionConfig:
    """Mission-level constants feeding the budget and geometry analyses.

    Units: lengths in meters, boom_linear_density in grams/meter,
    gravity in m/s^2, masses in kilograms, gripper_pulloff in newtons,
    critical_buckling_moment in newton-meters, fractions unitless.
    """

    boom_length: float
    boom_count: int
    boom_linear_density: float
    gravity: float
    gripper_mass: float
    gripper_pulloff: float
    critical_buckling_moment: float
    buckling_margin: float
    overall_mass_budget: float
    instrument_mass: float
    body_sensor_fraction: float
    tube_depth: float
    tube_width: float

    def __post_init__(self) -> None:
        positives = (
            "boom_length",
            "boom_count",
            "boom_linear_density",
            "gravity",
            "gripper_mass",
            "gripper_pulloff",
            "critical_buckling_moment",
            "overall_mass_budget",
            "instrument_mass",
            "tube_depth",
            "tube_width",
        )
        for name in positives:
            if getattr(self, name) <= 0:
                raise ValidationError("mission", name, "must be strictly positive")
        for name in ("buckling_margin", "body_sensor_fraction"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValidationError("mission", name, "must be a fraction in (0, 1)")


@dataclass(frozen=True)
class Catalog:
    """Ordered, immutable collection of sensors with unique ids."""

    sensors: tuple[SensorRecord, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.sensors:
            raise ValidationError("catalog", "sensors", "must be non-empty")
        index: dict[str, int] = {}
        for i, sensor in enumerate(self.sensors):
            if sensor.id in index:
                raise ValidationError(sensor.id, "id", "duplicate sensor id")
            index[sensor.id] = i
        object.__setattr__(self, "_index", index)

    def __iter__(self):
        return iter(self.sensors)

    def __len__(self) -> int:
        return len(self.sensors)

    def __contains__(self, sensor_id: str) -> bool:
        return sensor_id in self._index

    def get(self, sensor_id: str) -> SensorRecord:
        try:
            return self.sensors[self._index[sensor_id]]
        except KeyError:
            raise KeyError(f"no sensor with id {sensor_id!r}") from None

    def position(self, sensor_id: str) -> int:
        """Catalog index of a sensor; used for stable tie-breaking."""
        return self._index[sensor_id]

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.sensors)

    def modalities(self) -> tuple[Modality, ...]:
        """Distinct modalities, in first-appearance order."""
        seen: dict[Modality, None] = {}
        for s in self.sensors:
            seen.setdefault(s.modality, None)
        return tuple(seen)

    def subset(
        self,
        *,
        modalities: Iterable[Modality] | None = None,
        ids: Iterable[str] | None = None,
    ) -> "Catalog":
        """New catalog restricted to the given modalities and/or ids,
        preserving order.  Raises ValidationError if nothing remains."""
        keep_mod = set(modalities) if modalities is not None else None
        keep_ids = set(ids) if ids is not None else None
        picked = tuple(
            s
            for s in self.sensors
            if (keep_mod is None or s.modality in keep_mod)
            and (keep_ids is None or s.id in keep_ids)
        )
        return Catalog(picked)


# ---------------------------------------------------------------------------
# file parsing


def _read_yaml(path: str | Path) -> Any:
    """Parse one YAML input file; every loader in the package reads through
    here.  PyYAML is imported on first use, so importing the package does
    not load it.  Its libyaml-backed safe loader is used when PyYAML was
    built with it: same documents, several times faster than the
    pure-Python ``SafeLoader`` it falls back to."""
    import yaml

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=loader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


def _require(mapping: Mapping[str, Any], key: str, subject: str) -> Any:
    if key not in mapping or mapping[key] is None:
        raise ValidationError(subject, key, "required field is missing")
    return mapping[key]


def _mapping(value: Any, subject: str, field_name: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValidationError(subject, field_name, "expected a mapping")
    return value


def _list(value: Any, subject: str, field_name: str) -> list[Any]:
    """``value`` as a list; an absent (null) value reads as empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValidationError(subject, field_name, f"expected a list, got {value!r}")
    return value


def _number(value: Any, subject: str, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(subject, field_name, f"expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ValidationError(subject, field_name, "must be finite")
    return float(value)


def _text(value: Any, subject: str, field_name: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(subject, field_name, f"expected a string, got {value!r}")
    return value


def _boolean(value: Any, subject: str, field_name: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(subject, field_name, f"expected true or false, got {value!r}")
    return value


def _integer(value: Any, subject: str, field_name: str) -> int:
    number = _number(value, subject, field_name)
    if not number.is_integer():
        raise ValidationError(subject, field_name, f"expected an integer, got {value!r}")
    return int(number)


def _ordinal(value: Any, subject: str, field_name: str) -> Ordinal:
    if not isinstance(value, str):
        raise ValidationError(subject, field_name, f"expected low/mid/high, got {value!r}")
    try:
        return Ordinal.from_word(value)
    except ValueError as exc:
        raise ValidationError(subject, field_name, str(exc)) from None


def _parse_resolution(raw: Any, subject: str) -> PixelGrid | ScanPattern:
    raw = _mapping(raw, subject, "resolution")
    has_pixels = "pixels" in raw
    has_scan = "scan" in raw
    if has_pixels == has_scan:
        raise ValidationError(
            subject, "resolution", "exactly one of 'pixels' or 'scan' must be present"
        )
    if has_pixels:
        px = _mapping(raw["pixels"], subject, "resolution.pixels")
        return PixelGrid(
            width_px=_integer(_require(px, "width", subject), subject, "resolution.pixels.width"),
            height_px=_integer(_require(px, "height", subject), subject, "resolution.pixels.height"),
        )
    sc = _mapping(raw["scan"], subject, "resolution.scan")
    return ScanPattern(
        channels=_integer(_require(sc, "channels", subject), subject, "resolution.scan.channels"),
        horizontal_res_deg=_number(
            _require(sc, "horizontal_res_deg", subject), subject, "resolution.scan.horizontal_res_deg"
        ),
        vertical_res_deg=_number(
            _require(sc, "vertical_res_deg", subject), subject, "resolution.scan.vertical_res_deg"
        ),
    )


def _parse_sensor(raw: Any) -> SensorRecord:
    if not isinstance(raw, Mapping):
        raise ValidationError("<sensor>", "entry", "expected a mapping per sensor")
    sensor_id = _text(_require(raw, "id", "<sensor>"), "<sensor>", "id")
    try:
        modality = Modality(str(_require(raw, "modality", sensor_id)))
    except ValueError:
        allowed = ", ".join(m.value for m in Modality)
        raise ValidationError(sensor_id, "modality", f"must be one of: {allowed}") from None

    resolution = None
    if raw.get("resolution") is not None:
        resolution = _parse_resolution(raw["resolution"], sensor_id)

    accuracy = None
    if raw.get("accuracy") is not None:
        acc = raw["accuracy"]
        if not isinstance(acc, Mapping) or ("percent" in acc) == ("absolute_mm" in acc):
            raise ValidationError(
                sensor_id, "accuracy", "exactly one of 'percent' or 'absolute_mm' must be present"
            )
        if "percent" in acc:
            accuracy = Accuracy(percent=_number(acc["percent"], sensor_id, "accuracy.percent"))
        else:
            accuracy = Accuracy(absolute_mm=_number(acc["absolute_mm"], sensor_id, "accuracy.absolute_mm"))

    fov = None
    if raw.get("fov") is not None:
        f = _mapping(raw["fov"], sensor_id, "fov")
        fov = FieldOfView(
            horizontal_deg=_number(_require(f, "horizontal_deg", sensor_id), sensor_id, "fov.horizontal_deg"),
            vertical_deg=None if f.get("vertical_deg") is None else _number(f["vertical_deg"], sensor_id, "fov.vertical_deg"),
            diagonal_deg=None if f.get("diagonal_deg") is None else _number(f["diagonal_deg"], sensor_id, "fov.diagonal_deg"),
        )

    dimensions = None
    if raw.get("dimensions") is not None:
        dims = _list(raw["dimensions"], sensor_id, "dimensions")
        dimensions = tuple(_number(v, sensor_id, "dimensions") for v in dims)

    def opt_number(key: str) -> float | None:
        return None if raw.get(key) is None else _number(raw[key], sensor_id, key)

    def opt_ordinal(key: str) -> Ordinal | None:
        return None if raw.get(key) is None else _ordinal(raw[key], sensor_id, key)

    return SensorRecord(
        id=sensor_id,
        name=sensor_id if raw.get("name") is None else _text(raw["name"], sensor_id, "name"),
        modality=modality,
        mass=_number(_require(raw, "mass", sensor_id), sensor_id, "mass"),
        price=_number(_require(raw, "price", sensor_id), sensor_id, "price"),
        resolution=resolution,
        accuracy=accuracy,
        fov=fov,
        range_min=opt_number("range_min"),
        range_max=opt_number("range_max"),
        power=opt_number("power"),
        darkness_robust=opt_ordinal("darkness_robust"),
        dust_robust=opt_ordinal("dust_robust"),
        implementation_ease=opt_ordinal("implementation_ease"),
        dimensions=dimensions,
        aliases=tuple(
            _text(a, sensor_id, "aliases") for a in _list(raw.get("aliases"), sensor_id, "aliases")
        ),
        notes="" if raw.get("notes") is None else _text(raw["notes"], sensor_id, "notes"),
    )


def load_catalog(path: str | Path) -> Catalog:
    """Load and validate a sensor catalog file.

    Raises ConfigError on unreadable/unparseable files and
    ValidationError (naming sensor id and field) on invariant violations.
    """
    doc = _read_yaml(path)
    if not isinstance(doc, Mapping) or "sensors" not in doc:
        raise ValidationError("catalog", "sensors", "top-level 'sensors' list is required")
    raw_sensors = doc["sensors"]
    if not isinstance(raw_sensors, list) or not raw_sensors:
        raise ValidationError("catalog", "sensors", "must be a non-empty list")
    return Catalog(tuple(_parse_sensor(raw) for raw in raw_sensors))


def load_mission(path: str | Path) -> MissionConfig:
    """Load and validate a mission configuration file."""
    doc = _read_yaml(path)
    if not isinstance(doc, Mapping):
        raise ValidationError("mission", "file", "expected a mapping of mission fields")
    fields = {
        "boom_length": _number,
        "boom_count": _integer,
        "boom_linear_density": _number,
        "gravity": _number,
        "gripper_mass": _number,
        "gripper_pulloff": _number,
        "critical_buckling_moment": _number,
        "buckling_margin": _number,
        "overall_mass_budget": _number,
        "instrument_mass": _number,
        "body_sensor_fraction": _number,
        "tube_depth": _number,
        "tube_width": _number,
    }
    kwargs: dict[str, Any] = {
        name: reader(_require(doc, name, "mission"), "mission", name)
        for name, reader in fields.items()
    }
    return MissionConfig(**kwargs)
