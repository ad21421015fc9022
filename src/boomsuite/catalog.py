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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, TypeVar

from .errors import ConfigError, ValidationError, fields_of

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

    def __post_init__(self) -> None:
        if (self.percent is None) == (self.absolute_mm is None):
            raise ValidationError(
                "<sensor>", "accuracy", "exactly one of 'percent' or 'absolute_mm' must be present"
            )


@dataclass(frozen=True)
class FieldOfView:
    """Angular field of view in degrees.  Vertical/diagonal optional."""

    horizontal_deg: float
    vertical_deg: float | None = None
    diagonal_deg: float | None = None

    def __post_init__(self) -> None:
        for label in ("horizontal_deg", "vertical_deg", "diagonal_deg"):
            deg = getattr(self, label)
            if deg is not None and not 0 < deg <= 360:
                raise ValidationError("<sensor>", f"fov.{label}", "must be in (0, 360]")

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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("buckling_margin", "body_sensor_fraction"):
                if not 0 < value < 1:
                    raise ValidationError("mission", f.name, "must be a fraction in (0, 1)")
            elif not value > 0:
                raise ValidationError("mission", f.name, "must be strictly positive")


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
    """A grade word, in any letter case: ``low``, ``mid`` or ``high``."""
    if isinstance(value, str) and value.upper() in Ordinal.__members__:
        return Ordinal[value.upper()]
    raise ValidationError(subject, field_name, f"expected low/mid/high, got {value!r}")


_E = TypeVar("_E", bound=enum.Enum)


def _enum(value: Any, kind: type[_E], subject: str, field_name: str) -> _E:
    """The member of ``kind`` whose value is the string ``value``."""
    if isinstance(value, str):
        for member in kind:
            if member.value == value:
                return member
    allowed = ", ".join(m.value for m in kind)
    raise ValidationError(subject, field_name, f"must be one of: {allowed}; got {value!r}")


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
    raw = _mapping(raw, "<sensor>", "entry")
    sensor_id = _text(_require(raw, "id", "<sensor>"), "<sensor>", "id")

    resolution = None
    if raw.get("resolution") is not None:
        resolution = _parse_resolution(raw["resolution"], sensor_id)

    accuracy = None
    if raw.get("accuracy") is not None:
        acc = _mapping(raw["accuracy"], sensor_id, "accuracy")
        values = {
            key: _number(acc[key], sensor_id, f"accuracy.{key}")
            for key in ("percent", "absolute_mm") if key in acc
        }
        with fields_of(sensor_id):
            accuracy = Accuracy(**values)

    fov = None
    if raw.get("fov") is not None:
        f = _mapping(raw["fov"], sensor_id, "fov")
        horizontal = _number(_require(f, "horizontal_deg", sensor_id), sensor_id, "fov.horizontal_deg")
        others = {
            key: _number(f[key], sensor_id, f"fov.{key}")
            for key in ("vertical_deg", "diagonal_deg") if f.get(key) is not None
        }
        with fields_of(sensor_id):
            fov = FieldOfView(horizontal, **others)

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
        modality=_enum(_require(raw, "modality", sensor_id), Modality, sensor_id, "modality"),
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
    doc = _mapping(_read_yaml(path), "catalog", "file")
    raw_sensors = _list(_require(doc, "sensors", "catalog"), "catalog", "sensors")
    return Catalog(tuple(_parse_sensor(raw) for raw in raw_sensors))


def load_mission(path: str | Path) -> MissionConfig:
    """Load and validate a mission configuration file: every field of
    MissionConfig is required, read as an integer where it is annotated
    ``int`` and as a number otherwise."""
    doc = _mapping(_read_yaml(path), "mission", "file")
    kwargs: dict[str, Any] = {}
    for f in fields(MissionConfig):
        reader = _integer if f.type == "int" else _number
        kwargs[f.name] = reader(_require(doc, f.name, "mission"), "mission", f.name)
    return MissionConfig(**kwargs)
