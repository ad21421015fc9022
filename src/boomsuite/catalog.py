"""Sensor catalog and mission data model, with YAML loading/validation.

All quantities use fixed units, documented per field (meters, grams,
watts, degrees, USD).  There is no unit parsing: a value of ``mass: 830``
is 830 grams, full stop.  Optional spec fields load as absent (``None``),
never as zero, so downstream scoring can distinguish "unknown" from
"measured zero".
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple

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
    """Ordered, immutable collection of sensors with unique ids, possibly none."""

    sensors: tuple[SensorRecord, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.sensors)

    def modalities(self) -> tuple[Modality, ...]:
        """Distinct modalities, in first-appearance order."""
        seen: dict[Modality, None] = {}
        for s in self.sensors:
            seen.setdefault(s.modality, None)
        return tuple(seen)

    def subset(self, *, modalities: Iterable[Modality] | None) -> "Catalog":
        """The sensors of the given modalities, in catalog order: every
        sensor when ``modalities`` is None, none when it is empty.  This is
        the pool a scoring profile or a placement rule considers."""
        if modalities is None:
            return self
        keep = set(modalities)
        return Catalog(tuple(s for s in self.sensors if s.modality in keep))


# ---------------------------------------------------------------------------
# file parsing

_Reader = Callable[[Any, str, str], Any]  # (value, subject, field path) -> the value read


class _Table(NamedTuple):
    """One record kind's keys, each with its reader; the keys that must be
    present; and the key, if any, whose value names the record in errors."""

    readers: dict[str, _Reader]
    required: tuple[str, ...] = ()
    names: str | None = None


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_strict(getattr(yaml, "CSafeLoader", yaml.SafeLoader)))
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a value the constructor cannot build
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


@functools.cache
def _strict(loader: type) -> type:
    """``loader`` made to reject a key repeated in one mapping, where PyYAML keeps the last value."""
    import yaml

    class Strict(loader):
        def construct_mapping(self, node, deep=False):
            first: dict[Any, int] = {}
            for key_node, _ in node.value:
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node)
                    if key in first:
                        problem = f"duplicate key {key!r} (first at line {first[key] + 1})"
                        raise yaml.constructor.ConstructorError(None, None, problem, key_node.start_mark)
                    first[key] = key_node.start_mark.line
            return super().construct_mapping(node, deep)

    return Strict


def _read(raw: Any, table: _Table, subject: str, path: str = "") -> dict[str, Any]:
    """The mapping ``raw`` at ``path`` ("" for a whole file), read through
    ``table``.  Each present key goes to its reader, null included, so no
    key reads null as absent.  A required key that is absent, or a key the
    table does not list, is an error; an optional key that is absent is
    left out, so that the record takes its default.  Errors name
    ``subject.path.key``; once the naming key is read, its value is the
    subject and the path starts anew."""
    raw = _mapping(raw, subject, path or "file")
    prefix = f"{path}." if path else ""
    values: dict[str, Any] = {}

    def read(key: str) -> None:
        if key in raw:
            values[key] = table.readers[key](raw[key], subject, prefix + key)
        elif key in table.required:
            raise ValidationError(subject, prefix + key, "required field is missing")

    if table.names is not None:
        read(table.names)
        name = values[table.names]
        subject, prefix = (name.value if isinstance(name, enum.Enum) else name), ""
    for key in raw:
        if key not in table.readers:
            raise ValidationError(subject, f"{prefix}{key}", "unknown field" + _hint(str(key), table.readers))
    for key in table.readers:
        if key != table.names:
            read(key)
    return values


def _hint(word: str, known: Iterable[str]) -> str:
    """The hint "; did you mean 'x'?", x the entry of ``known`` nearest ``word``, or "" if none is near."""
    import difflib

    close = difflib.get_close_matches(word, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _mapping(value: Any, subject: str, field_name: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValidationError(subject, field_name, "expected a mapping")
    return value


def _number(value: Any, subject: str, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(subject, field_name, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(subject, field_name, "must be finite")
    return number


def _text(value: Any, subject: str, field_name: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(subject, field_name, f"expected a string, got {value!r}")
    return value


def _boolean(value: Any, subject: str, field_name: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(subject, field_name, f"expected true or false, got {value!r}")
    return value


def _integer(value: Any, subject: str, field_name: str) -> int:
    """An integer, or a float of integral value; an integer is kept exact."""
    number = _number(value, subject, field_name)
    if not number.is_integer():
        raise ValidationError(subject, field_name, f"expected an integer, got {value!r}")
    return value if isinstance(value, int) else int(number)


def _ordinal(value: Any, subject: str, field_name: str) -> Ordinal:
    """A grade word, in any letter case: ``low``, ``mid`` or ``high``."""
    if isinstance(value, str) and value.upper() in Ordinal.__members__:
        return Ordinal[value.upper()]
    raise ValidationError(subject, field_name, f"expected low/mid/high, got {value!r}")


def _enum(kind: type[enum.Enum]) -> _Reader:
    """The reader of ``kind``: the member whose value is the string read."""
    members = {m.value: m for m in kind}
    allowed = ", ".join(members)

    def read(value: Any, subject: str, field_name: str) -> enum.Enum:
        if isinstance(value, str) and value in members:
            return members[value]
        raise ValidationError(subject, field_name, f"must be one of: {allowed}; got {value!r}")

    return read


def _list(item: _Reader) -> _Reader:
    """The reader of a list whose every entry ``item`` reads, as a tuple."""

    def read(value: Any, subject: str, field_name: str) -> tuple:
        if not isinstance(value, list):
            raise ValidationError(subject, field_name, f"expected a list, got {value!r}")
        return tuple(item(entry, subject, field_name) for entry in value)

    return read


def _record(kind: Callable[..., Any], table: _Table, placeholder: bool = False) -> _Reader:
    """The reader of a mapping that ``table`` reads into a ``kind``.  The
    record's own errors take the mapping's place as their subject, or, for
    a ``placeholder`` kind (errors like ``<sensor>.fov.vertical_deg``), its subject."""

    def read(value: Any, subject: str, field_name: str) -> Any:
        values = _read(value, table, subject, field_name)
        with fields_of(subject if placeholder else f"{subject}.{field_name}"):
            return kind(**values)

    return read


def _resolution(value: Any, subject: str, field_name: str) -> PixelGrid | ScanPattern:
    forms = list(_read(value, _RESOLUTION, subject, field_name).values())
    if len(forms) != 1:
        raise ValidationError(subject, field_name, "exactly one of 'pixels' or 'scan' must be present")
    return forms[0]


def _sensor(value: Any, subject: str, field_name: str) -> SensorRecord:
    """A catalog entry; its name defaults to its id."""
    values = _read(value, _SENSOR, subject, field_name)
    return SensorRecord(**{"name": values["id"], **values})


_modality = _enum(Modality)
_RESOLUTION = _Table({
    "pixels": _record(
        lambda width, height: PixelGrid(width, height),
        _Table({"width": _integer, "height": _integer}, ("width", "height")),
    ),
    "scan": _record(ScanPattern, _Table(
        {"channels": _integer, "horizontal_res_deg": _number, "vertical_res_deg": _number},
        ("channels", "horizontal_res_deg", "vertical_res_deg"),
    )),
})
_SENSOR = _Table({
    "id": _text, "name": _text, "modality": _modality, "resolution": _resolution,
    "accuracy": _record(Accuracy, _Table({"percent": _number, "absolute_mm": _number}), placeholder=True),
    "fov": _record(FieldOfView, _Table(
        {"horizontal_deg": _number, "vertical_deg": _number, "diagonal_deg": _number}, ("horizontal_deg",)
    ), placeholder=True),
    "range_min": _number, "range_max": _number, "power": _number,
    "darkness_robust": _ordinal, "dust_robust": _ordinal, "implementation_ease": _ordinal,
    "mass": _number, "dimensions": _list(_number), "price": _number,
    "aliases": _list(_text), "notes": _text,
}, required=("id", "modality", "mass", "price"), names="id")
_CATALOG = _Table({"sensors": _list(_sensor)}, ("sensors",))
_MISSION = _Table({f.name: _integer if f.type == "int" else _number for f in fields(MissionConfig)},
                  tuple(f.name for f in fields(MissionConfig)))


def load_catalog(path: str | Path) -> Catalog:
    """Load and validate a sensor catalog file.

    Raises ConfigError on unreadable/unparseable files and
    ValidationError (naming sensor id and field) on invariant violations.
    """
    sensors = _read(_read_yaml(path), _CATALOG, "catalog")["sensors"]
    if not sensors:
        raise ValidationError("catalog", "sensors", "must be non-empty")
    return Catalog(sensors)


def load_mission(path: str | Path) -> MissionConfig:
    """Load and validate a mission configuration file: every field of
    MissionConfig is required, an integer where it is annotated ``int``
    and a number otherwise."""
    return MissionConfig(**_read(_read_yaml(path), _MISSION, "mission"))
