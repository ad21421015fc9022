"""Mount-specification files: which sensors sit where, at what attitude."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .catalog import (
    Catalog, SensorRecord, _Table, _boolean, _hint, _list, _number, _read, _read_yaml, _record, _text,
)
from .errors import ValidationError
from .geometry import Mount, TubeSection

__all__ = ["MountSpec", "load_mounts"]


@dataclass(frozen=True)
class MountSpec:
    """A concrete architecture: cross-section mounts, axial-facing body
    units (mass only), boom-tip sensors, and an optional analysis tube."""

    body_mounts: tuple[Mount, ...]
    body_axial: tuple[SensorRecord, ...]
    distal: tuple[SensorRecord, ...]
    analysis_tube: TubeSection | None

    @property
    def body_mass_kg(self) -> float:
        mounted = sum(m.sensor.mass_kg for m in self.body_mounts)
        return mounted + sum(s.mass_kg for s in self.body_axial)

    @property
    def distal_mass_kg(self) -> float:
        return sum(s.mass_kg for s in self.distal)


def load_mounts(path: str | Path, catalog: Catalog) -> MountSpec:
    """Load a mount specification, resolving sensor ids against a catalog."""

    def sensor(value: Any, subject: str, field_name: str) -> SensorRecord:
        sid = _text(value, subject, field_name)
        if sid not in catalog:
            hint = _hint(sid, catalog.ids())
            raise ValidationError(subject, field_name, f"unknown sensor id {sid!r}{hint}")
        return catalog.get(sid)

    mount = _Table({"sensor": sensor, "tilt_deg": _number, "spinning": _boolean}, ("sensor",))
    tube = _Table({"depth": _number, "width": _number, "body_height": _number, "body_offset": _number},
                  ("depth", "width"))
    values = _read(_read_yaml(path), _Table({
        "body_mounts": _list(_record(Mount, mount)), "body_axial_sensors": _list(sensor),
        "distal_sensors": _list(sensor), "analysis_tube": _record(TubeSection, tube),
    }), "mounts")
    return MountSpec(
        values.get("body_mounts", ()), values.get("body_axial_sensors", ()),
        values.get("distal_sensors", ()), values.get("analysis_tube"),
    )
