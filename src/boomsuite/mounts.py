"""Mount-specification files: which sensors sit where, at what attitude."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .catalog import Catalog, SensorRecord, _read_yaml
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
    doc = _read_yaml(path)
    if not isinstance(doc, Mapping):
        raise ValidationError("mounts", "file", "expected a mapping")

    def sensor(sensor_id: Any) -> SensorRecord:
        sid = str(sensor_id)
        if sid not in catalog:
            raise ValidationError("mounts", "sensor", f"unknown sensor id {sid!r}")
        return catalog.get(sid)

    mounts = []
    for raw in doc.get("body_mounts") or []:
        if not isinstance(raw, Mapping) or "sensor" not in raw:
            raise ValidationError("mounts", "body_mounts", "each entry needs a sensor id")
        mounts.append(
            Mount(
                sensor=sensor(raw["sensor"]),
                tilt_deg=float(raw.get("tilt_deg", 0.0)),
                spinning=bool(raw.get("spinning", False)),
            )
        )

    tube = None
    if doc.get("analysis_tube") is not None:
        raw_tube = doc["analysis_tube"]
        tube = TubeSection(
            depth=float(raw_tube["depth"]),
            width=float(raw_tube["width"]),
            body_height=None if raw_tube.get("body_height") is None else float(raw_tube["body_height"]),
            body_offset=float(raw_tube.get("body_offset", 0.0)),
        )

    return MountSpec(
        body_mounts=tuple(mounts),
        body_axial=tuple(sensor(s) for s in doc.get("body_axial_sensors") or []),
        distal=tuple(sensor(s) for s in doc.get("distal_sensors") or []),
        analysis_tube=tube,
    )
