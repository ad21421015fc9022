"""Mount-specification files: which sensors sit where, at what attitude."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .catalog import Catalog, SensorRecord, _boolean, _list, _mapping, _number, _read_yaml, _require, _text
from .errors import ValidationError, fields_of
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
    doc = _mapping(_read_yaml(path), "mounts", "file")

    def sensor(sensor_id: Any) -> SensorRecord:
        sid = _text(sensor_id, "mounts", "sensor")
        if sid not in catalog:
            raise ValidationError("mounts", "sensor", f"unknown sensor id {sid!r}")
        return catalog.get(sid)

    mounts = []
    for raw in _list(doc.get("body_mounts"), "mounts", "body_mounts"):
        raw = _mapping(raw, "mounts", "body_mounts")
        mounted = sensor(_require(raw, "sensor", "mounts"))
        tilt = _number(raw.get("tilt_deg", 0.0), "mounts", "body_mounts.tilt_deg")
        spinning = _boolean(raw.get("spinning", False), "mounts", "body_mounts.spinning")
        with fields_of("mounts.body_mounts"):
            mounts.append(Mount(sensor=mounted, tilt_deg=tilt, spinning=spinning))

    tube = None
    if doc.get("analysis_tube") is not None:
        raw_tube = _mapping(doc["analysis_tube"], "mounts", "analysis_tube")
        subject = "mounts.analysis_tube"

        def length(key: str) -> float:
            return _number(_require(raw_tube, key, subject), subject, key)

        depth, width = length("depth"), length("width")
        height = None if raw_tube.get("body_height") is None else length("body_height")
        offset = 0.0 if raw_tube.get("body_offset") is None else length("body_offset")
        with fields_of(subject):
            tube = TubeSection(depth=depth, width=width, body_height=height, body_offset=offset)

    return MountSpec(
        body_mounts=tuple(mounts),
        body_axial=tuple(
            sensor(s) for s in _list(doc.get("body_axial_sensors"), "mounts", "body_axial_sensors")
        ),
        distal=tuple(sensor(s) for s in _list(doc.get("distal_sensors"), "mounts", "distal_sensors")),
        analysis_tube=tube,
    )
