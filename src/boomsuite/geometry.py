"""Two-stage sensing geometry.

Covers the range partition between body (far-field) and boom-tip
(near-field) sensing, per-measurement footprints at distance, graspable
feature resolvability, the effective vertical field of view of tilted
spinning scanners, and floor/wall/ceiling visibility in a rectangular
tube cross-section.

Conventions: the cross-section is the vertical plane; direction angles
are degrees with 0 toward +x (right), 90 up, 270 down.  The body is a
point strictly inside the rectangle.  All functions are pure.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .catalog import PixelGrid, ScanPattern, SensorRecord

__all__ = [
    "RESOLVABLE_FOOTPRINT_MM2",
    "FAR_RANGE_CREDIT_CAP_M",
    "TWO_STAGE_BOOM_THRESHOLD_M",
    "TWO_STAGE_CLEARANCE_FACTOR",
    "Footprint",
    "TubeSection",
    "Mount",
    "SurfaceCoverage",
    "CoverageReport",
    "StagePlan",
    "Strategy",
    "near_field_threshold",
    "footprint_at_range",
    "feature_resolvable",
    "effective_vertical_fov",
    "section_coverage",
    "stage_plan",
    "stage_anchor",
    "far_anchor_usable",
    "near_anchor_usable",
    "strategy_recommend",
]

# Largest per-measurement footprint that still resolves the smallest
# graspable feature (a 50 mm pinch-grasp hemisphere); inclusive bound.
RESOLVABLE_FOOTPRINT_MM2 = 25.0

# Far-field range credit saturates here: extra reach beyond this earns
# no scoring credit, though coverage feasibility still uses true range.
FAR_RANGE_CREDIT_CAP_M = 20.0

# strategy_recommend's thresholds: judgment calls, not measured constants.
TWO_STAGE_BOOM_THRESHOLD_M = 5.0
TWO_STAGE_CLEARANCE_FACTOR = 2.0

SURFACES = ("floor", "ceiling", "right_wall", "left_wall")


@dataclass(frozen=True)
class Footprint:
    """Surface patch covered by one measurement at a given range."""

    range_m: float
    width_mm: float
    height_mm: float

    @property
    def area_mm2(self) -> float:
        return self.width_mm * self.height_mm


@dataclass(frozen=True)
class TubeSection:
    """Rectangular tube cross-section with a point body inside it.

    ``body_height`` is height above the floor; None, the default, keeps
    the body at mid-depth, also in a copy with another depth.
    ``body_offset`` is lateral offset from the centerline.
    """

    depth: float
    width: float
    body_height: float | None = None
    body_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.depth <= 0 or self.width <= 0:
            raise ValueError("tube depth and width must be > 0 m")
        if not 0 < self.body_point[1] < self.depth:
            raise ValueError("body height must be strictly inside (0, depth)")
        if not abs(self.body_offset) < self.width / 2.0:
            raise ValueError("body offset must be strictly inside the walls")

    @property
    def body_point(self) -> tuple[float, float]:
        """The body's lateral offset and its height above the floor."""
        height = self.depth / 2.0 if self.body_height is None else self.body_height
        return self.body_offset, height


@dataclass(frozen=True)
class Mount:
    """A sensor on the body: tilted from horizontal, optionally spun
    about the vertical axis.  Negative tilt means pitched the other way;
    a spinning mount sweeps symmetrically so only |tilt| matters."""

    sensor: SensorRecord
    tilt_deg: float = 0.0
    spinning: bool = False

    def __post_init__(self) -> None:
        if not -90 < self.tilt_deg < 90:
            raise ValueError("mount tilt must be in (-90, 90) degrees")


@dataclass(frozen=True)
class SurfaceCoverage:
    surface: str
    visible: bool
    beyond_range: bool
    min_slant_m: float | None
    seen_by: tuple[str, ...]


@dataclass(frozen=True)
class CoverageReport:
    tube: TubeSection
    near_field_max: float
    surfaces: dict[str, SurfaceCoverage]

    @property
    def all_visible(self) -> bool:
        return all(s.visible for s in self.surfaces.values())


class Strategy(enum.Enum):
    ONE_STAGE = "one_stage"
    TWO_STAGE = "two_stage"


@dataclass(frozen=True)
class StagePlan:
    """Range partition between a far-field and a near-field sensor.

    The near stage is (near.range_min, L/3]; the far stage starts at the
    handoff point ``far_field_min`` = max(far.range_min, L/3).  Overlap
    measures switchover bandwidth from that handoff; a negative overlap
    shows up as ``blind_band`` meters of unsensed gap below L/3.  A plan
    whose only defect is a blind band is ``marginal`` rather than valid.
    """

    far_sensor_id: str
    near_sensor_id: str
    near_field_max: float
    far_field_min: float
    far_field_max: float
    overlap: float
    blind_band: float
    far_ok: bool
    near_ok: bool
    valid: bool
    marginal: bool


def near_field_threshold(boom_length_m: float) -> float:
    """Near-field boundary: one-third of the boom length."""
    if boom_length_m <= 0:
        raise ValueError("boom length must be > 0 m")
    return boom_length_m / 3.0


def footprint_at_range(sensor: SensorRecord, range_m: float) -> Footprint:
    """Per-measurement footprint on a fronto-parallel surface at range r.

    Pixel grids use the pinhole model (image-plane-uniform pixels); scan
    patterns use the small-angle arc r*dtheta, which at sub-degree steps
    differs from the exact chord by well under 0.01%.
    """
    if range_m <= 0:
        raise ValueError("range must be > 0 m")
    res = sensor.resolution
    if isinstance(res, PixelGrid):
        if sensor.fov is None or sensor.fov.vertical_deg is None:
            raise ValueError(
                f"{sensor.id}: pixel-grid footprint needs horizontal and vertical FOV"
            )
        width_m = 2.0 * range_m * math.tan(math.radians(sensor.fov.horizontal_deg) / 2.0) / res.width_px
        height_m = 2.0 * range_m * math.tan(math.radians(sensor.fov.vertical_deg) / 2.0) / res.height_px
    elif isinstance(res, ScanPattern):
        width_m = range_m * math.radians(res.horizontal_res_deg)
        height_m = range_m * math.radians(res.vertical_res_deg)
    else:
        raise ValueError(f"{sensor.id}: no resolution specification")
    return Footprint(range_m=range_m, width_mm=width_m * 1000.0, height_mm=height_m * 1000.0)


def feature_resolvable(
    sensor: SensorRecord, range_m: float, feature_diameter_mm: float
) -> tuple[bool, int]:
    """Whether one measurement footprint meets the resolvability bound at
    this range, plus how many measurements land on the feature's disc
    (diagnostic).  The bound is inclusive: exactly 25 mm^2 still passes.
    """
    if feature_diameter_mm <= 0:
        raise ValueError("feature diameter must be > 0 mm")
    fp = footprint_at_range(sensor, range_m)
    disc_area = math.pi * (feature_diameter_mm / 2.0) ** 2
    count = int(disc_area // fp.area_mm2)
    return fp.area_mm2 <= RESOLVABLE_FOOTPRINT_MM2, count


def effective_vertical_fov(intrinsic_vfov_deg: float, tilt_deg: float, spinning: bool) -> float:
    """Vertical field of view delivered by a mount.

    A spinning tilted scanner sweeps its tilted scan fan about the
    vertical axis, widening vertical coverage to 2*tilt + vfov (clamped
    at 180).  A static mount keeps its intrinsic vfov, centered at the
    tilt elevation.
    """
    if not 0 < intrinsic_vfov_deg <= 180:
        raise ValueError("intrinsic vertical FOV must be in (0, 180] degrees")
    if not 0 <= tilt_deg < 90:
        raise ValueError("tilt must be in [0, 90) degrees")
    if spinning:
        return min(180.0, 2.0 * tilt_deg + intrinsic_vfov_deg)
    return intrinsic_vfov_deg


# ---------------------------------------------------------------------------
# cross-section coverage


def _normalize_segments(start: float, end: float) -> list[tuple[float, float]]:
    """Split an angular interval into segments within [0, 360]."""
    width = end - start
    if width <= 0:
        return []
    if width >= 360.0:
        return [(0.0, 360.0)]
    s = start % 360.0
    e = s + width
    if e <= 360.0:
        return [(s, e)]
    return [(s, 360.0), (0.0, e - 360.0)]


def _mount_segments(mount: Mount) -> list[tuple[float, float]]:
    """Directions (cross-section angles) covered by one mount."""
    fov = mount.sensor.fov
    if fov is None:
        raise ValueError(f"{mount.sensor.id}: coverage needs a field of view")
    vfov = fov.vertical_deg if fov.vertical_deg is not None else fov.horizontal_deg
    segments: list[tuple[float, float]] = []
    if mount.spinning:
        half = abs(mount.tilt_deg) + vfov / 2.0
        segments += _normalize_segments(-half, half)
        segments += _normalize_segments(180.0 - half, 180.0 + half)
    else:
        segments += _normalize_segments(mount.tilt_deg - vfov / 2.0, mount.tilt_deg + vfov / 2.0)
    return segments


def _intersect(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float] | None:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if hi > lo else None


def _closest_angle_in(segment: tuple[float, float], target: float) -> float:
    """Angle within the segment circularly closest to the target."""
    lo, hi = segment
    candidates = []
    for shift in (-360.0, 0.0, 360.0):
        t = target + shift
        candidates.append(min(max(t, lo), hi))
    return min(candidates, key=lambda a: min(abs(a - target) % 360.0, 360.0 - abs(a - target) % 360.0))


def _surface_spans(tube: TubeSection) -> dict[str, tuple[float, float]]:
    """Angular span each surface subtends from the body point."""
    w = tube.width / 2.0
    x0, y0 = tube.body_point
    th_se = math.degrees(math.atan2(-y0, w - x0))          # (-90, 0)
    th_sw = math.degrees(math.atan2(-y0, -w - x0))         # (-180, -90)
    th_ne = math.degrees(math.atan2(tube.depth - y0, w - x0))    # (0, 90)
    th_nw = math.degrees(math.atan2(tube.depth - y0, -w - x0))   # (90, 180)
    return {
        "floor": (th_sw, th_se),
        "ceiling": (th_ne, th_nw),
        "right_wall": (th_se, th_ne),
        "left_wall": (th_nw, th_sw + 360.0),
    }


def _surface_distance(surface: str, tube: TubeSection, angle_deg: float) -> float:
    """Slant distance from the body to the surface along a direction."""
    w = tube.width / 2.0
    x0, y0 = tube.body_point
    rad = math.radians(angle_deg)
    if surface == "floor":
        return y0 / -math.sin(rad)
    if surface == "ceiling":
        return (tube.depth - y0) / math.sin(rad)
    if surface == "right_wall":
        return (w - x0) / math.cos(rad)
    return (w + x0) / -math.cos(rad)


_PERPENDICULAR = {"floor": 270.0, "ceiling": 90.0, "right_wall": 0.0, "left_wall": 180.0}


def section_coverage(
    mounts: list[Mount], tube: TubeSection, boom_length_m: float
) -> CoverageReport:
    """Which surfaces of the cross-section the mounted sensors can see.

    A surface is visible when some mount's covered directions intersect
    the surface's angular span AND the nearest point of that intersection
    lies within the sensor's range.  Surfaces whose span is covered but
    always out of range are flagged ``beyond_range``.
    """
    if not mounts:
        raise ValueError("at least one mount is required")
    spans = _surface_spans(tube)
    results: dict[str, SurfaceCoverage] = {}
    for surface in SURFACES:
        span_segments = _normalize_segments(*spans[surface])
        covered_in_range: list[str] = []
        covered_any = False
        best_slant: float | None = None
        for mount in mounts:
            if mount.sensor.range_max is None:
                raise ValueError(f"{mount.sensor.id}: coverage needs range_max")
            mount_min: float | None = None
            for seg in _mount_segments(mount):
                for span_seg in span_segments:
                    overlap = _intersect(seg, span_seg)
                    if overlap is None:
                        continue
                    covered_any = True
                    angle = _closest_angle_in(overlap, _PERPENDICULAR[surface])
                    d = _surface_distance(surface, tube, angle)
                    mount_min = d if mount_min is None else min(mount_min, d)
            if mount_min is None:
                continue
            if best_slant is None or mount_min < best_slant:
                best_slant = mount_min
            if mount_min <= mount.sensor.range_max:
                covered_in_range.append(mount.sensor.id)
        visible = bool(covered_in_range)
        results[surface] = SurfaceCoverage(
            surface=surface,
            visible=visible,
            beyond_range=covered_any and not visible,
            min_slant_m=best_slant,
            seen_by=tuple(dict.fromkeys(covered_in_range)),
        )
    return CoverageReport(
        tube=tube,
        near_field_max=near_field_threshold(boom_length_m),
        surfaces=results,
    )


# ---------------------------------------------------------------------------
# stage planning


def stage_plan(
    far_sensor: SensorRecord, near_sensor: SensorRecord, boom_length_m: float
) -> StagePlan:
    """Partition sensing ranges between a far-field and a near-field sensor.

    Requirements: the far sensor must cover from the near-field boundary
    out to the full boom length; the near sensor must work inside the
    boundary; and there must be strictly positive switchover overlap.
    """
    for s in (far_sensor, near_sensor):
        if s.range_min is None or s.range_max is None:
            raise ValueError(f"{s.id}: stage planning needs range_min and range_max")
    threshold = near_field_threshold(boom_length_m)
    far_start = max(far_sensor.range_min, threshold)
    far_ok = far_anchor_usable(far_sensor, boom_length_m)
    near_reaches_in = near_sensor.range_min < threshold
    near_ok = near_reaches_in and near_sensor.range_max >= threshold
    overlap = near_sensor.range_max - far_start
    blind_band = max(0.0, threshold - near_sensor.range_max) if near_reaches_in else threshold
    valid = far_ok and near_ok and overlap > 0
    marginal = not valid and far_ok and near_reaches_in and blind_band > 0
    return StagePlan(
        far_sensor_id=far_sensor.id,
        near_sensor_id=near_sensor.id,
        near_field_max=threshold,
        far_field_min=far_start,
        far_field_max=min(far_sensor.range_max, max(boom_length_m, FAR_RANGE_CREDIT_CAP_M)),
        overlap=overlap,
        blind_band=blind_band,
        far_ok=far_ok,
        near_ok=near_ok,
        valid=valid,
        marginal=marginal,
    )


def stage_anchor(sensors: Iterable[SensorRecord]) -> SensorRecord | None:
    """The sensor a placement's stage plan is anchored on: its longest-range
    sensor with both range bounds (the first of equals), or None when the
    placement has no such sensor and so cannot take part in a plan."""
    ranged = [s for s in sensors if s.range_min is not None and s.range_max is not None]
    return max(ranged, key=lambda s: s.range_max) if ranged else None


def far_anchor_usable(sensor: SensorRecord, boom_length_m: float) -> bool:
    """Whether a ranged sensor can be the far stage of a plan (``far_ok``):
    it covers from the near-field boundary out to the full boom length."""
    return sensor.range_min <= near_field_threshold(boom_length_m) and sensor.range_max >= boom_length_m


def near_anchor_usable(sensor: SensorRecord, boom_length_m: float) -> bool:
    """Whether a ranged sensor can be the near stage of a usable plan.

    Paired with a far sensor that passes ``far_anchor_usable``, the plan
    is valid or marginal exactly when this holds: the far stage then
    starts at L/3, so overlap > 0 means near.range_max > L/3 and a blind
    band means near.range_max < L/3; stopping exactly at L/3 gives
    neither.  Usability therefore splits into one test per sensor.
    """
    threshold = near_field_threshold(boom_length_m)
    return sensor.range_min < threshold and sensor.range_max != threshold


def strategy_recommend(boom_length_m: float, tube: TubeSection) -> Strategy:
    """Pick one- vs two-stage sensing.

    Long booms (at least TWO_STAGE_BOOM_THRESHOLD_M) or generous clearance
    (smallest tube dimension at least TWO_STAGE_CLEARANCE_FACTOR * L)
    favor two stages; cramped short-boom work favors one.
    """
    if boom_length_m <= 0:
        raise ValueError("boom length must be > 0 m")
    if boom_length_m >= TWO_STAGE_BOOM_THRESHOLD_M:
        return Strategy.TWO_STAGE
    if min(tube.depth, tube.width) >= TWO_STAGE_CLEARANCE_FACTOR * boom_length_m:
        return Strategy.TWO_STAGE
    return Strategy.ONE_STAGE
