"""Two-stage sensing geometry.

Covers the range partition between body (far-field) and boom-tip
(near-field) sensing, per-measurement footprints at distance, graspable
feature resolvability, the effective vertical field of view of tilted
spinning scanners, and floor/wall/ceiling visibility in a rectangular
tube cross-section.

Conventions: the cross-section is the vertical plane; direction angles
are degrees with 0 toward +x (right), 90 up, 270 down.  The body is a
point strictly inside the rectangle.  All functions are pure.

Coverage works in each surface's own frame: the direction of its normal
from the body, the body's distance along that normal, and how far the
surface runs either side of the normal's foot.  A mount's covered arc
then reduces to the covered offset nearest the normal, and a direction
at offset phi meets the surface at distance / cos(phi).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .catalog import PixelGrid, ScanPattern, SensorRecord
from .errors import ValidationError

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

# A slant within this relative tolerance of ``range_max`` is in range, so
# rounding does not decide a surface that lies exactly at range: the
# slant's own rounding reaches about 40 ulps (1e-14) at offsets past 80
# degrees, and no range is specified to a part in 10^12.
RANGE_REL_TOL = 1e-12

# strategy_recommend's thresholds: judgment calls, not measured constants.
TWO_STAGE_BOOM_THRESHOLD_M = 5.0
TWO_STAGE_CLEARANCE_FACTOR = 2.0


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
        for name in ("depth", "width"):
            if not getattr(self, name) > 0:
                raise ValidationError("tube", name, "must be > 0 m")
        if not 0 < self.body_point[1] < self.depth:
            raise ValidationError(
                "tube", "body_height", f"must be strictly inside (0, depth); depth is {self.depth:g} m"
            )
        if not abs(self.body_offset) < self.width / 2.0:
            raise ValidationError(
                "tube", "body_offset", f"must be strictly inside the walls at +-{self.width / 2.0:g} m"
            )

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
            raise ValidationError("mount", "tilt_deg", "must be in (-90, 90) degrees")


@dataclass(frozen=True)
class SurfaceCoverage:
    """What the body mounts see of one surface.  ``seen_by`` lists the
    mounts whose covered point nearest the body lies within range, and
    ``visible`` is true when there is one; ``beyond_range`` when mounts
    cover the surface but only out of range.  ``min_slant_m`` is the least
    slant (m) to such a point over every covering mount, else None."""

    visible: bool
    beyond_range: bool
    min_slant_m: float | None
    seen_by: tuple[str, ...]


@dataclass(frozen=True)
class CoverageReport:
    """Each surface's coverage by name: floor, ceiling, right_wall, left_wall."""

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


def _mount_arcs(mount: Mount) -> list[tuple[float, float]]:
    """Direction arcs (low, high) that one mount covers."""
    fov = mount.sensor.fov
    if fov is None:
        raise ValidationError(mount.sensor.id, "fov", "coverage needs a field of view")
    vfov = fov.vertical_deg if fov.vertical_deg is not None else fov.horizontal_deg
    if mount.spinning:
        half = abs(mount.tilt_deg) + vfov / 2.0
        return [(-half, half), (180.0 - half, 180.0 + half)]
    return [(mount.tilt_deg - vfov / 2.0, mount.tilt_deg + vfov / 2.0)]


def _surfaces(tube: TubeSection) -> list[tuple[str, float, float, float, float]]:
    """Each surface in report order: the direction of its normal from the
    body, the body's normal distance to it, and how far it runs before and
    after the foot of that normal, counterclockwise."""
    x0, y0 = tube.body_point
    right, left = tube.width / 2.0 - x0, tube.width / 2.0 + x0
    up = tube.depth - y0
    return [
        ("floor", 270.0, y0, left, right),
        ("ceiling", 90.0, up, right, left),
        ("right_wall", 0.0, right, y0, up),
        ("left_wall", 180.0, left, up, y0),
    ]


def _nearest_offset(arc: tuple[float, float], normal: float, lo: float, hi: float) -> float | None:
    """The offset from ``normal`` nearest to it that ``arc`` covers within
    the surface's offsets [lo, hi], or None when they share no interval."""
    width = arc[1] - arc[0]
    if width >= 360.0:
        return 0.0
    start = (arc[0] - normal + 180.0) % 360.0 - 180.0
    best = None
    for begin in (start, start - 360.0):
        first, last = max(begin, lo), min(begin + width, hi)
        if last > first:
            offset = min(max(0.0, first), last)
            if best is None or abs(offset) < abs(best):
                best = offset
    return best


def section_coverage(mounts: list[Mount], tube: TubeSection) -> CoverageReport:
    """Which surfaces of the cross-section the mounted sensors can see.

    A surface is visible when some mount's covered directions meet the
    surface's angular span AND the covered point nearest the body lies
    within the sensor's range.  Surfaces whose span is covered but
    always out of range are flagged ``beyond_range``.
    """
    if not mounts:
        raise ValueError("at least one mount is required")
    arcs = []
    for mount in mounts:
        if mount.sensor.range_max is None:
            raise ValidationError(mount.sensor.id, "range_max", "coverage needs a maximum range")
        arcs.append(_mount_arcs(mount))
    results: dict[str, SurfaceCoverage] = {}
    for surface, normal, distance, before, after in _surfaces(tube):
        lo = -math.degrees(math.atan2(before, distance))
        hi = math.degrees(math.atan2(after, distance))
        seen_by: list[str] = []
        slants = []
        for mount, mount_arcs in zip(mounts, arcs):
            offsets = [_nearest_offset(arc, normal, lo, hi) for arc in mount_arcs]
            offsets = [o for o in offsets if o is not None]
            if not offsets:
                continue
            slants.append(distance / math.cos(math.radians(min(offsets, key=abs))))
            if slants[-1] <= mount.sensor.range_max * (1.0 + RANGE_REL_TOL):
                seen_by.append(mount.sensor.id)
        results[surface] = SurfaceCoverage(
            visible=bool(seen_by),
            beyond_range=bool(slants) and not seen_by,
            min_slant_m=min(slants, default=None),
            seen_by=tuple(dict.fromkeys(seen_by)),
        )
    return CoverageReport(surfaces=results)


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
    usable = far_anchor_usable(far_sensor, boom_length_m) and near_anchor_usable(near_sensor, boom_length_m)
    overlap = near_sensor.range_max - far_start
    reaches_in = near_sensor.range_min < threshold
    blind_band = max(0.0, threshold - near_sensor.range_max) if reaches_in else threshold
    valid = usable and overlap > 0
    marginal = usable and not valid
    return StagePlan(
        far_sensor_id=far_sensor.id,
        near_sensor_id=near_sensor.id,
        near_field_max=threshold,
        far_field_min=far_start,
        far_field_max=min(far_sensor.range_max, max(boom_length_m, FAR_RANGE_CREDIT_CAP_M)),
        overlap=overlap,
        blind_band=blind_band,
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
    """Whether a ranged sensor can be the far stage of a plan, valid or
    marginal: it covers from the near-field boundary out to the full boom length."""
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
