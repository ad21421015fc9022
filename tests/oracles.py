"""Independent oracles for cross-checking the library's closed forms.

Each oracle derives its answer by a different route than the code under
test: footprints come from explicit ray/plane intersections, coverage
from dense angular sampling with direct ray casting, and suite selection
from flat exhaustive enumeration elsewhere in the suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from boomsuite.catalog import (
    Accuracy,
    Catalog,
    FieldOfView,
    MissionConfig,
    Modality,
    Ordinal,
    PixelGrid,
    SensorRecord,
)
from boomsuite.geometry import Mount, TubeSection
from boomsuite.scoring import BinRule, Criterion, CriterionKind, CriterionName, ScoringProfile, Stage

SURFACES = ("floor", "ceiling", "right_wall", "left_wall")


# ---------------------------------------------------------------------------
# footprint oracle: explicit pinhole ray projection


def pixel_footprint_by_rays(
    width_px: int, height_px: int, fov_h_deg: float, fov_v_deg: float, range_m: float
) -> tuple[float, float]:
    """Central-pixel footprint (mm) from actual ray/plane intersections.

    Builds the pinhole image plane at focal length 1, casts rays through
    the edges of the central pixel, intersects them with the plane z = r,
    and measures the spacing of the hit points.
    """
    half_u = math.tan(math.radians(fov_h_deg) / 2.0)
    half_v = math.tan(math.radians(fov_v_deg) / 2.0)
    du = 2.0 * half_u / width_px
    dv = 2.0 * half_v / height_px
    i, j = width_px // 2, height_px // 2
    u0, u1 = -half_u + i * du, -half_u + (i + 1) * du
    v0, v1 = -half_v + j * dv, -half_v + (j + 1) * dv

    def hit(u: float, v: float) -> tuple[float, float]:
        # ray through (u, v, 1); plane z = r crossed at t = r
        return u * range_m, v * range_m
    x0, _ = hit(u0, v0)
    x1, _ = hit(u1, v0)
    _, y0 = hit(u0, v0)
    _, y1 = hit(u0, v1)
    return (x1 - x0) * 1000.0, (y1 - y0) * 1000.0


def scan_footprint_by_chord(
    h_res_deg: float, v_res_deg: float, range_m: float
) -> tuple[float, float]:
    """Adjacent-beam chord spacing (mm) on a sphere of radius r."""
    w = 2.0 * range_m * math.sin(math.radians(h_res_deg) / 2.0)
    h = 2.0 * range_m * math.sin(math.radians(v_res_deg) / 2.0)
    return w * 1000.0, h * 1000.0


# ---------------------------------------------------------------------------
# coverage oracle: dense angular sampling with direct ray casting


def _elevation_deg(theta_deg: float) -> float:
    """Elevation above horizontal of a cross-section direction."""
    return math.degrees(math.asin(math.sin(math.radians(theta_deg))))


def _direction_covered(mount: Mount, theta_deg: float) -> bool:
    fov = mount.sensor.fov
    vfov = fov.vertical_deg if fov.vertical_deg is not None else fov.horizontal_deg
    if mount.spinning:
        return abs(_elevation_deg(theta_deg)) <= abs(mount.tilt_deg) + vfov / 2.0
    # static mount faces +x; fold theta into (-180, 180]
    t = (theta_deg + 180.0) % 360.0 - 180.0
    return mount.tilt_deg - vfov / 2.0 <= t <= mount.tilt_deg + vfov / 2.0


def _ray_hit(tube: TubeSection, theta_deg: float) -> tuple[str, float]:
    """First boundary surface hit by a ray from the body, with distance."""
    w = tube.width / 2.0
    x0, y0 = tube.body_point
    dx = math.cos(math.radians(theta_deg))
    dy = math.sin(math.radians(theta_deg))
    hits = []
    if dx > 1e-15:
        hits.append(((w - x0) / dx, "right_wall"))
    if dx < -1e-15:
        hits.append(((-w - x0) / dx, "left_wall"))
    if dy > 1e-15:
        hits.append(((tube.depth - y0) / dy, "ceiling"))
    if dy < -1e-15:
        hits.append(((0.0 - y0) / dy, "floor"))
    t, surface = min(hits)
    return surface, t


def coverage_by_sampling(
    mounts: list[Mount], tube: TubeSection, step_deg: float = 0.1
) -> dict[str, dict[str, bool | float | None]]:
    """Per-surface visibility flags, and the shortest sampled slant
    (``min_slant_m``, None when no sample is covered), from a dense
    angular grid."""
    visible = {s: False for s in SURFACES}
    slant: dict[str, float | None] = {s: None for s in SURFACES}
    steps = int(round(360.0 / step_deg))
    for k in range(steps):
        theta = k * step_deg
        surface, dist = _ray_hit(tube, theta)
        for mount in mounts:
            if not _direction_covered(mount, theta):
                continue
            slant[surface] = dist if slant[surface] is None else min(slant[surface], dist)
            if dist <= mount.sensor.range_max:
                visible[surface] = True
    return {
        s: {
            "visible": visible[s],
            "beyond_range": slant[s] is not None and not visible[s],
            "min_slant_m": slant[s],
        }
        for s in SURFACES
    }


# ---------------------------------------------------------------------------
# randomized fixtures for the selector equivalence suite


def random_sensor(rng: random.Random, index: int) -> SensorRecord:
    modality = rng.choice(list(Modality))
    range_min = round(rng.uniform(0.0, 2.0), 2)
    return SensorRecord(
        id=f"s{index:02d}",
        name=f"Sensor {index}",
        modality=modality,
        mass=round(rng.uniform(5.0, 900.0), 1),
        price=float(rng.randrange(20, 7000, 10)),
        resolution=PixelGrid(640, 480),
        accuracy=Accuracy(percent=round(rng.uniform(0.5, 12.0), 2)),
        fov=FieldOfView(horizontal_deg=rng.uniform(20, 360), vertical_deg=rng.uniform(10, 120)),
        range_min=range_min,
        range_max=round(range_min + rng.uniform(0.5, 120.0), 2),
        power=round(rng.uniform(0.01, 20.0), 3),
        darkness_robust=Ordinal(rng.randint(0, 2)),
        dust_robust=Ordinal(rng.randint(0, 2)),
        implementation_ease=Ordinal(rng.randint(0, 2)),
    )


def random_catalog(rng: random.Random, size: int) -> Catalog:
    return Catalog(tuple(random_sensor(rng, i) for i in range(size)))


def random_profile(rng: random.Random, catalog: Catalog, stage: Stage) -> ScoringProfile:
    """Profile with random weights/kinds and a full random override grid,
    so every cell resolves regardless of which specs are absent."""
    criteria = []
    for name in CriterionName:
        kind = rng.choice([CriterionKind.OBJECTIVE, CriterionKind.OBJECTIVE, CriterionKind.BOTH])
        criteria.append(
            Criterion(
                name=name,
                kind=kind,
                weight=rng.randint(0, 3),
                bins=BinRule(quantity="mass_g", higher_is_better=False),
            )
        )
    overrides = {
        s.id: {name: rng.randint(0, 2) for name in CriterionName} for s in catalog
    }
    return ScoringProfile(stage=stage, criteria=tuple(criteria), overrides=overrides)


def random_mission(rng: random.Random) -> MissionConfig:
    return MissionConfig(
        boom_length=round(rng.uniform(3.0, 15.0), 1),
        boom_count=rng.randint(2, 8),
        boom_linear_density=round(rng.uniform(30.0, 120.0), 1),
        gravity=round(rng.uniform(1.0, 9.81), 2),
        gripper_mass=round(rng.uniform(0.1, 0.5), 2),
        gripper_pulloff=round(rng.uniform(10.0, 40.0), 1),
        critical_buckling_moment=round(rng.uniform(30.0, 120.0), 1),
        buckling_margin=round(rng.uniform(0.05, 0.5), 2),
        overall_mass_budget=round(rng.uniform(20.0, 40.0), 1),
        instrument_mass=round(rng.uniform(5.0, 12.0), 1),
        body_sensor_fraction=round(rng.uniform(0.1, 0.4), 2),
        tube_depth=round(rng.uniform(10.0, 50.0), 1),
        tube_width=round(rng.uniform(10.0, 300.0), 1),
    )


# ---------------------------------------------------------------------------
# builders the tests share


def only(catalog: Catalog, ids) -> Catalog:
    """The sensors of ``catalog`` whose ids are in ``ids``, in catalog order."""
    keep = set(ids)
    return Catalog(tuple(s for s in catalog if s.id in keep))


def weights_times(profile: ScoringProfile, k: int) -> ScoringProfile:
    """``profile`` with every criterion's weight multiplied by ``k``."""
    return replace(profile, criteria=tuple(replace(c, weight=c.weight * k) for c in profile.criteria))


def with_override(profile: ScoringProfile, sensor_id: str, name: CriterionName, value: int) -> ScoringProfile:
    """``profile`` with one override cell set, over any the profile has for it."""
    cells = {**profile.overrides.get(sensor_id, {}), name: value}
    return replace(profile, overrides={**profile.overrides, sensor_id: cells})
