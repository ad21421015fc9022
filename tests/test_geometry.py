"""Footprints, effective FOV, cross-section coverage, and stage plans."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boomsuite.catalog import FieldOfView, Modality, PixelGrid, ScanPattern, SensorRecord
from boomsuite.geometry import (
    Mount,
    Strategy,
    TubeSection,
    effective_vertical_fov,
    far_anchor_usable,
    feature_resolvable,
    footprint_at_range,
    near_anchor_usable,
    near_field_threshold,
    section_coverage,
    stage_anchor,
    stage_plan,
    strategy_recommend,
)

from oracles import coverage_by_sampling, pixel_footprint_by_rays, scan_footprint_by_chord


def _sensor(**kwargs):
    base = dict(id="t", name="t", modality=Modality.LIDAR, mass=100, price=10)
    base.update(kwargs)
    return SensorRecord(**base)


# ---------------------------------------------------------------------------
# near-field threshold


def test_threshold_is_one_third_of_boom():
    assert near_field_threshold(10) == pytest.approx(10 / 3)
    assert near_field_threshold(3) == 1
    assert near_field_threshold(30) == 10


def test_threshold_rejects_nonpositive():
    with pytest.raises(ValueError):
        near_field_threshold(0)


# ---------------------------------------------------------------------------
# footprints


def test_pixel_footprint_matches_ray_oracle(catalog):
    d435 = catalog.get("d435i")
    r = 10 / 3
    fp = footprint_at_range(d435, r)
    ow, oh = pixel_footprint_by_rays(1920, 1080, 87, 58, r)
    assert fp.width_mm == pytest.approx(ow, rel=1e-9)
    assert fp.height_mm == pytest.approx(oh, rel=1e-9)
    # frozen values: 3.295 x 3.422 mm, 11.27 mm^2 -- inside the 25 mm^2 bound
    assert fp.width_mm == pytest.approx(3.2950158566, rel=1e-9)
    assert fp.height_mm == pytest.approx(3.4216608114, rel=1e-9)
    assert fp.area_mm2 == pytest.approx(11.2744266298, rel=1e-9)
    assert fp.area_mm2 <= 25.0


def test_scan_footprint_matches_chord_oracle_closely(catalog):
    vlp = catalog.get("vlp16")
    fp = footprint_at_range(vlp, 10)
    ow, oh = scan_footprint_by_chord(0.1, 0.4, 10)
    # small-angle arc vs exact chord: relative error below 0.01%
    assert fp.width_mm == pytest.approx(ow, rel=1e-4)
    assert fp.height_mm == pytest.approx(oh, rel=1e-4)
    assert fp.width_mm == pytest.approx(17.4532925199, rel=1e-9)
    assert fp.height_mm == pytest.approx(69.8131700798, rel=1e-9)
    assert fp.area_mm2 == pytest.approx(1218.4696791, rel=1e-8)
    assert fp.area_mm2 > 25.0


def test_footprint_vanishes_at_zero_range(catalog):
    area = footprint_at_range(catalog.get("d435i"), 1e-9).area_mm2
    assert area < 1e-6


def test_footprint_requires_specs(catalog):
    with pytest.raises(ValueError):
        footprint_at_range(catalog.get("iphone12"), 5)  # no resolution at all
    with pytest.raises(ValueError):
        footprint_at_range(catalog.get("cygbot_mini"), 1)  # pixel grid, no vertical FOV
    with pytest.raises(ValueError):
        footprint_at_range(catalog.get("d435i"), 0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=50))
def test_footprint_area_scales_with_range_squared(r):
    pixel = _sensor(
        resolution=PixelGrid(1000, 800),
        fov=FieldOfView(horizontal_deg=80, vertical_deg=50),
    )
    scan = _sensor(resolution=ScanPattern(0.2, 0.5))
    for sensor in (pixel, scan):
        a1 = footprint_at_range(sensor, r).area_mm2
        a2 = footprint_at_range(sensor, 2 * r).area_mm2
        assert a2 / a1 == pytest.approx(4.0, rel=1e-9)


def test_feature_resolvable_reference_counts(catalog):
    ok, count = feature_resolvable(catalog.get("d435i"), 10 / 3, 50)
    assert ok
    assert count == 174  # pi*25^2 / 11.2744 = 174.15, floored
    ok, count = feature_resolvable(catalog.get("vlp16"), 10, 50)
    assert not ok
    assert count == 1


def test_feature_resolvable_inclusive_boundary():
    # footprint engineered to exactly 5 mm x 5 mm at 1 m
    step = math.degrees(0.005)
    sensor = _sensor(resolution=ScanPattern(step, step))
    fp = footprint_at_range(sensor, 1.0)
    assert fp.area_mm2 == pytest.approx(25.0, rel=1e-12)
    ok, _ = feature_resolvable(sensor, 1.0, 50)
    assert ok


# ---------------------------------------------------------------------------
# effective vertical FOV


def test_effective_vfov_reference_cases():
    assert effective_vertical_fov(30, 45, spinning=True) == 120
    assert effective_vertical_fov(30, 0, spinning=True) == 30
    assert effective_vertical_fov(30, 80, spinning=True) == 180  # clamped
    assert effective_vertical_fov(30, 45, spinning=False) == 30


@pytest.mark.parametrize("vfov, tilt", [(0, 10), (181, 10), (30, -1), (30, 90)])
def test_effective_vfov_rejects_bad_angles(vfov, tilt):
    with pytest.raises(ValueError):
        effective_vertical_fov(vfov, tilt, spinning=True)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1, max_value=180),
    st.floats(min_value=0, max_value=89.9),
    st.floats(min_value=0, max_value=10),
    st.booleans(),
)
def test_effective_vfov_monotone_and_bounded(vfov, tilt, bump, spinning):
    base = effective_vertical_fov(vfov, tilt, spinning)
    assert base <= 180
    if vfov + bump <= 180:
        assert effective_vertical_fov(vfov + bump, tilt, spinning) >= base
    if tilt + bump < 90:
        assert effective_vertical_fov(vfov, tilt + bump, spinning) >= base


# ---------------------------------------------------------------------------
# cross-section coverage


def _vlp_like(range_max=100.0):
    return _sensor(fov=FieldOfView(horizontal_deg=360, vertical_deg=30), range_min=0.0, range_max=range_max)


def test_dual_tilted_spinning_units_see_every_surface():
    tube = TubeSection(depth=30, width=30)
    mounts = [Mount(_vlp_like(), 45, True), Mount(_vlp_like(), -45, True)]
    report = section_coverage(mounts, tube)
    assert report.all_visible
    # nearest ceiling sighting is at the 60 deg coverage edge: 15/sin(60)
    assert report.surfaces["ceiling"].min_slant_m == pytest.approx(15 / math.sin(math.radians(60)))
    assert report.surfaces["right_wall"].min_slant_m == pytest.approx(15.0)


def test_untilted_unit_cannot_see_the_ceiling():
    tube = TubeSection(depth=30, width=30)
    report = section_coverage([Mount(_vlp_like(), 0, True)], tube)
    assert not report.surfaces["ceiling"].visible
    assert not report.surfaces["ceiling"].beyond_range  # never covered at all
    assert report.surfaces["right_wall"].visible


def test_wide_tube_walls_flagged_beyond_range():
    tube = TubeSection(depth=30, width=300)
    mounts = [Mount(_vlp_like(range_max=100.0), 45, True), Mount(_vlp_like(range_max=100.0), -45, True)]
    report = section_coverage(mounts, tube)
    assert report.surfaces["floor"].visible and report.surfaces["ceiling"].visible
    for wall in ("right_wall", "left_wall"):
        assert not report.surfaces[wall].visible
        assert report.surfaces[wall].beyond_range
        assert report.surfaces[wall].min_slant_m == pytest.approx(150.0)


def test_a_surface_exactly_at_range_reads_visible():
    """A static mount whose arc ends at 120 degrees meets the left wall,
    width/2 away, 60 degrees off its normal: at a slant of exactly the
    width.  Rounding puts the computed slant a few ulps either side of it;
    the wall must read visible at that range and not at one shorter by a
    part in 10^9."""
    rng = random.Random(20261018)
    for _ in range(200):
        half = rng.randint(301, 600) / 10  # half the vertical FOV
        tilt = round(120 - half, 1)
        width = rng.choice([8, 10, 12, 16, 20])
        tube = TubeSection(depth=rng.choice([40, 50]), width=width)
        for range_max, visible in ((width, True), (width * (1 - 1e-9), False)):
            sensor = _sensor(fov=FieldOfView(horizontal_deg=360, vertical_deg=2 * half), range_max=range_max)
            wall = section_coverage([Mount(sensor, tilt)], tube).surfaces["left_wall"]
            assert wall.visible is visible, (tube, tilt, 2 * half, range_max, wall.min_slant_m)
            assert wall.min_slant_m == pytest.approx(width, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    depth=st.floats(min_value=2, max_value=60),
    width=st.floats(min_value=2, max_value=60),
    hfrac=st.floats(min_value=0.05, max_value=0.95),
    ofrac=st.floats(min_value=-0.45, max_value=0.45),
)
def test_full_sphere_sensor_sees_everything(depth, width, hfrac, ofrac):
    sensor = _sensor(
        fov=FieldOfView(horizontal_deg=360, vertical_deg=180),
        range_min=0.0,
        range_max=math.inf,
    )
    tube = TubeSection(depth=depth, width=width, body_height=depth * hfrac, body_offset=width * ofrac)
    report = section_coverage([Mount(sensor, 0, True)], tube)
    assert report.all_visible


def test_coverage_interval_union_agrees_with_sampling_oracle():
    rng = random.Random(20240817)
    for _ in range(25):
        tube = TubeSection(
            depth=rng.uniform(4, 50),
            width=rng.uniform(4, 50),
            body_height=None,
            body_offset=0.0,
        )
        tube = TubeSection(
            depth=tube.depth,
            width=tube.width,
            body_height=rng.uniform(0.1, 0.9) * tube.depth,
            body_offset=rng.uniform(-0.4, 0.4) * tube.width,
        )
        mounts = [
            Mount(
                _sensor(
                    fov=FieldOfView(horizontal_deg=360, vertical_deg=rng.uniform(10, 120)),
                    range_min=0.0,
                    range_max=rng.uniform(5, 200),
                ),
                tilt_deg=rng.uniform(-75, 75),
                spinning=rng.random() < 0.7,
            )
            for _ in range(rng.randint(1, 3))
        ]
        report = section_coverage(mounts, tube)
        oracle = coverage_by_sampling(mounts, tube)
        x0, y0 = tube.body_point
        normal_distance = {
            "floor": y0,
            "ceiling": tube.depth - y0,
            "right_wall": tube.width / 2.0 - x0,
            "left_wall": tube.width / 2.0 + x0,
        }
        for surface, flags in oracle.items():
            assert report.surfaces[surface].visible == flags["visible"], (surface, tube, mounts)
            assert report.surfaces[surface].beyond_range == flags["beyond_range"], (surface, tube)
            slant, sampled = report.surfaces[surface].min_slant_m, flags["min_slant_m"]
            assert (slant is None) == (sampled is None), (surface, tube, mounts)
            if sampled is None:
                continue
            # the true nearest covered direction lies within one sampling
            # step of the sampled one, on the normal's side of it
            d = normal_distance[surface]
            off_normal = math.acos(min(1.0, d / sampled))
            lowest = d / math.cos(max(0.0, off_normal - math.radians(0.1)))
            assert lowest * (1 - 1e-9) <= slant <= sampled * (1 + 1e-9), (surface, slant, sampled, lowest)


def test_degenerate_tube_rejected():
    with pytest.raises(ValueError):
        TubeSection(depth=0, width=10)
    with pytest.raises(ValueError):
        TubeSection(depth=10, width=-1)
    with pytest.raises(ValueError):
        TubeSection(depth=10, width=10, body_height=10)
    with pytest.raises(ValueError):
        TubeSection(depth=10, width=10, body_offset=5)


# ---------------------------------------------------------------------------
# stage plans


def test_stage_plan_short_near_sensor_leaves_blind_band(catalog):
    far, near = catalog.get("vlp16"), catalog.get("d435i")
    plan = stage_plan(far, near, 10)
    assert (plan.valid or plan.marginal) == (far_anchor_usable(far, 10) and near_anchor_usable(near, 10))
    assert plan.blind_band == pytest.approx(1 / 3, abs=1e-12)
    assert plan.overlap == pytest.approx(-1 / 3, abs=1e-12)
    assert not plan.valid
    assert plan.marginal


def test_stage_plan_long_near_sensor_is_valid(catalog):
    plan = stage_plan(catalog.get("vlp16"), catalog.get("zed2"), 10)
    assert plan.valid and not plan.marginal
    assert plan.overlap == pytest.approx(50 / 3, abs=1e-12)
    assert plan.blind_band == 0.0
    assert plan.far_field_min == pytest.approx(10 / 3)
    assert plan.far_field_max == 20.0  # credit-capped


def test_stage_plan_identical_unbounded_sensor_is_valid():
    omni = _sensor(range_min=0.0, range_max=math.inf)
    plan = stage_plan(omni, omni, 10)
    assert plan.valid


def test_stage_plan_requires_ranges(catalog):
    with pytest.raises(ValueError):
        stage_plan(catalog.get("vlp16"), catalog.get("firefly_s"), 10)


def test_stage_plan_zero_overlap_is_invalid():
    far = _sensor(range_min=0.0, range_max=100.0)
    near = _sensor(range_min=0.1, range_max=10 / 3)
    plan = stage_plan(far, near, 10)
    assert not plan.valid and not plan.marginal
    assert plan.overlap == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("boom", [10 / 3, 3.0, 7.3, 9.0, 10.0, 0.5])
def test_plan_usability_splits_into_one_test_per_anchor(boom):
    # range ends on and around the handoff point T and the boom length L,
    # where the pair rule and the per-anchor tests could part ways
    t = near_field_threshold(boom)
    ends = sorted({
        0.0, t, boom, math.nextafter(t, 0), math.nextafter(t, math.inf),
        t - 1e-3, t + 1e-3, math.nextafter(boom, 0), math.nextafter(boom, math.inf),
        boom - 1e-3, boom + 1e-3, 2 * boom, math.inf,
    })
    sensors = [
        _sensor(id=f"r{i}-{j}", range_min=lo, range_max=hi)
        for i, lo in enumerate(ends) for j, hi in enumerate(ends) if lo < hi and lo != math.inf
    ]
    seen = set()
    for far in sensors:
        for near in sensors:
            plan = stage_plan(far, near, boom)
            usable = plan.valid or plan.marginal
            assert usable == (far_anchor_usable(far, boom) and near_anchor_usable(near, boom)), (
                far.range_min, far.range_max, near.range_min, near.range_max,
            )
            seen.add((plan.valid, plan.marginal))
    assert seen == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("range_min, range_max", [(1.0, 50.0), (0.5, 3.0)], ids=["from-L/3", "to-L"])
def test_a_far_anchor_on_either_edge_is_usable(range_min, range_max):
    # with L = 3 m the near-field boundary is 1 m; each case sits one range end on an edge
    assert far_anchor_usable(_sensor(range_min=range_min, range_max=range_max), 3.0)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["a-first", "b-first"])
def test_stage_anchor_takes_the_first_of_equal_ranges(order):
    pair = [_sensor(id="a", range_min=0.1, range_max=40.0), _sensor(id="b", range_min=0.5, range_max=40.0)]
    shorter = _sensor(id="c", range_min=0.1, range_max=20.0)
    first, second = (pair[i] for i in order)
    assert stage_anchor((shorter, first, second)) is first


@settings(max_examples=80, deadline=None)
@given(
    far_min=st.floats(min_value=0, max_value=3),
    far_max=st.floats(min_value=10, max_value=200),
    near_min=st.floats(min_value=0, max_value=2),
    near_max=st.floats(min_value=0.5, max_value=30),
    grow=st.floats(min_value=0, max_value=10),
    boom=st.floats(min_value=3, max_value=15),
)
def test_enlarging_ranges_never_invalidates_a_valid_plan(far_min, far_max, near_min, near_max, grow, boom):
    far = _sensor(range_min=far_min, range_max=far_max)
    near = _sensor(id="n", range_min=near_min, range_max=near_min + near_max)
    base = stage_plan(far, near, boom)
    if not base.valid:
        return
    bigger_far = replace(far, range_min=far_min / 2, range_max=far_max + grow)
    bigger_near = replace(near, range_min=near_min / 2, range_max=near.range_max + grow)
    assert stage_plan(bigger_far, bigger_near, boom).valid


# ---------------------------------------------------------------------------
# strategy recommendation


def test_strategy_reference_cases():
    assert strategy_recommend(10, TubeSection(depth=30, width=300)) is Strategy.TWO_STAGE
    assert strategy_recommend(1, TubeSection(depth=2, width=1.5)) is Strategy.ONE_STAGE
    # threshold is inclusive
    assert strategy_recommend(5, TubeSection(depth=2, width=1.5)) is Strategy.TWO_STAGE


def test_strategy_generous_clearance_forces_two_stage():
    assert strategy_recommend(2, TubeSection(depth=10, width=10)) is Strategy.TWO_STAGE
