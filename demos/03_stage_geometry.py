"""Walkthrough: two-stage sensing geometry.

Near-field starts at one-third of the boom length.  Inside it, the tip
sensor must resolve grasp-sized features (25 mm^2 per measurement);
outside it, the body sensor must reach the full boom length with some
switchover overlap.  Tilted spinning mounts widen what the body can see.
"""

from boomsuite import (
    Mount,
    TubeSection,
    bundled_path,
    effective_vertical_fov,
    feature_resolvable,
    footprint_at_range,
    load_catalog,
    load_mission,
    near_field_threshold,
    section_coverage,
    stage_plan,
    strategy_recommend,
)
from boomsuite.reporting import coverage_table, render_prose, stage_plan_lines

catalog = load_catalog(bundled_path("paper_catalog.yaml"))
mission = load_mission(bundled_path("paper_mission.yaml"))
boundary = near_field_threshold(mission.boom_length)
print(f"near-field boundary for a {mission.boom_length} m boom: {boundary:.2f} m\n")

tube = TubeSection(depth=mission.tube_depth, width=mission.tube_width)
print(f"strategy for this tube: {strategy_recommend(mission.boom_length, tube).value}\n")

# Footprints at the handoff range: the 3D camera resolves a 50 mm grasp
# feature with margin; a scanning unit at full reach does not come close.
d435i, vlp16, zed2 = catalog.get("d435i"), catalog.get("vlp16"), catalog.get("zed2")
for sensor, r in ((d435i, boundary), (vlp16, mission.boom_length)):
    fp = footprint_at_range(sensor, r)
    ok, count = feature_resolvable(sensor, r, 50)
    verdict = "resolves" if ok else "cannot resolve"
    print(
        f"{sensor.name} at {r:.2f} m: {fp.width_mm:.1f} x {fp.height_mm:.1f} mm "
        f"({fp.area_mm2:.1f} mm^2) -> {verdict} a 50 mm feature ({count} hits)"
    )
print()

# A 30 deg fan spun on a 45 deg tilt turns into 120 deg of vertical view.
for tilt in (0, 30, 45, 60):
    print(f"tilt {tilt:>2} deg, spinning: effective vertical FOV "
          f"{effective_vertical_fov(30, tilt, spinning=True):.0f} deg")
print()

# Coverage in a 30 m x 30 m working slice: two opposed tilted pucks see
# floor, both walls and ceiling; an untilted one misses the ceiling.
slice_tube = TubeSection(depth=30, width=30)
dual = [Mount(vlp16, 45, True), Mount(vlp16, -45, True)]
print(coverage_table(section_coverage(dual, slice_tube), "table",
                     title="dual pucks at +/-45 deg, spinning"))
print()
single = [Mount(vlp16, 0, True)]
print(coverage_table(section_coverage(single, slice_tube), "table",
                     title="single untilted puck"))
print()

# Stage handoff: the 3 m camera leaves a blind band below the 3.33 m
# boundary; the 20 m stereo unit hands off with plenty of overlap.
for near in (d435i, zed2):
    print("\n".join(render_prose(stage_plan_lines(stage_plan(vlp16, near, mission.boom_length)))))
    print()
