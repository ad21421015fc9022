"""Walkthrough: boom masses, body/tip budgets, and the buckling limit.

The boom is the weak link: fully outstretched and horizontal it must
carry its own weight, the gripper and whatever sensor rides the tip, all
at a lever arm of the full boom length.
"""

from boomsuite import (
    boom_mass,
    budget_report,
    bundled_path,
    load_catalog,
    load_mission,
    max_distal_sensor_mass,
    shoulder_moment,
)
from boomsuite.reporting import budget_summary_lines, budget_table

mission = load_mission(bundled_path("paper_mission.yaml"))
catalog = load_catalog(bundled_path("paper_catalog.yaml"))

one_boom = boom_mass(mission.boom_length, mission.boom_linear_density)
print(f"one {mission.boom_length} m boom at {mission.boom_linear_density} g/m: {one_boom} kg")
print(f"{mission.boom_count} booms: {one_boom * mission.boom_count} kg\n")

# Envelope plus a concrete loadout: dual pucks + dual radar on the body
# (1.7 kg) and one 3D camera on each tip (0.26 kg).
report = budget_report(mission, distal_sensor_mass_kg=0.26, body_sensor_mass_kg=1.7)
print(budget_table(report, "table", title="envelope and margins", before=budget_summary_lines(report)))
print()

# Which catalog sensors could ride the tip at all?
limit = report.distal_sensor_budget
print(f"tip budget {limit:.4f} kg -> tip-eligible sensors by mass:")
for sensor in catalog:
    verdict = "fits" if sensor.mass_kg <= limit else "too heavy"
    print(f"  {sensor.name:<24} {sensor.mass_kg:>6.3f} kg  {verdict}")
print()

# The tip budget collapses fast with boom length: the moment arm grows
# linearly while the allowable moment stays fixed.
print("boom length sweep (tip budget, shoulder moment at that budget):")
for length in (5, 8, 10, 12, 15, 20):
    budget = max_distal_sensor_mass(
        mission.critical_buckling_moment,
        mission.buckling_margin,
        mission.gripper_mass,
        boom_mass(length, mission.boom_linear_density),
        mission.gravity,
        length,
    )
    moment = shoulder_moment(
        budget,
        mission.gripper_mass,
        boom_mass(length, mission.boom_linear_density),
        mission.gravity,
        length,
    )
    print(f"  L={length:>2} m: up to {budget:.4f} kg (moment {moment:.2f} N*m)")
