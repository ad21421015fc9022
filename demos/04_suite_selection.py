"""Walkthrough: picking a feasible suite under all the constraints at once.

Selection maximizes the summed weighted scores of the chosen sensors,
subject to the body and tip mass budgets, the requirement gates, an
optional dust-redundancy constraint, and stage-plan compatibility
between the placements.
"""

from boomsuite import (
    CriterionName,
    bundled_path,
    enumerate_suites,
    load_catalog,
    load_mission,
    load_profile,
    paper_rules,
    select_best,
    sensitivity_report,
)
from boomsuite.reporting import selection_lines, sensitivity_table

catalog = load_catalog(bundled_path("paper_catalog.yaml"))
mission = load_mission(bundled_path("paper_mission.yaml"))
far = load_profile(bundled_path("far_field.profile"))
near = load_profile(bundled_path("near_field.profile"))

# The paper's placement policy: lidar or radar on the body, a camera at
# the boom tip, each within the mission's mass budget.
single = paper_rules(mission, far, near)
redundant = paper_rules(mission, far, near, redundancy=True)

# One primary unit per placement.  The far-field race ends in a tie that
# the price tie-break settles.
print(selection_lines(select_best(catalog, single, mission), "table",
                      title="one sensor per placement"))
print()

# Demand two dust-robust modalities on the body and a radar joins.
print(selection_lines(select_best(catalog, redundant, mission), "table",
                      title="with dust redundancy required"))
print()

# Exhaustive enumeration backs the search: same maximum, every feasible
# combination listed.
suites = enumerate_suites(catalog, redundant, mission)
print(f"feasible suites under the redundancy rules: {len(suites)}")
top = sorted(suites, key=lambda s: -s.aggregate_score)[:5]
for s in top:
    print(f"  score {s.aggregate_score}: body={'+'.join(s.body_sensors)} "
          f"distal={'+'.join(s.distal_sensors)} (${s.total_price:.0f})")
print()

# How sensitive is the pick to the affordability weight?  At weight 0 the
# pricier unit wins outright; by weight 2 the owned unit is back on top.
rows = sensitivity_report(catalog, single, mission, CriterionName.AFFORDABILITY, [0, 1, 2, 3, 4])
print(sensitivity_table(rows, "table", title="affordability weight sweep"))
