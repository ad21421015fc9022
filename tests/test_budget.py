"""Mass/buckling budget arithmetic and its consistency properties."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boomsuite.budget import boom_mass, budget_report, max_distal_sensor_mass, shoulder_moment
from boomsuite.catalog import MissionConfig

# frozen reference values, each computed by direct evaluation of the
# governing expressions with the mission constants
PAPER_DISTAL_BUDGET = 0.729487870619946      # 59.8/1.25/37.1 - 0.25 - 0.31
PAPER_MOMENT_AT_072 = 47.488                 # (0.72+0.25+0.31)*3.71*10
PAPER_MOMENT_NO_SENSOR = 20.776              # (0.25+0.31)*3.71*10
DISTAL_BUDGET_L20 = 0.084743935309973        # 59.8/1.25/74.2 - 0.25 - 0.31


def test_boom_mass_reference():
    assert boom_mass(10, 62) == pytest.approx(0.62, abs=1e-12)


def test_boom_mass_scales_across_booms():
    assert boom_mass(10, 62) * 8 == pytest.approx(4.96, abs=1e-12)


def test_boom_mass_tiny():
    assert boom_mass(0.001, 62) == pytest.approx(6.2e-5, rel=1e-12)


@pytest.mark.parametrize("length, density", [(0, 62), (-1, 62), (10, 0), (10, -5)])
def test_boom_mass_rejects_nonpositive(length, density):
    with pytest.raises(ValueError):
        boom_mass(length, density)


def test_body_budget_reference(mission):
    assert budget_report(mission).body_sensor_budget == pytest.approx(1.988, abs=1e-12)


def test_body_budget_floors_at_zero_when_booms_and_instruments_exhaust_it(mission):
    report = budget_report(dataclasses.replace(mission, instrument_mass=100))
    assert report.body_sensor_budget == 0.0
    assert not report.feasible
    assert report.reasons == {"body_sensor_budget": (
        "booms (4.9600 kg) + instruments (100.0000 kg) leave no remainder of the 30.0000 kg overall budget"
    )}


def test_body_budget_is_its_fraction_of_the_remainder(mission):
    report = budget_report(dataclasses.replace(mission, body_sensor_fraction=0.5))
    assert report.body_sensor_budget == pytest.approx(0.5 * (30 - 4.96 - 15.1), abs=1e-12)


def test_shoulder_moment_reference_values():
    assert shoulder_moment(0.72, 0.25, 0.62, 3.71, 10) == pytest.approx(PAPER_MOMENT_AT_072)
    assert shoulder_moment(0, 0, 0, 3.71, 10) == 0
    assert shoulder_moment(0, 0.25, 0.62, 3.71, 10) == pytest.approx(PAPER_MOMENT_NO_SENSOR)


def test_shoulder_moment_rejects_negative_mass():
    with pytest.raises(ValueError):
        shoulder_moment(-0.1, 0.25, 0.62, 3.71, 10)


def test_max_distal_mass_reference():
    got = max_distal_sensor_mass(59.8, 0.25, 0.25, 0.62, 3.71, 10)
    assert got == pytest.approx(PAPER_DISTAL_BUDGET, rel=1e-12)
    # the divide-by-(1+margin) reading lands near the rounded 0.72 kg
    # reference figure; the (1-margin) alternative gives 0.649 kg
    assert abs(got - 0.72) <= 0.01


def test_max_distal_mass_boundary_floors_at_zero():
    m_crit = 3.71 * 10 * (0.25 + 0.31)
    assert max_distal_sensor_mass(m_crit, 0.0, 0.25, 0.62, 3.71, 10) == pytest.approx(0.0, abs=1e-12)
    assert max_distal_sensor_mass(1e-6, 0.25, 0.25, 0.62, 3.71, 10) == 0.0


def test_max_distal_mass_longer_boom():
    got = max_distal_sensor_mass(59.8, 0.25, 0.25, 0.62, 3.71, 20)
    assert got == pytest.approx(DISTAL_BUDGET_L20, rel=1e-12)


def test_pulloff_reference(mission):
    report = budget_report(mission)
    assert report.feasible
    assert (report.pulloff_capacity, report.pulloff_margin) == (180, pytest.approx(68.7))


def test_pulloff_single_gripper_infeasible(mission):
    report = budget_report(dataclasses.replace(mission, boom_count=1))
    assert not report.feasible
    assert report.pulloff_margin < 0
    reason = "weight on grippers 111.3000 N exceeds pulloff capacity 22.5000 N"
    assert report.reasons == {"pulloff_margin": reason}


def test_pulloff_weighs_the_overall_budget_not_the_loadout(mission):
    assert budget_report(mission, 0.7, 1.9).pulloff_margin == budget_report(mission).pulloff_margin


def test_budget_report_feasible_architecture(mission):
    report = budget_report(mission, distal_sensor_mass_kg=0.26, body_sensor_mass_kg=1.7)
    assert report.feasible
    assert report.boom_mass == pytest.approx(0.62, abs=1e-12)
    assert report.total_boom_mass == pytest.approx(4.96, abs=1e-12)
    assert report.body_sensor_budget == pytest.approx(1.988, abs=1e-12)
    assert report.distal_sensor_budget == pytest.approx(PAPER_DISTAL_BUDGET, rel=1e-12)


def test_budget_report_overweight_distal_is_infeasible(mission):
    report = budget_report(mission, distal_sensor_mass_kg=0.92)
    assert not report.feasible
    assert "distal_margin" in report.reasons


def test_budget_report_zero_masses_feasible(mission):
    assert budget_report(mission).feasible


def test_a_tip_budget_gripper_and_boom_exhaust_is_infeasible_with_no_tip_mass(mission):
    report = budget_report(dataclasses.replace(mission, critical_buckling_moment=0.001))
    assert report.distal_sensor_budget == 0.0
    assert report.shoulder_moment == pytest.approx(PAPER_MOMENT_NO_SENSOR)
    assert not report.feasible
    assert report.reasons == {"distal_sensor_budget": (
        "gripper and boom moment 20.7760 N*m exceeds the allowable 0.0008 N*m, "
        "leaving no distal sensor budget"
    )}


@pytest.mark.parametrize("masses, key, reason", [
    ({"distal_sensor_mass_kg": 0.8}, "distal_margin",
     "distal sensor mass 0.8000 kg exceeds budget 0.7295 kg"),
    ({"distal_sensor_mass_kg": 0.7295}, "distal_margin",
     "distal sensor mass 0.72950 kg exceeds budget 0.72949 kg"),
    ({"body_sensor_mass_kg": 1.988 + 1e-9}, "body_margin",
     "body sensor mass 1.988000001 kg exceeds budget 1.988000000 kg"),
    ({"body_sensor_mass_kg": 1.9880000000000002}, "body_margin",
     "body sensor mass 1.9880000000000002 kg exceeds budget 1.9880000000000000 kg"),
    # from 1e15 up a number prints in the shortest form that reads back
    ({"distal_sensor_mass_kg": 1e300}, "distal_margin",
     "distal sensor mass 1e+300 kg exceeds budget 0.7295 kg"),
])
def test_a_mass_over_budget_reads_apart_from_the_budget(mission, masses, key, reason):
    # the fewest decimals, at least 4, at which the two numbers differ
    assert budget_report(mission, **masses).reasons == {key: reason}


@pytest.mark.parametrize("key, changes, masses", [
    ("pulloff_margin", {"boom_count": 1}, {}),
    ("distal_sensor_budget", {"critical_buckling_moment": 0.001}, {}),
    ("distal_margin", {}, {"distal_sensor_mass_kg": 0.8}),
    ("body_sensor_budget", {"instrument_mass": 100}, {}),
    ("body_margin", {}, {"body_sensor_mass_kg": 2.0}),
])
def test_each_reason_is_keyed_by_the_field_it_explains(mission, key, changes, masses):
    report = budget_report(dataclasses.replace(mission, **changes), **masses)
    assert key in report.reasons
    for field in report.reasons:
        assert field in {f.name for f in dataclasses.fields(report)}
        # a margin below 0, or a budget used up
        assert getattr(report, field) < 0 if field.endswith("_margin") else getattr(report, field) == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["distal_sensor_mass_kg", "body_sensor_mass_kg"])
def test_budget_report_rejects_non_finite_masses(mission, field, value):
    # a NaN mass compares false against every budget, so it would read feasible
    with pytest.raises(ValueError, match="must be finite"):
        budget_report(mission, **{field: value})


@pytest.mark.parametrize("field", ["distal_sensor_mass_kg", "body_sensor_mass_kg"])
def test_budget_report_rejects_negative_masses(mission, field):
    # a negative mass adds margin, so an overweight loadout would read feasible
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0 kg$"):
        budget_report(mission, **{field: -1.0})


def _conditions(m: MissionConfig, distal: float, body: float) -> dict[str, tuple[float, float]]:
    """What a loadout must meet on a mission, from the physics alone, each
    as (load, limit): the shoulder moment within the margined buckling
    moment, the body mass within its share of what booms and instruments
    leave, the weight within the grippers' pull-off, and booms plus
    instruments under the overall budget."""
    one_boom = m.boom_length * m.boom_linear_density / 1000
    fixed = m.boom_count * one_boom + m.instrument_mass
    return {
        "tip": ((distal + m.gripper_mass + one_boom / 2) * m.gravity * m.boom_length,
                m.critical_buckling_moment / (1 + m.buckling_margin)),
        "body": (body, m.body_sensor_fraction * (m.overall_mass_budget - fixed)),
        "pulloff": (m.overall_mass_budget * m.gravity, m.boom_count * m.gripper_pulloff),
        "overall": (fixed, m.overall_mass_budget),
    }


def _mission(rng: random.Random) -> MissionConfig:
    """A random mission; about a third have each budget exhausted."""
    return MissionConfig(
        boom_length=rng.uniform(1, 12), boom_count=rng.randint(4, 12),
        boom_linear_density=rng.uniform(10, 100), gravity=rng.uniform(1, 10),
        gripper_mass=rng.uniform(0.05, 1), gripper_pulloff=rng.uniform(10, 60),
        critical_buckling_moment=rng.uniform(0.001, 10) if rng.random() < 1 / 3 else rng.uniform(10, 400),
        buckling_margin=rng.uniform(0.01, 0.9), overall_mass_budget=rng.uniform(5, 40),
        instrument_mass=rng.uniform(0.1, 30), body_sensor_fraction=rng.uniform(0.05, 0.95),
        tube_depth=30, tube_width=30,
    )


def test_budget_feasibility_matches_the_physics_on_random_missions(mission):
    rng = random.Random(18)
    cases = [(dataclasses.replace(mission, critical_buckling_moment=0.001), 0.0, 0.0)]
    cases += [(_mission(rng), rng.choice([0.0, rng.uniform(0, 2)]), rng.choice([0.0, rng.uniform(0, 5)]))
              for _ in range(3000)]
    seen = {"feasible": 0, "tip exhausted": 0, "body exhausted": 0}
    for m, distal, body in cases:
        conditions = _conditions(m, distal, body)
        if any(abs(limit - load) <= 1e-9 * max(abs(limit), abs(load)) for load, limit in conditions.values()):
            continue  # on an edge, where rounding decides
        fixed, overall = conditions.pop("overall")
        feasible = fixed < overall and all(load <= limit for load, limit in conditions.values())
        assert budget_report(m, distal, body).feasible is feasible, (m, distal, body)
        unloaded, allowable = _conditions(m, 0.0, 0.0)["tip"]
        seen["feasible"] += feasible
        seen["tip exhausted"] += unloaded > allowable
        seen["body exhausted"] += fixed >= overall
    assert min(seen.values()) >= 500, seen


# ---------------------------------------------------------------------------
# consistency and dimensional properties

positive = st.floats(min_value=0.01, max_value=100, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    m_crit=st.floats(min_value=1, max_value=500),
    margin=st.floats(min_value=0, max_value=0.9, exclude_max=True),
    gripper=st.floats(min_value=0, max_value=2),
    boom=st.floats(min_value=0, max_value=5),
    g=st.floats(min_value=0.5, max_value=25),
    length=st.floats(min_value=0.5, max_value=50),
)
def test_distal_budget_is_the_buckling_fixed_point(m_crit, margin, gripper, boom, g, length):
    m_max = max_distal_sensor_mass(m_crit, margin, gripper, boom, g, length)
    if m_max == 0.0:
        return  # floored: constraint already violated by boom+gripper alone
    moment = shoulder_moment(m_max, gripper, boom, g, length)
    assert moment * (1 + margin) == pytest.approx(m_crit, rel=1e-9)


def test_fixed_point_at_mission_values(mission):
    m_max = max_distal_sensor_mass(
        mission.critical_buckling_moment,
        mission.buckling_margin,
        mission.gripper_mass,
        boom_mass(mission.boom_length, mission.boom_linear_density),
        mission.gravity,
        mission.boom_length,
    )
    moment = shoulder_moment(
        m_max,
        mission.gripper_mass,
        boom_mass(mission.boom_length, mission.boom_linear_density),
        mission.gravity,
        mission.boom_length,
    )
    assert moment * (1 + mission.buckling_margin) == pytest.approx(
        mission.critical_buckling_moment, rel=1e-9
    )


@settings(max_examples=100, deadline=None)
@given(
    positive, positive, positive, st.floats(min_value=1, max_value=20), st.floats(min_value=1.01, max_value=3)
)
def test_shoulder_moment_linear_in_each_argument(m, gripper, boom, g, k):
    base = shoulder_moment(m, gripper, boom, g, 10)
    assert shoulder_moment(k * m, gripper, boom, g, 10) - base == pytest.approx(
        k * m * g * 10 - m * g * 10, rel=1e-9
    )
    assert shoulder_moment(m, gripper, boom, k * g, 10) == pytest.approx(k * base, rel=1e-9)
    assert shoulder_moment(m, gripper, boom, g, 10 * k) == pytest.approx(k * base, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    margin=st.floats(min_value=0, max_value=0.5),
    gripper=st.floats(min_value=0.01, max_value=1),
    boom=st.floats(min_value=0.01, max_value=2),
    g=st.floats(min_value=1, max_value=10),
    length=st.floats(min_value=1, max_value=20),
    bump=st.floats(min_value=1.05, max_value=2),
)
def test_distal_budget_monotonicity(margin, gripper, boom, g, length, bump):
    base = max_distal_sensor_mass(60, margin, gripper, boom, g, length)
    if base <= 0:
        return
    assert max_distal_sensor_mass(60, margin, gripper, boom, g, length * bump) < base
    assert max_distal_sensor_mass(60, margin, gripper, boom, g * bump, length) < base
    assert max_distal_sensor_mass(60, margin, gripper * bump, boom, g, length) < base
    assert max_distal_sensor_mass(60, margin, gripper, boom * bump, g, length) < base
    assert max_distal_sensor_mass(60 * bump, margin, gripper, boom, g, length) > base


def test_dimensional_audit_scaling_gravity_scales_moments(mission):
    base = budget_report(mission, 0.2, 1.0)
    doubled_g = dataclasses.replace(mission, gravity=2 * mission.gravity)
    scaled = budget_report(doubled_g, 0.2, 1.0)
    assert scaled.shoulder_moment == pytest.approx(2 * base.shoulder_moment, rel=1e-12)
    assert scaled.weight_on_grippers == pytest.approx(2 * base.weight_on_grippers, rel=1e-12)
