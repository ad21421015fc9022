"""Mass/buckling budget arithmetic and its consistency properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boomsuite.budget import (
    body_sensor_budget,
    boom_mass,
    budget_report,
    max_distal_sensor_mass,
    pulloff_capacity_check,
    shoulder_moment,
)
from boomsuite.errors import InfeasibleError

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


def test_body_budget_reference():
    assert body_sensor_budget(30, 4.96, 15.1, 0.20) == pytest.approx(1.988, abs=1e-12)


def test_body_budget_infeasible_remainder():
    with pytest.raises(InfeasibleError):
        body_sensor_budget(30, 30, 15.1, 0.2)


def test_body_budget_full_fraction_is_identity():
    assert body_sensor_budget(30, 4.96, 15.1, 1.0) == pytest.approx(30 - 4.96 - 15.1)


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


def test_pulloff_reference():
    ok, margin = pulloff_capacity_check(8, 22.5, 30, 3.71)
    assert ok
    assert margin == pytest.approx(68.7)


def test_pulloff_single_gripper_infeasible():
    ok, margin = pulloff_capacity_check(1, 22.5, 30, 3.71)
    assert not ok
    assert margin < 0


def test_pulloff_zero_mass_full_margin():
    ok, margin = pulloff_capacity_check(8, 22.5, 0, 3.71)
    assert ok and margin == 180


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
    assert any("distal" in r for r in report.reasons)


def test_budget_report_zero_masses_feasible(mission):
    assert budget_report(mission).feasible


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
    import dataclasses
    doubled_g = dataclasses.replace(mission, gravity=2 * mission.gravity)
    scaled = budget_report(doubled_g, 0.2, 1.0)
    assert scaled.shoulder_moment == pytest.approx(2 * base.shoulder_moment, rel=1e-12)
    assert scaled.weight_on_grippers == pytest.approx(2 * base.weight_on_grippers, rel=1e-12)
