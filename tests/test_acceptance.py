"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary
prints one pass/fail line per criterion.
"""

import random
import time

import pytest

from boomsuite.budget import boom_mass, budget_report, max_distal_sensor_mass, shoulder_moment
from boomsuite.catalog import FieldOfView, Modality, SensorRecord
from boomsuite.cli import main
from boomsuite.errors import NoFeasibleSuiteError
from boomsuite.geometry import (
    Mount,
    TubeSection,
    effective_vertical_fov,
    footprint_at_range,
    section_coverage,
    stage_plan,
)
from boomsuite.scoring import Stage, score_matrix
from boomsuite.selector import Placement, PlacementRule, enumerate_suites, select_best

from oracles import (
    coverage_by_sampling,
    random_catalog,
    random_mission,
    random_profile,
    weights_times,
    with_override,
)

FAR_SUMS = {"rsbpearl": 23, "vlp16": 26, "cygbot_mini": 20, "iphone12": 23, "os1_32": 26}
NEAR_SUMS = {"firefly_s": 14, "d435i": 24, "d455i": 20, "zed2": 23, "oak_d": 18}


def test_criterion_1_decision_matrix_reproduction(catalog, far_profile, near_profile):
    """Weighted sums match the reference tables integer-exactly, in <1s."""
    start = time.perf_counter()
    far_pool = catalog.subset(modalities=far_profile.modalities)
    far = score_matrix(far_pool, far_profile)
    near_pool = catalog.subset(modalities=near_profile.modalities)
    near = score_matrix(near_pool, near_profile)
    elapsed = time.perf_counter() - start
    assert {s: far.weighted_sums[s] for s in far_pool.ids()} == FAR_SUMS
    assert {s: near.weighted_sums[s] for s in near_pool.ids()} == NEAR_SUMS
    assert all(isinstance(v, int) for v in far.weighted_sums.values())
    assert elapsed < 1.0


def test_criterion_2_budget_reproduction(mission):
    one_boom = boom_mass(mission.boom_length, mission.boom_linear_density)
    assert one_boom == pytest.approx(0.62, abs=1e-12)
    total = one_boom * mission.boom_count
    assert total == pytest.approx(4.96, abs=1e-12)
    report = budget_report(mission)
    assert report.body_sensor_budget == pytest.approx(1.988, abs=0.02)
    # divide-by-(1+margin) reading: 0.7295 kg, within 0.01 of the round 0.72
    assert report.distal_sensor_budget == pytest.approx(0.7295, abs=1e-4)
    assert abs(report.distal_sensor_budget - 0.72) <= 0.01


def test_criterion_3_effective_vertical_fov():
    assert effective_vertical_fov(30, 45, spinning=True) == 120.0


def test_criterion_4_stage_plan_checks(catalog):
    marginal = stage_plan(catalog.get("vlp16"), catalog.get("d435i"), 10)
    assert marginal.marginal and not marginal.valid
    assert marginal.blind_band == pytest.approx(10 / 3 - 3, abs=1e-12)
    assert marginal.near_field_max == pytest.approx(10 / 3, abs=1e-12)
    good = stage_plan(catalog.get("vlp16"), catalog.get("zed2"), 10)
    assert good.valid
    assert good.overlap == pytest.approx(20 - 10 / 3, abs=1e-12)


def test_criterion_5_selection_reproduction(capsys, catalog, far_profile):
    import re

    code = main(["select", "--preset", "paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert re.search(r"body_sensors\s+vlp16\s*$", out, re.MULTILINE)
    assert re.search(r"distal_sensors\s+d435i\s*$", out, re.MULTILINE)
    # the far-field tie at 26 is reported and broken by price
    far = score_matrix(catalog.subset(modalities=far_profile.modalities), far_profile)
    assert far.weighted_sums["vlp16"] == far.weighted_sums["os1_32"] == 26
    assert "tie" in out and "os1_32" in out and "price" in out

    code = main(["select", "--preset", "paper", "--redundancy"])
    out = capsys.readouterr().out
    assert code == 0
    assert "vlp16,xm132" in out
    assert "d435i" in out


def _assert_keeps_its_rules(catalog, rules, suite):
    """Each placement of ``suite`` holds 1 to ``max_sensors`` sensors that
    pass every gate of its profile and together weigh no more than its
    budget: checked from the raw records, not by the selector."""
    for rule, ids in zip(rules, (suite.body_sensors, suite.distal_sensors)):
        assert 1 <= len(ids) <= rule.max_sensors, (rule.placement, ids)
        grams = sum(catalog.get(sensor_id).mass for sensor_id in ids)
        assert grams / 1000.0 <= rule.mass_budget, (rule.placement, ids, grams, rule.mass_budget)
        failing = score_matrix(catalog, rule.profile).failing
        assert not any(failing[sensor_id] for sensor_id in ids), (rule.placement, ids)


def test_criterion_6_oracle_equivalence_on_200_random_catalogs():
    rng = random.Random(20240501)
    start = time.perf_counter()
    feasible = infeasible = 0
    for _ in range(200):
        cat = random_catalog(rng, rng.randint(2, 12))
        far = random_profile(rng, cat, Stage.FAR_FIELD)
        near = random_profile(rng, cat, Stage.NEAR_FIELD)
        mission = random_mission(rng)
        rules = [
            PlacementRule(
                placement=Placement.BODY,
                mass_budget=rng.uniform(0.05, 2.5),
                profile=far,
                max_sensors=rng.randint(1, 2),
            ),
            PlacementRule(
                placement=Placement.DISTAL,
                mass_budget=rng.uniform(0.02, 1.0),
                profile=near,
                max_sensors=rng.randint(1, 2),
            ),
        ]
        suites = enumerate_suites(cat, rules, mission)
        if not suites:
            with pytest.raises(NoFeasibleSuiteError):
                select_best(cat, rules, mission)
            infeasible += 1
            continue
        best = select_best(cat, rules, mission)
        assert best.aggregate_score == max(s.aggregate_score for s in suites)
        _assert_keeps_its_rules(cat, rules, best)
        feasible += 1
    elapsed = time.perf_counter() - start
    assert feasible + infeasible == 200
    assert feasible > 50  # the generator must exercise real selections
    assert elapsed < 30.0


def test_criterion_7a_ranking_invariance_on_100_random_profiles():
    rng = random.Random(777)
    for _ in range(100):
        cat = random_catalog(rng, rng.randint(2, 10))
        profile = random_profile(rng, cat, Stage.FAR_FIELD)
        k = rng.randint(2, 9)
        base = score_matrix(cat, profile)
        scaled = score_matrix(cat, weights_times(profile, k))
        assert scaled.ranking == base.ranking
        top = base.ranking[0]
        tied = {s for s in cat.ids() if base.weighted_sums[s] == base.weighted_sums[top]}
        tied_scaled = {
            s for s in cat.ids() if scaled.weighted_sums[s] == scaled.weighted_sums[top]
        }
        assert tied == tied_scaled


def test_criterion_7b_weighted_sum_monotonicity():
    rng = random.Random(778)
    for _ in range(100):
        cat = random_catalog(rng, rng.randint(2, 8))
        profile = random_profile(rng, cat, Stage.FAR_FIELD)
        weighted = [c.name for c in profile.criteria if c.weight > 0]
        if not weighted:
            continue
        target = rng.choice(cat.ids())
        name = rng.choice(weighted)
        base = score_matrix(cat, profile)
        current = base.score(target, name)
        if current == 2:
            continue
        bumped = score_matrix(cat, with_override(profile, target, name, current + 1))
        assert bumped.weighted_sums[target] > base.weighted_sums[target]


def test_criterion_7c_footprint_range_squared_scaling(catalog):
    for sensor_id in ("d435i", "vlp16", "zed2", "rsbpearl"):
        sensor = catalog.get(sensor_id)
        for r in (0.5, 1.7, 3.33, 12.0):
            a1 = footprint_at_range(sensor, r).area_mm2
            a2 = footprint_at_range(sensor, 2 * r).area_mm2
            assert a2 / a1 == pytest.approx(4.0, abs=1e-9)


def test_criterion_7d_budget_fixed_point(mission):
    rng = random.Random(779)
    cases = [
        (
            mission.critical_buckling_moment,
            mission.buckling_margin,
            mission.gripper_mass,
            boom_mass(mission.boom_length, mission.boom_linear_density),
            mission.gravity,
            mission.boom_length,
        )
    ]
    for _ in range(50):
        cases.append(
            (
                rng.uniform(10, 200),
                rng.uniform(0, 0.8),
                rng.uniform(0, 1),
                rng.uniform(0, 3),
                rng.uniform(1, 15),
                rng.uniform(1, 30),
            )
        )
    for m_crit, margin, gripper, boom, g, length in cases:
        m_max = max_distal_sensor_mass(m_crit, margin, gripper, boom, g, length)
        if m_max == 0.0:
            continue
        moment = shoulder_moment(m_max, gripper, boom, g, length)
        assert abs(moment * (1 + margin) - m_crit) / m_crit <= 1e-9


def test_criterion_7e_coverage_matches_sampling_oracle_on_100_configs():
    rng = random.Random(780)
    for _ in range(100):
        depth = rng.uniform(4, 50)
        width = rng.uniform(4, 50)
        tube = TubeSection(
            depth=depth,
            width=width,
            body_height=rng.uniform(0.1, 0.9) * depth,
            body_offset=rng.uniform(-0.4, 0.4) * width,
        )
        mounts = [
            Mount(
                SensorRecord(
                    id=f"m{i}",
                    name=f"m{i}",
                    modality=Modality.LIDAR,
                    mass=100,
                    price=10,
                    fov=FieldOfView(horizontal_deg=360, vertical_deg=rng.uniform(10, 120)),
                    range_min=0.0,
                    range_max=rng.uniform(5, 200),
                ),
                tilt_deg=rng.uniform(-75, 75),
                spinning=rng.random() < 0.7,
            )
            for i in range(rng.randint(1, 3))
        ]
        report = section_coverage(mounts, tube)
        oracle = coverage_by_sampling(mounts, tube)
        for surface, flags in oracle.items():
            assert report.surfaces[surface].visible == flags["visible"]
            assert report.surfaces[surface].beyond_range == flags["beyond_range"]
