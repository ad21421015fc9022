"""Suite selection: reproductions, oracle equivalence, and invariants."""

import dataclasses
import random

import pytest

from boomsuite import selector
from boomsuite.budget import budget_report
from boomsuite.catalog import Catalog, MissionConfig, Modality, SensorRecord
from boomsuite.errors import EnumerationGuardError, NoFeasibleSuiteError
from boomsuite.scoring import (
    BinRule,
    Criterion,
    CriterionKind,
    CriterionName,
    ScoringProfile,
    Stage,
    score_matrix,
)
from boomsuite.selector import (
    Placement,
    PlacementRule,
    _build_slot,
    _ranked_subsets,
    _slot_subsets,
    _tie_key,
    enumerate_suites,
    paper_rules,
    select_best,
    sensitivity_report,
)

from oracles import only, random_catalog, random_mission, random_profile

# ---------------------------------------------------------------------------
# reference selections


def test_single_sensor_selection_reproduces_recommendation(catalog, mission, far_profile, near_profile):
    suite = select_best(catalog, paper_rules(mission, far_profile, near_profile), mission)
    assert suite.body_sensors == ("vlp16",)
    assert suite.distal_sensors == ("d435i",)
    # the far-field tie is reported and resolved on price
    assert any("tie" in n and "price" in n for n in suite.notes)
    assert any("os1_32" in n for n in suite.notes)


def test_redundancy_flag_adds_a_radar(catalog, mission, far_profile, near_profile):
    rules = paper_rules(mission, far_profile, near_profile, redundancy=True)
    suite = select_best(catalog, rules, mission)
    assert "vlp16" in suite.body_sensors
    radars = [sid for sid in suite.body_sensors if catalog.get(sid).modality is Modality.RADAR]
    assert len(radars) == 1
    assert suite.distal_sensors == ("d435i",)


def test_paper_rules_admit_ranging_sensors_on_the_body_and_cameras_at_the_tip(
        mission, far_profile, near_profile):
    body, distal = paper_rules(mission, far_profile, near_profile)
    envelope = budget_report(mission)
    assert (body.placement, body.modalities, body.max_sensors) == (
        Placement.BODY, (Modality.LIDAR, Modality.RADAR), 1
    )
    assert (distal.placement, distal.modalities, distal.max_sensors) == (
        Placement.DISTAL, (Modality.CAMERA2D, Modality.CAMERA3D), 1
    )
    assert (body.mass_budget, distal.mass_budget) == (
        envelope.body_sensor_budget, envelope.distal_sensor_budget
    )
    assert body.min_dust_robust_modalities == distal.min_dust_robust_modalities == 0


@pytest.mark.parametrize("body_max, expected", [(1, 2), (2, 2), (3, 3)])
def test_paper_rules_redundancy_keeps_a_larger_body_max(mission, far_profile, near_profile,
                                                        body_max, expected):
    body, distal = paper_rules(mission, far_profile, near_profile, body_max=body_max, redundancy=True)
    assert body.max_sensors == expected
    assert body.min_dust_robust_modalities == 2
    assert (distal.max_sensors, distal.min_dust_robust_modalities) == (1, 0)


def test_enumeration_includes_full_instrumented_body(catalog, mission, far_profile, near_profile):
    rules = paper_rules(
        mission, far_profile, near_profile, body_max=3, body_budget=2.0
    )
    suites = enumerate_suites(catalog, rules, mission)
    combos = {(tuple(sorted(s.body_sensors)), s.distal_sensors) for s in suites}
    assert (("awr1843", "vlp16", "xm132"), ("d435i",)) in combos
    # every enumerated suite satisfies its budgets
    for s in suites:
        assert s.body_mass <= 2.0 + 1e-12
        assert s.distal_mass <= rules[1].mass_budget + 1e-12


def test_tight_distal_budget_falls_back_to_lighter_camera(catalog, mission, far_profile, near_profile):
    rules = paper_rules(mission, far_profile, near_profile, distal_budget=0.2)
    suite = select_best(catalog, rules, mission)
    assert suite.distal_sensors == ("zed2",)  # 0.166 kg, next-best score 23


def test_a_body_set_weighing_exactly_its_budget_is_admitted(catalog, mission, far_profile, near_profile):
    rules = paper_rules(mission, far_profile, near_profile, body_budget=0.83)
    suite = select_best(catalog, rules, mission)
    assert suite.body_sensors == ("vlp16",)  # 830 g, on the budget; os1_32 only if it were shut out
    assert suite.body_mass == 0.83


def test_zero_budgets_enumerate_empty_and_selection_errors(catalog, mission, far_profile, near_profile):
    rules = paper_rules(mission, far_profile, near_profile, body_budget=0.0, distal_budget=0.0)
    assert enumerate_suites(catalog, rules, mission) == []
    with pytest.raises(NoFeasibleSuiteError) as exc:
        select_best(catalog, rules, mission)
    assert any("budget" in r for r in exc.value.reasons)


def test_unfillable_placement_enumerates_empty(catalog, mission, far_profile, near_profile):
    # a catalog with no camera at all cannot fill the distal slot
    lidars_only = catalog.subset(modalities=[Modality.LIDAR, Modality.RADAR])
    rules = paper_rules(mission, far_profile, near_profile)
    assert enumerate_suites(lidars_only, rules, mission) == []
    with pytest.raises(NoFeasibleSuiteError) as exc:
        select_best(lidars_only, rules, mission)
    assert any("modalities" in r for r in exc.value.reasons)


def test_no_feasible_suite_lists_binding_constraints(catalog, mission, far_profile, near_profile):
    rules = paper_rules(mission, far_profile, near_profile, distal_budget=0.05)
    with pytest.raises(NoFeasibleSuiteError) as exc:
        select_best(catalog, rules, mission)
    assert any("distal" in r for r in exc.value.reasons)


@pytest.mark.parametrize("placements, given", [
    pytest.param((), "none", id="none"),
    pytest.param((Placement.BODY,), "body", id="one"),
    pytest.param((Placement.BODY, Placement.BODY), "body, body", id="two-body"),
    pytest.param((Placement.BODY, Placement.DISTAL, Placement.DISTAL), "body, distal, distal", id="three"),
])
def test_a_selection_takes_one_body_rule_and_one_tip_rule(catalog, mission, far_profile, placements, given):
    rules = [PlacementRule(placement, 2.0, far_profile) for placement in placements]
    message = f"a selection takes one body rule and one distal rule; got {given}$"
    with pytest.raises(ValueError, match=message):
        select_best(catalog, rules, mission)
    with pytest.raises(ValueError, match=message):
        enumerate_suites(catalog, rules, mission)
    # checked before any weight is solved for
    with pytest.raises(ValueError, match=message):
        sensitivity_report(catalog, rules, mission, CriterionName.AFFORDABILITY, [])


def test_rules_may_come_in_either_order(catalog, mission, far_profile, near_profile):
    rules = paper_rules(mission, far_profile, near_profile)
    assert select_best(catalog, rules[::-1], mission) == select_best(catalog, rules, mission)


def test_only_the_winner_is_planned(monkeypatch, catalog, mission, far_profile, near_profile):
    pairs = _counting_stage_plan(monkeypatch)
    suite = select_best(catalog, paper_rules(mission, far_profile, near_profile), mission)
    # two finalists tie; the one that wins is the one planned
    (note,) = suite.notes
    assert note.startswith("tie at score 50 among [d435i+vlp16, d435i+os1_32]")
    assert pairs == [("vlp16", "d435i")]
    assert (suite.stage_plan.far_sensor_id, suite.stage_plan.near_sensor_id) == pairs[0]


def test_a_sensor_both_rules_admit_fills_both_placements_as_two_units(mission):
    # no rule restricts the modality, so the best sensor is best for both
    def lidar(sid, grams, usd):
        return SensorRecord(id=sid, name=sid, modality=Modality.LIDAR, mass=grams, price=usd,
                            range_min=0.0, range_max=100.0)

    catalog = Catalog((lidar("best", 100.0, 50.0), lidar("other", 80.0, 40.0)))
    scores = {"best": 7, "other": 3}
    rules = [
        PlacementRule(Placement.BODY, 0.15, _scored_profile(Stage.FAR_FIELD, scores)),
        PlacementRule(Placement.DISTAL, 0.15, _scored_profile(Stage.NEAR_FIELD, scores)),
    ]
    suite = select_best(catalog, rules, mission)
    assert (suite.body_sensors, suite.distal_sensors) == (("best",), ("best",))
    # two units: the mass counts in each placement and the price twice
    assert (suite.body_mass, suite.distal_mass, suite.total_price) == (0.1, 0.1, 100.0)
    assert suite.aggregate_score == 14
    assert (suite.stage_plan.far_sensor_id, suite.stage_plan.near_sensor_id) == ("best", "best")
    suites = enumerate_suites(catalog, rules, mission)
    assert max(suites, key=lambda s: s.aggregate_score) == suite
    assert [(s.body_sensors, s.distal_sensors) for s in suites if s.aggregate_score == 14] == [
        (("best",), ("best",))
    ]


def test_a_rule_without_modalities_considers_every_sensor_whatever_its_profile_lists(mission):
    # the profile lists lidar only, but that scopes its decision matrix, not the placement
    def sensor(sid, modality):
        return SensorRecord(id=sid, name=sid, modality=modality, mass=100.0, price=10.0,
                            range_min=0.0, range_max=100.0)

    catalog = Catalog((sensor("lidar", Modality.LIDAR), sensor("camera", Modality.CAMERA3D)))
    scores = {"lidar": 3, "camera": 7}
    far = dataclasses.replace(_scored_profile(Stage.FAR_FIELD, scores), modalities=(Modality.LIDAR,))
    rules = [
        PlacementRule(Placement.BODY, 1.0, far),
        PlacementRule(Placement.DISTAL, 1.0, _scored_profile(Stage.NEAR_FIELD, scores)),
    ]
    suite = select_best(catalog, rules, mission)
    assert suite.body_sensors == ("camera",)
    # the profile's list still picks the old pool when a rule passes it
    scoped = [dataclasses.replace(rules[0], modalities=far.modalities), rules[1]]
    assert select_best(catalog, scoped, mission).body_sensors == ("lidar",)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -0.1])
def test_placement_rule_rejects_non_finite_or_negative_budgets(far_profile, budget):
    # sum(mass) > nan is False, so a NaN budget would switch the mass check off
    with pytest.raises(ValueError, match="mass budget"):
        PlacementRule(Placement.BODY, budget, far_profile)


def test_guard_rejects_combinatorial_blowup(catalog, mission, far_profile, near_profile):
    rng = random.Random(7)
    big = random_catalog(rng, 40)
    profile = random_profile(rng, big, Stage.FAR_FIELD)
    rules = [
        PlacementRule(Placement.BODY, 50.0, profile, max_sensors=8),
        PlacementRule(Placement.DISTAL, 50.0, profile, max_sensors=8),
    ]
    with pytest.raises(EnumerationGuardError):
        enumerate_suites(big, rules, mission)


# ---------------------------------------------------------------------------
# sensitivity sweeps


def test_affordability_sweep_crossover(catalog, mission, far_profile, near_profile):
    # one camera for the tip, so the sweep moves every tip score alike
    # and only the body can cross over
    pool = Catalog(tuple(s for s in catalog if s.modality is Modality.LIDAR or s.id == "d435i"))
    rules = [
        PlacementRule(Placement.BODY, 2.0, far_profile, modalities=(Modality.LIDAR,)),
        PlacementRule(Placement.DISTAL, 2.0, near_profile, modalities=(Modality.CAMERA3D,)),
    ]
    rows = sensitivity_report(pool, rules, mission, CriterionName.AFFORDABILITY, [0, 1, 2, 3, 4])
    assert {row.distal_sensors for row in rows} == {("d435i",)}
    # with the affordability weight removed, the pricier unit wins alone
    assert rows[0].body_sensors == ("os1_32",)
    assert not any("tie" in n for n in rows[0].notes)
    # the crossover back to the cheaper unit is recorded
    assert rows[2].body_sensors == ("vlp16",)
    assert rows[2].changed
    assert any("tie" in n and "price" in n for n in rows[2].notes)
    assert rows[4].body_sensors == ("vlp16",)


def test_sweep_of_current_weight_matches_select_best(catalog, mission, far_profile, near_profile):
    rules = paper_rules(mission, far_profile, near_profile)
    current = next(c.weight for c in far_profile.criteria if c.name is CriterionName.AFFORDABILITY)
    rows = sensitivity_report(catalog, rules, mission, CriterionName.AFFORDABILITY, [current])
    suite = select_best(catalog, rules, mission)
    assert rows[0].body_sensors == suite.body_sensors
    assert rows[0].distal_sensors == suite.distal_sensors
    assert rows[0].aggregate_score == suite.aggregate_score


def test_a_negative_sweep_weight_is_rejected_as_a_criterion_weight(catalog, mission, far_profile,
                                                                   near_profile):
    rules = paper_rules(mission, far_profile, near_profile)
    with pytest.raises(ValueError, match=r"^affordability\.weight: must be a non-negative integer$"):
        sensitivity_report(catalog, rules, mission, CriterionName.AFFORDABILITY, [1, -1])


def test_all_weights_zero_breaks_tie_by_price(catalog, mission, far_profile, near_profile):
    far, near = far_profile, near_profile
    for name in CriterionName:
        far, near = far.with_weight(name, 0), near.with_weight(name, 0)
    rules = [
        PlacementRule(Placement.BODY, 2.0, far, modalities=(Modality.LIDAR,)),
        PlacementRule(Placement.DISTAL, 2.0, near, modalities=(Modality.CAMERA3D,)),
    ]
    suite = select_best(catalog, rules, mission)
    assert suite.aggregate_score == 0
    # all eligible sensors tie at 0; the cheapest of each placement wins
    assert suite.body_sensors == ("rsbpearl",)  # $3500 vs $4000 vs $6600
    assert suite.distal_sensors == ("oak_d",)  # $249, the cheapest camera
    assert any("tie" in n and "price" in n for n in suite.notes)


@pytest.mark.parametrize(
    "specs, winner, level",
    [
        # (id, grams, USD): the two best differ first at the level named,
        # and the levels after it would pick the other one
        pytest.param([("a", 300.0, 80.0), ("b", 200.0, 80.0), ("c", 100.0, 90.0)], "b", "mass", id="mass"),
        pytest.param([("b", 200.0, 80.0), ("a", 200.0, 80.0), ("c", 100.0, 90.0)], "a", "id", id="id"),
    ],
)
def test_a_tie_is_broken_and_named_at_the_first_level_that_differs(mission, specs, winner, level):
    sensors = [SensorRecord(id=i, name=i, modality=Modality.LIDAR, mass=g, price=usd,
                            range_min=0.0, range_max=100.0) for i, g, usd in specs]
    tip = SensorRecord(id="tip", name="tip", modality=Modality.CAMERA3D, mass=50.0, price=10.0,
                       range_min=0.3, range_max=6.0)
    rules = [
        PlacementRule(Placement.BODY, 5.0, _scored_profile(Stage.FAR_FIELD, {i: 7 for i, _, _ in specs}),
                      modalities=(Modality.LIDAR,)),
        PlacementRule(Placement.DISTAL, 5.0, _scored_profile(Stage.NEAR_FIELD, {"tip": 0}),
                      modalities=(Modality.CAMERA3D,)),
    ]
    suite = select_best(Catalog((*sensors, tip)), rules, mission)
    assert (suite.body_sensors, suite.distal_sensors) == ((winner,), ("tip",))
    assert suite.aggregate_score == 7
    (note,) = suite.notes
    assert note.endswith(f"; broken by {level}")
    assert note.startswith(f"tie at score 7 among [{winner}+tip, ")


# ---------------------------------------------------------------------------
# randomized oracle equivalence and invariants


def _random_rules(rng, catalog, stage_profiles):
    far, near = stage_profiles
    return [
        PlacementRule(
            placement=Placement.BODY,
            mass_budget=rng.uniform(0.05, 2.5),
            profile=far,
            max_sensors=rng.randint(1, 2),
            min_dust_robust_modalities=rng.choice([0, 0, 2]),
        ),
        PlacementRule(
            placement=Placement.DISTAL,
            mass_budget=rng.uniform(0.02, 1.0),
            profile=near,
            max_sensors=rng.randint(1, 2),
        ),
    ]


def _feasibility_invariants(suite, rules, catalog):
    assert suite.body_mass <= rules[0].mass_budget + 1e-12
    assert suite.distal_mass <= rules[1].mass_budget + 1e-12
    assert len(suite.body_sensors) <= rules[0].max_sensors
    assert len(suite.distal_sensors) <= rules[1].max_sensors
    for rule, chosen in ((rules[0], suite.body_sensors), (rules[1], suite.distal_sensors)):
        pool = only(catalog, chosen)
        matrix = score_matrix(pool, rule.profile)
        assert not any(matrix.failing[sid] for sid in chosen)
    assert suite.stage_plan.valid or suite.stage_plan.marginal


def test_select_best_equals_enumeration_on_random_instances():
    rng = random.Random(1234)
    feasible_cases = 0
    for _ in range(60):
        cat = random_catalog(rng, rng.randint(2, 10))
        far = random_profile(rng, cat, Stage.FAR_FIELD)
        near = random_profile(rng, cat, Stage.NEAR_FIELD)
        mission = random_mission(rng)
        rules = _random_rules(rng, cat, (far, near))
        suites = enumerate_suites(cat, rules, mission)
        if not suites:
            with pytest.raises(NoFeasibleSuiteError):
                select_best(cat, rules, mission)
            continue
        best = select_best(cat, rules, mission)
        assert best.aggregate_score == max(s.aggregate_score for s in suites)
        _feasibility_invariants(best, rules, cat)
        feasible_cases += 1
    # gates, budgets and the dust constraint make feasibility sparse, but
    # the generator must still exercise a healthy number of real selections
    assert feasible_cases >= 10


def test_enumeration_is_deterministic(catalog, mission, far_profile, near_profile):
    rules = paper_rules(mission, far_profile, near_profile, body_max=2)
    first = enumerate_suites(catalog, rules, mission)
    second = enumerate_suites(catalog, rules, mission)
    assert [(s.body_sensors, s.distal_sensors) for s in first] == [
        (s.body_sensors, s.distal_sensors) for s in second
    ]


# ---------------------------------------------------------------------------
# lazy best-first search: draw order and work done


def test_ranked_subsets_draw_every_admissible_subset_once_in_score_order():
    rng = random.Random(31)
    for _ in range(40):
        cat = random_catalog(rng, rng.randint(1, 9))
        rule = PlacementRule(
            placement=Placement.BODY,
            mass_budget=rng.uniform(0.05, 2.5),
            profile=random_profile(rng, cat, Stage.FAR_FIELD),
            max_sensors=rng.randint(1, 4),
            min_dust_robust_modalities=rng.choice([0, 0, 2]),
        )
        slot = _build_slot(cat, rule)
        drawn = list(_ranked_subsets(slot))
        ids = [tuple(s.id for s in subset) for _, subset in drawn]
        assert len(ids) == len(set(ids))
        assert set(ids) == {tuple(s.id for s in subset) for subset in _slot_subsets(slot)}
        scores = [score for score, _ in drawn]
        assert scores == sorted(scores, reverse=True)
        assert scores == [sum(slot.score(s.id) for s in subset) for _, subset in drawn]


def _counting_stage_plan(monkeypatch):
    """Record every (far id, near id) pair select_best plans."""
    pairs = []
    original = selector.stage_plan

    def counted(far, near, boom_length_m):
        pairs.append((far.id, near.id))
        return original(far, near, boom_length_m)

    monkeypatch.setattr(selector, "stage_plan", counted)
    return pairs


def _suite_tie_key(catalog, suite):
    """``_tie_key`` of a built suite, from its sensors' records."""
    return _tie_key(*(tuple(map(catalog.get, ids)) for ids in (suite.body_sensors, suite.distal_sensors)))


def _scored_profile(stage, scores):
    """Weights 4/2/1 on three criteria, so each sensor's weighted sum is
    the 0..7 score given for it."""
    weighted = (CriterionName.RESOLUTION, CriterionName.ACCURACY, CriterionName.FOV)
    criteria = tuple(
        Criterion(
            name=name,
            kind=CriterionKind.OBJECTIVE,
            weight={weighted[0]: 4, weighted[1]: 2, weighted[2]: 1}.get(name, 0),
            bins=BinRule(quantity="mass_g", higher_is_better=False),
        )
        for name in CriterionName
    )
    overrides = {
        sid: {
            name: (score >> (2 - weighted.index(name))) & 1 if name in weighted else 0
            for name in CriterionName
        }
        for sid, score in scores.items()
    }
    return ScoringProfile(stage=stage, criteria=criteria, overrides=overrides)


def test_dead_body_anchors_are_skipped_without_a_tip_walk(monkeypatch):
    # Boom 9 m: a far-field anchor must reach 9 m.  The short-range lidars
    # score highest but cannot, so every body subset they anchor is dead;
    # the best live body pairs one of them with a long-range radar.
    def sensor(sid, modality, rmin, rmax, mass):
        return SensorRecord(id=sid, name=sid, modality=modality, mass=mass, price=100.0,
                            range_min=rmin, range_max=rmax)

    body = [sensor(f"short{i}", Modality.LIDAR, 0.5, 6.0 + i / 2, 100.0) for i in range(4)]
    body += [sensor(f"long{i}", Modality.RADAR, 1.0, 40.0 + i, 100.0 + i) for i in range(2)]
    tips = [sensor(f"cam{i}", Modality.CAMERA3D, 0.2, 4.0 + i / 10, 50.0 + i) for i in range(6)]
    catalog = Catalog(tuple(body + tips))
    scores = {"short0": 7, "short1": 7, "short2": 6, "short3": 6, "long0": 2, "long1": 1}
    scores.update({f"cam{i}": 6 - i for i in range(6)})
    mission = MissionConfig(
        boom_length=9.0, boom_count=8, boom_linear_density=77.5, gravity=3.71,
        gripper_mass=0.25, gripper_pulloff=25.0, critical_buckling_moment=60.0,
        buckling_margin=0.2, overall_mass_budget=30.0, instrument_mass=8.0,
        body_sensor_fraction=0.25, tube_depth=30.0, tube_width=30.0,
    )
    rules = [
        PlacementRule(Placement.BODY, 5.0, _scored_profile(Stage.FAR_FIELD, scores),
                      max_sensors=2, modalities=(Modality.LIDAR, Modality.RADAR)),
        PlacementRule(Placement.DISTAL, 5.0, _scored_profile(Stage.NEAR_FIELD, scores),
                      max_sensors=2, modalities=(Modality.CAMERA3D,)),
    ]
    suites = enumerate_suites(catalog, rules, mission)
    top = max(s.aggregate_score for s in suites)
    expected = min((s for s in suites if s.aggregate_score == top), key=lambda s: _suite_tie_key(catalog, s))

    pairs = _counting_stage_plan(monkeypatch)
    best = select_best(catalog, rules, mission)
    assert dataclasses.replace(best, notes=()) == expected
    assert best.body_sensors == ("short0", "long0")
    # only the winner is planned: the dead lidar anchors are turned away
    # by their own range test, unplanned
    assert pairs == [("long0", "cam1")]


@pytest.mark.parametrize("seed", range(6))
def test_five_sensors_per_slot_on_120_sensors_plans_each_anchor_pair_once(monkeypatch, seed):
    # about 1.9e8 subsets per slot: finishing at all needs the lazy draw
    rng = random.Random(seed)
    cat = random_catalog(rng, 120)
    far = random_profile(rng, cat, Stage.FAR_FIELD)
    near = random_profile(rng, cat, Stage.NEAR_FIELD)
    mission = random_mission(rng)
    rules = [
        PlacementRule(Placement.BODY, 10.0, far, max_sensors=5),
        PlacementRule(Placement.DISTAL, 10.0, near, max_sensors=5),
    ]
    pairs = _counting_stage_plan(monkeypatch)
    best = select_best(cat, rules, mission)
    assert len(best.body_sensors) == len(best.distal_sensors) == 5
    _feasibility_invariants(best, rules, cat)
    assert pairs == [(best.stage_plan.far_sensor_id, best.stage_plan.near_sensor_id)]


def test_a_placement_no_sensor_can_anchor_is_turned_away_without_a_walk(monkeypatch):
    # 40 body sensors that reach at most 8 m on a 10 m boom: 102,090
    # subsets of up to four, none of which has a far-stage anchor
    rng = random.Random(0)
    mission = dataclasses.replace(random_mission(rng), boom_length=10.0)
    cat = Catalog(tuple(
        dataclasses.replace(s, range_max=min(s.range_max, 8.0)) for s in random_catalog(rng, 40)
    ))
    scores = {s.id: rng.randint(0, 7) for s in cat}
    rules = [
        PlacementRule(Placement.BODY, 1000.0, _scored_profile(Stage.FAR_FIELD, scores), max_sensors=4),
        PlacementRule(Placement.DISTAL, 1000.0, _scored_profile(Stage.NEAR_FIELD, scores)),
    ]
    calls = 0
    original = selector.stage_anchor

    def counted(sensors):
        nonlocal calls
        calls += 1
        return original(sensors)

    monkeypatch.setattr(selector, "stage_anchor", counted)
    with pytest.raises(NoFeasibleSuiteError) as exc:
        select_best(cat, rules, mission)
    assert exc.value.reasons == ["no body/distal combination yields a workable stage plan"]
    assert calls < 50
