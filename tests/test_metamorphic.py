"""Metamorphic relations of ``select_best``.

Each test solves seeded instances, changes each one in a way whose effect
on the answer is known, solves again and compares the two answers.  No
expected suite is needed, so the checks hold at any catalog size (Chen,
Cheung and Yiu, "Metamorphic testing", HKUST-CS98-01, 1998).  They run at
the exhaustive oracles' sizes and at 120 sensors, and read only public
names.

A third of the small draws give every sensor one mass and one price, so
that ties run down to the id level of the tie-break.
"""

import random
from dataclasses import replace
from functools import lru_cache

import pytest

from boomsuite import (
    Catalog,
    CriterionName,
    NoFeasibleSuiteError,
    Placement,
    PlacementRule,
    Stage,
    near_field_threshold,
    score_matrix,
    select_best,
)

from oracles import only, random_catalog, random_mission, random_profile, random_sensor, weights_times

SMALL = [(seed, 3 + seed % 10) for seed in range(240)]
LARGE = [(1000 + seed, 120) for seed in range(4)]


@lru_cache(maxsize=None)
def _draw(seed, n):
    """A seeded instance: catalog, (body rule, tip rule), mission, and its answer."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, n)
    if n < 120 and rng.random() < 1 / 3:
        catalog = Catalog(tuple(replace(s, mass=100.0, price=100.0) for s in catalog))
    far, near = (random_profile(rng, catalog, stage) for stage in (Stage.FAR_FIELD, Stage.NEAR_FIELD))
    rules = (
        PlacementRule(Placement.BODY, rng.uniform(0.05, 2.5), far, max_sensors=rng.randint(1, 3),
                      min_dust_robust_modalities=rng.choice([0, 0, 2])),
        PlacementRule(Placement.DISTAL, rng.uniform(0.02, 1.0), near, max_sensors=rng.randint(1, 3)),
    )
    mission = random_mission(rng)
    return catalog, rules, mission, _solve(catalog, rules, mission)


def _solve(catalog, rules, mission):
    try:
        return select_best(catalog, list(rules), mission)
    except NoFeasibleSuiteError:
        return None


def _cases(draws):
    return [(random.Random(seed), *_draw(seed, n)) for seed, n in draws]


def _feasible(draws, least):
    """The cases with an answer; at least ``least`` of them, so that no
    relation holds only because nothing was feasible."""
    cases = [case for case in _cases(draws) if case[-1] is not None]
    assert len(cases) >= least
    return cases


SIZES = pytest.mark.parametrize("draws, least", [(SMALL, 60), (LARGE, 3)], ids=["oracle_sizes", "n120"])


def _choice(suite):
    """What a relation compares: the ids of each placement, sorted, the
    score and the number of tie notes."""
    if suite is None:
        return None
    return sorted(suite.body_sensors), sorted(suite.distal_sensors), suite.aggregate_score, len(suite.notes)


def _each_rule(rules, **changes):
    """``rules`` with each field in ``changes`` set by a function of the rule."""
    return tuple(replace(r, **{name: f(r) for name, f in changes.items()}) for r in rules)


@SIZES
def test_shuffling_the_catalog_keeps_the_choice(draws, least):
    for rng, catalog, rules, mission, suite in _cases(draws):
        shuffled = Catalog(tuple(rng.sample(catalog.sensors, len(catalog.sensors))))
        assert _choice(_solve(shuffled, rules, mission)) == _choice(suite)


@SIZES
def test_larger_budgets_never_lower_the_score(draws, least):
    for _, catalog, rules, mission, suite in _feasible(draws, least):
        grown = _solve(catalog, _each_rule(rules, mass_budget=lambda r: r.mass_budget * 1.5), mission)
        assert grown.aggregate_score >= suite.aggregate_score


@SIZES
def test_one_more_sensor_per_placement_never_lowers_the_score(draws, least):
    for _, catalog, rules, mission, suite in _feasible(draws, least):
        grown = _solve(catalog, _each_rule(rules, max_sensors=lambda r: r.max_sensors + 1), mission)
        assert grown.aggregate_score >= suite.aggregate_score


@SIZES
def test_scaling_every_weight_keeps_the_suite_and_scales_the_score(draws, least):
    for rng, catalog, rules, mission, suite in _cases(draws):
        c = rng.randint(2, 5)
        scaled = _solve(catalog, _each_rule(rules, profile=lambda r: weights_times(r.profile, c)), mission)
        if suite is None:
            assert scaled is None
        else:
            assert (scaled.body_sensors, scaled.distal_sensors) == (suite.body_sensors, suite.distal_sensors)
            assert scaled.aggregate_score == c * suite.aggregate_score


@SIZES
def test_adding_a_sensor_never_lowers_the_score(draws, least):
    for rng, catalog, rules, mission, suite in _feasible(draws, least):
        new = random_sensor(rng, len(catalog.sensors))
        cells = {name: rng.randint(0, 2) for name in CriterionName}
        rules = _each_rule(
            rules, profile=lambda r: replace(r.profile, overrides={**r.profile.overrides, new.id: cells})
        )
        grown = _solve(Catalog((*catalog.sensors, new)), rules, mission)
        assert grown.aggregate_score >= suite.aggregate_score


@SIZES
def test_removing_a_sensor_the_winner_does_not_use_keeps_the_suite(draws, least):
    for rng, catalog, rules, mission, suite in _feasible(draws, least):
        unused = [s.id for s in catalog if s.id not in suite.body_sensors + suite.distal_sensors]
        if not unused:
            continue
        gone = rng.choice(unused)
        smaller = _solve(only(catalog, [sid for sid in catalog.ids() if sid != gone]), rules, mission)
        assert (smaller.body_sensors, smaller.distal_sensors) == (suite.body_sensors, suite.distal_sensors)
        assert smaller.aggregate_score == suite.aggregate_score


@SIZES
def test_renaming_ids_in_their_order_keeps_the_choice(draws, least):
    for rng, catalog, rules, mission, suite in _cases(draws):
        # new ids of mixed lengths, handed out in the order of the old ones
        fresh = set()
        while len(fresh) < len(catalog.sensors):
            fresh.add("".join(rng.choices("abcxyz", k=rng.randint(1, 6))))
        names = dict(zip(sorted(catalog.ids()), sorted(fresh)))
        renamed = Catalog(tuple(replace(s, id=names[s.id]) for s in catalog))
        rules = _each_rule(rules, profile=lambda r: replace(
            r.profile, overrides={names[sid]: cells for sid, cells in r.profile.overrides.items()}
        ))
        answer = _solve(renamed, rules, mission)
        if answer is not None:
            back = {new: old for old, new in names.items()}
            answer = replace(answer, body_sensors=tuple(back[i] for i in answer.body_sensors),
                             distal_sensors=tuple(back[i] for i in answer.distal_sensors))
        assert _choice(answer) == _choice(suite)


def _dust_robust_modalities(catalog, rule, ids):
    matrix = score_matrix(only(catalog, ids), rule.profile)
    return len({catalog.get(sid).modality for sid in ids if matrix.scores[sid][CriterionName.DUST] > 0})


@SIZES
def test_tightening_each_rule_to_what_the_winner_uses_keeps_the_suite(draws, least):
    # the winner still qualifies and nothing new does, so it still wins
    for _, catalog, rules, mission, suite in _feasible(draws, least):
        tight = tuple(
            replace(rule, mass_budget=mass, max_sensors=len(ids),
                    min_dust_robust_modalities=_dust_robust_modalities(catalog, rule, ids))
            for rule, ids, mass in zip(rules, (suite.body_sensors, suite.distal_sensors),
                                       (suite.body_mass, suite.distal_mass))
        )
        kept = _solve(catalog, tight, mission)
        assert (kept.body_sensors, kept.distal_sensors) == (suite.body_sensors, suite.distal_sensors)
        assert kept.aggregate_score == suite.aggregate_score


def _moved(catalog, sensor_id, **ends):
    return Catalog(tuple(replace(s, **ends) if s.id == sensor_id else s for s in catalog))


def _partners(catalog, rules, sensor_id):
    """The sensors that may share a set with ``sensor_id``: in a placement
    that takes two or more, both pass its gates."""
    partners = set()
    for rule in rules:
        failing = score_matrix(catalog, rule.profile).failing
        if rule.max_sensors > 1 and not failing[sensor_id]:
            partners |= {sid for sid, gates in failing.items() if not gates and sid != sensor_id}
    return partners


def test_moving_the_body_anchor_onto_the_ends_of_its_usable_range_keeps_the_suite():
    # the far stage covers L/3 to L, both ends included; with no partner's
    # range_max in [L, the anchor's], every set keeps its anchor
    moved = 0
    for _, catalog, rules, mission, suite in _feasible(SMALL, 60):
        plan, length = suite.stage_plan, mission.boom_length
        reach = catalog.get(plan.far_sensor_id).range_max
        partners = _partners(catalog, rules, plan.far_sensor_id)
        if plan.far_sensor_id == plan.near_sensor_id or any(
            length <= catalog.get(sid).range_max <= reach for sid in partners
        ):
            continue
        ends = {"range_min": near_field_threshold(length), "range_max": length}
        kept = _solve(_moved(catalog, plan.far_sensor_id, **ends), rules, mission)
        assert (kept.body_sensors, kept.distal_sensors) == (suite.body_sensors, suite.distal_sensors)
        moved += 1
    assert moved >= 20


def test_moving_the_tip_anchor_to_start_at_l_over_3_takes_it_off_the_tip():
    # the near stage must start short of L/3
    moved = 0
    for _, catalog, rules, mission, suite in _feasible(SMALL, 60):
        anchor = catalog.get(suite.stage_plan.near_sensor_id)
        threshold = near_field_threshold(mission.boom_length)
        if anchor.range_max <= threshold:
            continue
        after = _solve(_moved(catalog, anchor.id, range_min=threshold), rules, mission)
        assert after is None or after.stage_plan.near_sensor_id != anchor.id
        moved += 1
    assert moved >= 20
