"""Binning, weighted decision matrices, gating, and the modality grid."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boomsuite.catalog import Catalog, Modality, Ordinal
from boomsuite.errors import ScoringError, ValidationError
from boomsuite.scoring import (
    BinRule,
    CriterionKind,
    CriterionName,
    Stage,
    modality_table,
    score_matrix,
)

from oracles import only, random_catalog, random_profile, weights_times, with_override

FAR_SUMS = {"rsbpearl": 23, "vlp16": 26, "cygbot_mini": 20, "iphone12": 23, "os1_32": 26}
NEAR_SUMS = {"firefly_s": 14, "d435i": 24, "d455i": 20, "zed2": 23, "oak_d": 18}


# ---------------------------------------------------------------------------
# bin rules


def _criterion(profile, name):
    return next(c for c in profile.criteria if c.name is name)


def test_bin_range_high(catalog, far_profile):
    crit = _criterion(far_profile, CriterionName.RANGE)
    assert crit.bins.apply(catalog.get("vlp16")) == 2


def test_bin_darkness_passthrough(catalog, near_profile):
    crit = _criterion(near_profile, CriterionName.DARKNESS)
    assert crit.bins.apply(catalog.get("firefly_s")) == 0


def test_bin_range_low(catalog, far_profile):
    crit = _criterion(far_profile, CriterionName.RANGE)
    assert crit.bins.apply(catalog.get("cygbot_mini")) == 0


def test_bin_absent_power_is_none_and_overridden(catalog, far_profile):
    crit = _criterion(far_profile, CriterionName.POWER)
    assert crit.bins.apply(catalog.get("iphone12")) is None
    pool = only(catalog, ["iphone12"])
    matrix = score_matrix(pool, far_profile)
    assert matrix.score("iphone12", CriterionName.POWER) == 2


def test_bin_boundaries(catalog, far_profile):
    # range_max exactly 3 m is mid (the low region is strictly below 3)
    crit = _criterion(far_profile, CriterionName.RANGE)
    assert crit.bins.apply(catalog.get("d435i")) == 1
    # resolution at 2 MP or better is high, at 0.5 MP or less is low
    res = _criterion(far_profile, CriterionName.RESOLUTION)
    assert res.bins.apply(catalog.get("d435i")) == 2       # 2.07 MP
    assert res.bins.apply(catalog.get("cygbot_mini")) == 0  # 0.0096 MP
    # accuracy converts absolute error against nominal range: 20mm/30m
    acc = _criterion(far_profile, CriterionName.ACCURACY)
    assert acc.bins.apply(catalog.get("rsbpearl")) == 2


def test_bin_rule_rejects_overlapping_regions():
    with pytest.raises(ValidationError):
        BinRule(quantity="mass_g", higher_is_better=True, high=1.0, low=2.0)
    with pytest.raises(ValidationError):
        BinRule(quantity="nonsense")
    with pytest.raises(ValidationError):
        BinRule()


@pytest.mark.parametrize("value", [True, 1.0, 3, -1, None])
def test_profile_rejects_an_override_that_is_not_0_1_or_2(far_profile, value):
    with pytest.raises(ValidationError) as exc:
        replace(far_profile, overrides={"vlp16": {CriterionName.RANGE: value}})
    assert str(exc.value) == "vlp16.range: override must be 0, 1 or 2"


# ---------------------------------------------------------------------------
# score_matrix reproductions


def test_far_field_weighted_sums(catalog, far_profile):
    pool = catalog.subset(modalities=far_profile.modalities)
    matrix = score_matrix(pool, far_profile)
    assert {sid: matrix.weighted_sums[sid] for sid in pool.ids()} == FAR_SUMS


def test_near_field_weighted_sums(catalog, near_profile):
    pool = catalog.subset(modalities=near_profile.modalities)
    matrix = score_matrix(pool, near_profile)
    assert {sid: matrix.weighted_sums[sid] for sid in pool.ids()} == NEAR_SUMS


def test_weighted_sum_is_exact_integer_dot_product(catalog, far_profile):
    pool = catalog.subset(modalities=far_profile.modalities)
    matrix = score_matrix(pool, far_profile)
    for sid in pool.ids():
        expected = sum(
            matrix.scores[sid][c] * matrix.weights[c] for c in matrix.criteria
        )
        assert matrix.weighted_sums[sid] == expected
        assert isinstance(matrix.weighted_sums[sid], int)


def test_all_zero_weights_rank_in_catalog_order(catalog, far_profile):
    pool = catalog.subset(modalities=far_profile.modalities)
    zeroed = far_profile
    for name in CriterionName:
        zeroed = zeroed.with_weight(name, 0)
    matrix = score_matrix(pool, zeroed)
    assert set(matrix.weighted_sums.values()) == {0}
    assert matrix.ranking == pool.ids()


def test_unresolved_absent_cells_error(catalog, far_profile):
    # the far-field profile has no overrides for cameras: absent cells must
    # surface as a ScoringError naming the sensor/criterion pairs
    pool = only(catalog, ["firefly_s"])
    with pytest.raises(ScoringError) as exc:
        score_matrix(pool, far_profile)
    assert ("firefly_s", "accuracy") in exc.value.pairs


def test_an_override_cell_wins_over_the_bin(catalog, far_profile):
    pool = catalog.subset(modalities=far_profile.modalities)
    bumped = score_matrix(pool, with_override(far_profile, "vlp16", CriterionName.RANGE, 0))
    assert bumped.score("vlp16", CriterionName.RANGE) == 0
    assert bumped.weighted_sums["vlp16"] == FAR_SUMS["vlp16"] - 2 * 2


# ---------------------------------------------------------------------------
# gating


def test_firefly_fails_near_field_darkness_gate(catalog, near_profile):
    pool = catalog.subset(modalities=near_profile.modalities)
    matrix = score_matrix(pool, near_profile)
    assert matrix.failing["firefly_s"] == (CriterionName.DARKNESS,)
    # scores are retained for ineligible sensors
    assert matrix.weighted_sums["firefly_s"] == NEAR_SUMS["firefly_s"]


def test_recommended_near_field_sensors_stay_eligible(catalog, near_profile):
    pool = catalog.subset(modalities=near_profile.modalities)
    matrix = score_matrix(pool, near_profile)
    for sid in ("d435i", "d455i", "zed2", "oak_d"):
        assert not matrix.failing[sid], sid


def test_vlp16_passes_far_field_gate_with_mid_dust(catalog, far_profile):
    pool = catalog.subset(modalities=far_profile.modalities)
    matrix = score_matrix(pool, far_profile)
    assert not matrix.failing["vlp16"]
    # dust scores 1: only a 0 fails a gating criterion
    assert matrix.score("vlp16", CriterionName.DUST) == 1


def test_short_range_lidars_fail_far_field_range_gate(catalog, far_profile):
    pool = catalog.subset(modalities=far_profile.modalities)
    matrix = score_matrix(pool, far_profile)
    assert matrix.failing["cygbot_mini"] == (CriterionName.RANGE,)
    assert matrix.failing["iphone12"] == (CriterionName.RANGE,)


def test_empty_requirement_set_gates_nothing(catalog, far_profile):
    pool = catalog.subset(modalities=far_profile.modalities)
    relaxed = replace(
        far_profile,
        criteria=tuple(replace(c, kind=CriterionKind.OBJECTIVE) for c in far_profile.criteria),
    )
    matrix = score_matrix(pool, relaxed)
    assert not any(matrix.failing[sid] for sid in pool.ids())


@pytest.mark.parametrize("profile_name", ["far_profile", "near_profile"])
def test_a_requirement_criterion_scores_and_gates_as_both_does(request, catalog, profile_name):
    profile = request.getfixturevalue(profile_name)
    pool = catalog.subset(modalities=profile.modalities)

    def gating_as(kind):
        return replace(profile, criteria=tuple(
            replace(c, kind=kind) if c.kind.gates else c for c in profile.criteria
        ))

    requirement = score_matrix(pool, gating_as(CriterionKind.REQUIREMENT))
    assert requirement == score_matrix(pool, gating_as(CriterionKind.BOTH))
    # the gate bites, and the gating criteria count toward the sums
    assert any(requirement.failing.values())
    assert requirement.weighted_sums == (FAR_SUMS if profile_name == "far_profile" else NEAR_SUMS)


# ---------------------------------------------------------------------------
# modality overview


TABLE_WORDS = {
    Modality.LIDAR: ["High", "High", "High", "High", "High", "Low", "Low", "High", "Low", "Low"],
    Modality.CAMERA2D: ["High", "High", "High", "Low", "Low", "Low", "Mid", "High", "Mid", "High"],
    Modality.CAMERA3D: ["High", "High", "High", "Low", "High", "Low", "Mid", "High", "Mid", "Mid"],
    Modality.RADAR: ["Mid", "Mid", "Mid", "High", "High", "High", "High", "Mid", "High", "Mid"],
}


def test_modality_grid_reproduces_overview(catalog, modality_profile):
    table = modality_table(catalog, modality_profile)
    assert list(table) == [Modality.LIDAR, Modality.CAMERA2D, Modality.CAMERA3D, Modality.RADAR]
    assert [exemplar.id for exemplar, _ in table.values()] == ["vlp16", "firefly_s", "d435i", "xm132"]
    for modality, expected in TABLE_WORDS.items():
        got = [table[modality][1][c].word for c in [c.name for c in modality_profile.criteria]]
        assert got == expected, modality


def test_modality_radar_row_highlights(catalog, modality_profile):
    _, row = modality_table(catalog, modality_profile)[Modality.RADAR]
    for name in (CriterionName.RANGE, CriterionName.POWER, CriterionName.DARKNESS,
                 CriterionName.DUST, CriterionName.LIGHTNESS):
        assert row[name] is Ordinal.HIGH


def test_modality_without_exemplar_errors(catalog, modality_profile):
    # the profile names d435i as the 3D cameras' exemplar; the other 3D cameras stay
    without_d435i = Catalog(tuple(s for s in catalog if s.id != "d435i"))
    with pytest.raises(ValidationError) as exc:
        modality_table(without_d435i, modality_profile)
    assert str(exc.value) == "modality_overview.exemplars.camera3d: sensor 'd435i' not in catalog"


def test_a_modality_without_a_named_exemplar_is_graded_on_its_first_sensor(catalog, modality_profile):
    exemplars = {m: sid for m, sid in modality_profile.exemplars.items() if m is not Modality.RADAR}
    table = modality_table(catalog, replace(modality_profile, exemplars=exemplars))
    first_radar = next(s for s in catalog if s.modality is Modality.RADAR)
    assert table[Modality.RADAR] == modality_table(catalog, modality_profile)[Modality.RADAR]
    assert table[Modality.RADAR][0] is first_radar


def test_an_exemplar_of_another_modality_is_rejected(catalog, modality_profile):
    profile = replace(modality_profile, exemplars={**modality_profile.exemplars, Modality.LIDAR: "d435i"})
    with pytest.raises(ValidationError) as exc:
        modality_table(catalog, profile)
    assert str(exc.value) == "modality_overview.exemplars.lidar: sensor 'd435i' is a camera3d, not a lidar"


def test_single_modality_catalog_one_row(catalog, modality_profile):
    lidars = catalog.subset(modalities=[Modality.LIDAR])
    table = modality_table(lidars, modality_profile)
    assert list(table) == [Modality.LIDAR]


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 8))
def test_monotonicity_bumping_a_score_raises_the_sum(seed, size):
    rng = random.Random(seed)
    cat = random_catalog(rng, size)
    profile = random_profile(rng, cat, Stage.FAR_FIELD)
    target = rng.choice(cat.ids())
    name = rng.choice([c.name for c in profile.criteria if c.weight > 0])
    base = score_matrix(cat, profile)
    current = base.score(target, name)
    if current == 2:
        return
    bumped = score_matrix(cat, with_override(profile, target, name, current + 1))
    assert bumped.weighted_sums[target] > base.weighted_sums[target]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 8), st.integers(1, 7))
def test_uniform_weight_scaling_preserves_ranking_and_ties(seed, size, k):
    rng = random.Random(seed)
    cat = random_catalog(rng, size)
    profile = random_profile(rng, cat, Stage.FAR_FIELD)
    base = score_matrix(cat, profile)
    scaled = score_matrix(cat, weights_times(profile, k))
    assert scaled.ranking == base.ranking
    for sid in cat.ids():
        assert scaled.weighted_sums[sid] == k * base.weighted_sums[sid]
    # tie sets are identical, not just the order
    def tie_sets(matrix):
        groups = {}
        for sid in matrix.scores:
            groups.setdefault(matrix.weighted_sums[sid], set()).add(sid)
        return sorted(map(frozenset, groups.values()), key=lambda g: sorted(g))
    assert tie_sets(base) == tie_sets(scaled)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 8))
def test_criterion_order_never_changes_sums(seed, size):
    rng = random.Random(seed)
    cat = random_catalog(rng, size)
    profile = random_profile(rng, cat, Stage.FAR_FIELD)
    shuffled = list(profile.criteria)
    rng.shuffle(shuffled)
    permuted = replace(profile, criteria=tuple(shuffled))
    assert score_matrix(cat, permuted).weighted_sums == score_matrix(cat, profile).weighted_sums


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 8))
def test_scoring_is_independent_of_sensor_order(seed, size):
    rng = random.Random(seed)
    cat = random_catalog(rng, size)
    profile = random_profile(rng, cat, Stage.FAR_FIELD)
    shuffled_sensors = list(cat.sensors)
    rng.shuffle(shuffled_sensors)
    shuffled = Catalog(tuple(shuffled_sensors))
    assert score_matrix(shuffled, profile).weighted_sums == score_matrix(cat, profile).weighted_sums
