"""Constrained sensor-suite selection.

A selection is always one body sensor set and one boom-tip sensor set,
joined by one stage plan, under one body rule and one tip rule.  It
maximizes the summed weighted scores, subject to per-placement mass
budgets, requirement gates, an optional modality-redundancy constraint,
and a usable stage plan.  Two routes reach the best suite:

* ``enumerate_suites`` exhaustively materializes every feasible suite
  (flat cross product, guarded against combinatorial blowup), and
* ``select_best`` picks each placement on its own: whether a stage plan
  is usable splits into one test per anchor (the placement's
  longest-range sensor), and the score is a sum, so the best suites pair
  each placement's best usable subsets, drawn lazily from a heap in
  non-increasing score order.

The test suite checks them against each other on randomized catalogs,
but they are not independent: both build slots with ``_build_slot``,
admit subsets with ``_subset_ok`` and price suites with ``_solution``.
An oracle that shares no code with this module (ROADMAP item 4) waits
until ``bench/test_bench.py`` stops importing ``enumerate_suites``.
The final reduction is deterministic: ties break by ``_tie_key``, lower
total price, then lower total mass, then lexicographic ids.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

from .catalog import Catalog, MissionConfig, Modality, SensorRecord
from .errors import EnumerationGuardError, NoFeasibleSuiteError
from .geometry import StagePlan, far_anchor_usable, near_anchor_usable, stage_anchor, stage_plan
from .scoring import CriterionName, DecisionMatrix, ScoringProfile, score_matrix

__all__ = [
    "Placement",
    "PlacementRule",
    "SuiteSolution",
    "enumerate_suites",
    "paper_rules",
    "select_best",
    "sensitivity_report",
    "SensitivityRow",
]

ENUMERATION_GUARD = 1_000_000
# Most weights one ``select --sweep`` may solve for: each is a full
# selection, and the range is checked before any list of weights is built.
SWEEP_GUARD = 1_000


class Placement(enum.Enum):
    BODY = "body"
    DISTAL = "distal"


@dataclass(frozen=True)
class PlacementRule:
    """Constraints for one placement slot.

    ``modalities`` restricts which sensor families may occupy the slot
    (None admits every sensor; the profile's own list scopes only its
    decision matrix).
    ``min_dust_robust_modalities`` > 0 demands that many distinct
    modalities with a non-zero dust score among the chosen sensors —
    the redundancy constraint for dusty conditions.

    When both rules admit a sensor, it may fill both placements: that is
    two units, so its mass and its price count twice.
    """

    placement: Placement
    mass_budget: float                  # kg
    profile: ScoringProfile
    max_sensors: int = 1
    modalities: tuple[Modality, ...] | None = None
    min_dust_robust_modalities: int = 0

    def __post_init__(self) -> None:
        # zero is degenerate but legal: nothing fits, enumeration is empty
        if not (math.isfinite(self.mass_budget) and self.mass_budget >= 0):
            raise ValueError("mass budget must be a finite number >= 0 kg")
        if self.max_sensors < 1:
            raise ValueError("max_sensors must be >= 1")


def paper_rules(
    mission: MissionConfig, far_profile: ScoringProfile, near_profile: ScoringProfile, *,
    body_max: int = 1, distal_max: int = 1, redundancy: bool = False,
    body_budget: float | None = None, distal_budget: float | None = None,
) -> list[PlacementRule]:
    """The paper's placement policy: the body admits only lidar and radar
    and the boom tip only 2D and 3D cameras, whatever modalities the
    profiles list, each within the mission's ``budget_report`` budget
    unless one is given.  ``redundancy`` asks the body for two
    dust-robust modalities, so for at least two sensors."""
    from .budget import budget_report

    envelope = budget_report(mission)
    return [
        PlacementRule(
            placement=Placement.BODY,
            mass_budget=envelope.body_sensor_budget if body_budget is None else body_budget,
            profile=far_profile,
            max_sensors=max(body_max, 2) if redundancy else body_max,
            modalities=(Modality.LIDAR, Modality.RADAR),
            min_dust_robust_modalities=2 if redundancy else 0,
        ),
        PlacementRule(
            placement=Placement.DISTAL,
            mass_budget=envelope.distal_sensor_budget if distal_budget is None else distal_budget,
            profile=near_profile,
            max_sensors=distal_max,
            modalities=(Modality.CAMERA2D, Modality.CAMERA3D),
        ),
    ]


@dataclass(frozen=True)
class SuiteSolution:
    """A feasible body set and tip set, with their stage plan and aggregate score."""

    body_sensors: tuple[str, ...]
    distal_sensors: tuple[str, ...]
    body_mass: float                    # kg
    distal_mass: float                  # kg
    total_price: float                  # USD
    aggregate_score: int
    stage_plan: StagePlan
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Slot:
    """Pre-computed candidate data for one placement."""

    rule: PlacementRule
    matrix: DecisionMatrix
    eligible: tuple[SensorRecord, ...]


def _build_slot(catalog: Catalog, rule: PlacementRule) -> _Slot:
    pool = catalog.subset(modalities=rule.modalities)
    matrix = score_matrix(pool, rule.profile)
    eligible = tuple(s for s in pool if not matrix.failing[s.id])
    return _Slot(rule=rule, matrix=matrix, eligible=eligible)


def _dust_modalities(slot: _Slot, sensors: tuple[SensorRecord, ...]) -> set[Modality]:
    """The distinct modalities among ``sensors`` that score above zero on dust."""
    return {s.modality for s in sensors if slot.matrix.scores[s.id][CriterionName.DUST] > 0}


def _subset_ok(slot: _Slot, subset: tuple[SensorRecord, ...]) -> bool:
    if sum(s.mass_kg for s in subset) > slot.rule.mass_budget:
        return False
    need = slot.rule.min_dust_robust_modalities
    return need == 0 or len(_dust_modalities(slot, subset)) >= need


def _solution(
    body: tuple[SensorRecord, ...],
    distal: tuple[SensorRecord, ...],
    body_slot: _Slot,
    distal_slot: _Slot,
    plan: StagePlan,
) -> SuiteSolution:
    """The SuiteSolution of a pair whose stage plan is usable."""
    body_sums, distal_sums = body_slot.matrix.weighted_sums, distal_slot.matrix.weighted_sums
    score = sum(body_sums[s.id] for s in body) + sum(distal_sums[s.id] for s in distal)
    return SuiteSolution(
        body_sensors=tuple(s.id for s in body),
        distal_sensors=tuple(s.id for s in distal),
        body_mass=sum(s.mass_kg for s in body),
        distal_mass=sum(s.mass_kg for s in distal),
        total_price=sum(s.price for s in body) + sum(s.price for s in distal),
        aggregate_score=score,
        stage_plan=plan,
    )


def _rule_pair(rules: list[PlacementRule]) -> tuple[PlacementRule, PlacementRule]:
    """The body rule and the distal rule of ``rules``, which must hold one of each."""
    by_placement = {r.placement: r for r in rules}
    if len(rules) != 2 or len(by_placement) != 2:
        given = ", ".join(r.placement.value for r in rules) or "none"
        raise ValueError(f"a selection takes one body rule and one distal rule; got {given}")
    return by_placement[Placement.BODY], by_placement[Placement.DISTAL]


def _slot_subsets(slot: _Slot) -> list[tuple[SensorRecord, ...]]:
    """All admissible subsets (size 1..max) in deterministic order."""
    sizes = range(1, slot.rule.max_sensors + 1)
    return [c for k in sizes for c in itertools.combinations(slot.eligible, k) if _subset_ok(slot, c)]


def _subset_count(slot: _Slot) -> int:
    n = len(slot.eligible)
    return max(sum(math.comb(n, k) for k in range(1, slot.rule.max_sensors + 1)), 1)


def enumerate_suites(
    catalog: Catalog, rules: list[PlacementRule], mission: MissionConfig
) -> list[SuiteSolution]:
    """Exhaustively enumerate every feasible suite, in deterministic order.

    Serves as the ground-truth oracle for select_best.  Raises
    EnumerationGuardError when the cross product would exceed the guard.
    """
    body_slot, distal_slot = (_build_slot(catalog, rule) for rule in _rule_pair(rules))
    if _subset_count(body_slot) * _subset_count(distal_slot) > ENUMERATION_GUARD:
        raise EnumerationGuardError(f"enumeration would exceed {ENUMERATION_GUARD} combinations")
    suites = []
    for body, distal in itertools.product(_slot_subsets(body_slot), _slot_subsets(distal_slot)):
        # anchored on each placement's longest-range sensor, as select_best anchors it
        far, near = stage_anchor(body), stage_anchor(distal)
        if far is None or near is None:
            continue
        plan = stage_plan(far, near, mission.boom_length)
        if plan.valid or plan.marginal:
            suites.append(_solution(body, distal, body_slot, distal_slot, plan))
    return suites


def _tie_key(body: tuple[SensorRecord, ...], distal: tuple[SensorRecord, ...]) -> tuple:
    """The tie-break order of a (body, tip) pair: lower total price, then
    lower total mass, then the sorted ids; each sum as SuiteSolution's."""
    return (
        sum(s.price for s in body) + sum(s.price for s in distal),
        sum(s.mass_kg for s in body) + sum(s.mass_kg for s in distal),
        tuple(sorted(s.id for s in body + distal)),
    )


def _diagnose(body_slot: _Slot, distal_slot: _Slot) -> list[str]:
    from .budget import _exceeds, _num

    reasons = []
    for label, slot in (("body", body_slot), ("distal", distal_slot)):
        if not slot.matrix.scores:
            reasons.append(f"{label}: no candidate sensors of the admitted modalities")
            continue
        if not slot.eligible:
            reasons.append(f"{label}: no sensor passes the requirement gate")
            continue
        lightest = min(s.mass_kg for s in slot.eligible)
        if lightest > slot.rule.mass_budget:
            mass = _exceeds("lightest eligible sensor", lightest, slot.rule.mass_budget)
            reasons.append(f"{label}: {mass}")
        need = slot.rule.min_dust_robust_modalities
        available = len(_dust_modalities(slot, slot.eligible))
        if available < need:
            reasons.append(
                f"{label}: only {available} dust-robust modalities available, {need} required"
            )
        elif lightest <= slot.rule.mass_budget and next(_ranked_subsets(slot), None) is None:
            reasons.append(
                f"{label}: no set of up to {slot.rule.max_sensors} sensors within the "
                f"{_num(slot.rule.mass_budget)} kg budget has {need} dust-robust modalities"
            )
    return reasons or ["no body/distal combination yields a workable stage plan"]


def _ranked_subsets(slot: _Slot) -> Iterator[tuple[int, tuple[SensorRecord, ...]]]:
    """Admissible subsets of a slot with their scores, drawn lazily in
    non-increasing score order.

    A subset of size k is a set of positions in the score-sorted eligible
    list.  Each one but the top (positions 0..k-1) has a single parent:
    the subset got by moving its rightmost position that has a free place
    to its left one place left.  A child never outscores its parent, so
    one heap seeded with the top subset of every size 1..max_sensors pops
    every subset, each once, in score order (a k-best ranking in the
    manner of Lawler, 1972).
    ``_subset_ok`` is checked as each subset is popped; a rejected subset
    still expands, since a lighter child may pass.  Subsets are tuples in
    ``slot.eligible`` order.
    """
    scores = [slot.matrix.weighted_sums[s.id] for s in slot.eligible]
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    gain = [scores[i] for i in order]
    n = len(order)
    heap = [(-sum(gain[:k]), tuple(range(k))) for k in range(1, min(slot.rule.max_sensors, n) + 1)]
    heapq.heapify(heap)
    while heap:
        neg, pos = heapq.heappop(heap)
        subset = tuple(slot.eligible[i] for i in sorted(order[p] for p in pos))
        if _subset_ok(slot, subset):
            yield -neg, subset
        # children: the last position moved right, and the position just
        # before the trailing run moved right when that closes the run up
        last = pos[-1]
        if last + 1 < n:
            heapq.heappush(heap, (neg + gain[last] - gain[last + 1], pos[:-1] + (last + 1,)))
        t = len(pos) - 1
        while t > 0 and pos[t - 1] == pos[t] - 1:
            t -= 1
        if t > 0 and pos[t - 1] == pos[t] - 2:
            p = pos[t - 1]
            heapq.heappush(heap, (neg + gain[p] - gain[p + 1], pos[: t - 1] + (p + 1,) + pos[t:]))


def _top_usable(
    slot: _Slot, check: Callable[[SensorRecord, float], bool], boom_length: float
) -> list[tuple[SensorRecord, ...]]:
    """Every admissible subset at the top score among those whose anchor
    passes ``check``, in draw order (empty when none passes), drawn only
    as far as that score.  An anchor is one of its subset's sensors, so
    when no eligible sensor passes, no subset is drawn."""
    if not any(s.range_min is not None and s.range_max is not None and check(s, boom_length)
               for s in slot.eligible):
        return []
    top_score, top = None, []
    for score, subset in _ranked_subsets(slot):
        if top_score is not None and score < top_score:
            break
        anchor = stage_anchor(subset)
        if anchor is not None and check(anchor, boom_length):
            top_score = score
            top.append(subset)
    return top


def select_best(catalog: Catalog, rules: list[PlacementRule], mission: MissionConfig) -> SuiteSolution:
    """Best feasible suite by aggregate score, with documented tie-break.

    ``rules`` holds one body rule and one tip rule, and the suite is
    always one body set and one tip set, joined by one stage plan; a
    sensor both rules admit may fill both placements, as two units.
    Draws subsets lazily where enumerate_suites lists them all, but
    shares its slots, subset check and scoring.  A pair's stage plan is
    usable (valid or marginal) exactly when the body anchor passes
    ``far_anchor_usable`` and the tip anchor passes
    ``near_anchor_usable``, and the score is the sum of the two
    placements' scores.  So each placement's subsets are drawn in
    non-increasing score order until the score falls below its first
    usable subset, every usable subset at that score is kept, and the
    finalists are the pairs of the two groups, sorted by ``_tie_key``;
    only the winner is built and planned.  Raises NoFeasibleSuiteError
    (listing binding constraints) when nothing qualifies.
    """
    body_slot, distal_slot = (_build_slot(catalog, rule) for rule in _rule_pair(rules))
    length = mission.boom_length
    bodies = _top_usable(body_slot, far_anchor_usable, length)
    distals = _top_usable(distal_slot, near_anchor_usable, length)
    if not bodies or not distals:
        raise NoFeasibleSuiteError(_diagnose(body_slot, distal_slot))

    # Two finalists never share the least key: the cross pairs of two that did would sum to twice
    # it, so one would be less.  Only in float corner cases can a tie stand; draw order decides it.
    finalists = sorted(
        ((_tie_key(body, distal), body, distal) for body, distal in itertools.product(bodies, distals)),
        key=lambda finalist: finalist[0],
    )
    (key, body, distal), *rest = finalists
    plan = stage_plan(stage_anchor(body), stage_anchor(distal), length)
    winner = _solution(body, distal, body_slot, distal_slot, plan)
    if not rest:
        return winner
    rivals = ", ".join("+".join(ids) for (_, _, ids), _, _ in finalists)
    # the first level at which the two best differ; "id" when they are
    # the same sensors split another way between the placements
    level = next((name for name, a, b in zip(("price", "mass", "id"), key, rest[0][0]) if a != b), "id")
    note = f"tie at score {winner.aggregate_score} among [{rivals}]; broken by {level}"
    return replace(winner, notes=(note,))


@dataclass(frozen=True)
class SensitivityRow:
    """The suite chosen at one swept weight; ``changed`` when it differs
    from the previous weight's."""

    weight: int
    body_sensors: tuple[str, ...]
    distal_sensors: tuple[str, ...]
    aggregate_score: int
    changed: bool
    notes: tuple[str, ...] = ()


def sensitivity_report(
    catalog: Catalog,
    rules: list[PlacementRule],
    mission: MissionConfig,
    criterion: CriterionName,
    weights: list[int],
) -> list[SensitivityRow]:
    """Re-run selection for each weight of one criterion (applied to every
    placement profile) and record where the argmax changes.  Each weight
    is evaluated from scratch; nothing is cached across steps.  A negative
    weight raises ``Criterion``'s ValidationError, naming the criterion."""
    pair = _rule_pair(rules)
    rows: list[SensitivityRow] = []
    previous: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    for weight in weights:
        adjusted = [replace(r, profile=r.profile.with_weight(criterion, weight)) for r in pair]
        suite = select_best(catalog, adjusted, mission)
        selection = (suite.body_sensors, suite.distal_sensors)
        rows.append(
            SensitivityRow(
                weight=weight,
                body_sensors=suite.body_sensors,
                distal_sensors=suite.distal_sensors,
                aggregate_score=suite.aggregate_score,
                changed=previous is not None and selection != previous,
                notes=suite.notes,
            )
        )
        previous = selection
    return rows
