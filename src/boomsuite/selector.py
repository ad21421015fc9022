"""Constrained sensor-suite selection.

Chooses body and boom-tip sensor sets maximizing the summed weighted
scores, subject to per-placement mass budgets, requirement gates, an
optional modality-redundancy constraint, and cross-placement stage-plan
compatibility.  Two independent routes exist on purpose:

* ``enumerate_suites`` exhaustively materializes every feasible suite
  (flat cross product, guarded against combinatorial blowup), and
* ``select_best`` picks each placement on its own: whether a stage plan
  is usable splits into one test per anchor (the placement's
  longest-range sensor), and the score is a sum, so the best suites pair
  each placement's best usable subsets, drawn lazily from a heap in
  non-increasing score order.

They must agree; the test suite checks them against each other on
randomized catalogs.  The final reduction is deterministic: ties break
by lower total price, then lower total mass, then lexicographic ids.
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
from .scoring import CriterionName, DecisionMatrix, ScoringProfile, gate_requirements, score_matrix

__all__ = [
    "Placement",
    "PlacementRule",
    "SuiteSolution",
    "enumerate_suites",
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
    (None admits the profile's own modality list, or everything).
    ``min_dust_robust_modalities`` > 0 demands that many distinct
    modalities with a non-zero dust score among the chosen sensors —
    the redundancy constraint for dusty conditions.
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

    def candidate_modalities(self) -> tuple[Modality, ...] | None:
        if self.modalities is not None:
            return self.modalities
        return self.profile.modalities


@dataclass(frozen=True)
class SuiteSolution:
    """A feasible placement assignment with its aggregate score."""

    body_sensors: tuple[str, ...] = ()
    distal_sensors: tuple[str, ...] = ()
    body_mass: float = 0.0              # kg
    distal_mass: float = 0.0            # kg
    total_price: float = 0.0            # USD
    aggregate_score: int = 0
    stage_plan: StagePlan | None = None
    warnings: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.body_sensors + self.distal_sensors))


@dataclass(frozen=True)
class _Slot:
    """Pre-computed candidate data for one placement."""

    rule: PlacementRule
    matrix: DecisionMatrix | None
    eligible: tuple[SensorRecord, ...]

    def score(self, sensor_id: str) -> int:
        assert self.matrix is not None
        return self.matrix.weighted_sums[sensor_id]


def _build_slot(catalog: Catalog, rule: PlacementRule) -> _Slot:
    modalities = rule.candidate_modalities()
    admitted = tuple(
        s for s in catalog if modalities is None or s.modality in set(modalities)
    )
    if not admitted:
        # no candidates of the admitted modalities: the slot is unfillable
        return _Slot(rule=rule, matrix=None, eligible=())
    pool = Catalog(admitted)
    matrix = gate_requirements(score_matrix(pool, rule.profile), rule.profile)
    eligible = tuple(s for s in pool if matrix.eligibility[s.id].eligible)
    return _Slot(rule=rule, matrix=matrix, eligible=eligible)


def _subset_ok(slot: _Slot, subset: tuple[SensorRecord, ...]) -> bool:
    if sum(s.mass_kg for s in subset) > slot.rule.mass_budget:
        return False
    if slot.rule.min_dust_robust_modalities > 0:
        dust_ok = {
            s.modality
            for s in subset
            if slot.matrix.score(s.id, CriterionName.DUST) > 0
        }
        if len(dust_ok) < slot.rule.min_dust_robust_modalities:
            return False
    return True


def _suite_stage_plan(
    body: tuple[SensorRecord, ...],
    distal: tuple[SensorRecord, ...],
    mission: MissionConfig,
) -> StagePlan | None:
    """Stage plan anchored on the longest-range sensor of each placement;
    None when either placement lacks a ranged sensor."""
    far_anchor, near_anchor = stage_anchor(body), stage_anchor(distal)
    if far_anchor is None or near_anchor is None:
        return None
    return stage_plan(far_anchor, near_anchor, mission.boom_length)


def _assemble(
    body: tuple[SensorRecord, ...],
    distal: tuple[SensorRecord, ...],
    body_slot: _Slot | None,
    distal_slot: _Slot | None,
    mission: MissionConfig,
) -> SuiteSolution | None:
    """Build a feasible SuiteSolution, or None when the cross-placement
    stage-plan constraint rejects the combination."""
    plan = None
    if body and distal:
        plan = _suite_stage_plan(body, distal, mission)
        if plan is None or not (plan.valid or plan.marginal):
            return None
    return _solution(body, distal, body_slot, distal_slot, plan)


def _solution(
    body: tuple[SensorRecord, ...],
    distal: tuple[SensorRecord, ...],
    body_slot: _Slot | None,
    distal_slot: _Slot | None,
    plan: StagePlan | None,
) -> SuiteSolution:
    """The SuiteSolution of a combination whose stage plan (if any) is usable."""
    warnings: list[str] = []
    if plan is not None and plan.marginal:
        warnings.append(
            f"stage plan leaves a {plan.blind_band:.2f} m blind band below "
            f"the {plan.near_field_max:.2f} m near-field boundary"
        )
    score = 0
    if body_slot is not None:
        score += sum(body_slot.score(s.id) for s in body)
    if distal_slot is not None:
        score += sum(distal_slot.score(s.id) for s in distal)
    return SuiteSolution(
        body_sensors=tuple(s.id for s in body),
        distal_sensors=tuple(s.id for s in distal),
        body_mass=sum(s.mass_kg for s in body),
        distal_mass=sum(s.mass_kg for s in distal),
        total_price=sum(s.price for s in body) + sum(s.price for s in distal),
        aggregate_score=score,
        stage_plan=plan,
        warnings=tuple(warnings),
    )


def _slots_by_placement(
    catalog: Catalog, rules: list[PlacementRule]
) -> tuple[_Slot | None, _Slot | None]:
    body = distal = None
    for rule in rules:
        slot = _build_slot(catalog, rule)
        if rule.placement is Placement.BODY:
            if body is not None:
                raise ValueError("duplicate body placement rule")
            body = slot
        else:
            if distal is not None:
                raise ValueError("duplicate distal placement rule")
            distal = slot
    if body is None and distal is None:
        raise ValueError("at least one placement rule is required")
    return body, distal


def _slot_subsets(slot: _Slot) -> list[tuple[SensorRecord, ...]]:
    """All admissible subsets (size 1..max) in deterministic order."""
    out = []
    for k in range(1, slot.rule.max_sensors + 1):
        for combo in itertools.combinations(slot.eligible, k):
            if _subset_ok(slot, combo):
                out.append(combo)
    return out


def _subset_count(slot: _Slot | None) -> int:
    if slot is None:
        return 1
    n = len(slot.eligible)
    return max(sum(math.comb(n, k) for k in range(1, slot.rule.max_sensors + 1)), 1)


def enumerate_suites(
    catalog: Catalog, rules: list[PlacementRule], mission: MissionConfig
) -> list[SuiteSolution]:
    """Exhaustively enumerate every feasible suite, in deterministic order.

    Serves as the ground-truth oracle for select_best.  Raises
    EnumerationGuardError when the cross product would exceed the guard.
    """
    body_slot, distal_slot = _slots_by_placement(catalog, rules)
    if _subset_count(body_slot) * _subset_count(distal_slot) > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"enumeration would exceed {ENUMERATION_GUARD} combinations"
        )
    body_subsets = _slot_subsets(body_slot) if body_slot is not None else [()]
    distal_subsets = _slot_subsets(distal_slot) if distal_slot is not None else [()]
    suites = []
    for body in body_subsets:
        for distal in distal_subsets:
            suite = _assemble(body, distal, body_slot, distal_slot, mission)
            if suite is not None:
                suites.append(suite)
    return suites


def _tie_key(suite: SuiteSolution) -> tuple:
    return (suite.total_price, suite.body_mass + suite.distal_mass, suite.ids())


def _diagnose(body_slot: _Slot | None, distal_slot: _Slot | None) -> list[str]:
    reasons = []
    for label, slot in (("body", body_slot), ("distal", distal_slot)):
        if slot is None:
            continue
        if slot.matrix is None:
            reasons.append(f"{label}: no candidate sensors of the admitted modalities")
            continue
        if not slot.eligible:
            reasons.append(f"{label}: no sensor passes the requirement gate")
            continue
        lightest = min(s.mass_kg for s in slot.eligible)
        if lightest > slot.rule.mass_budget:
            reasons.append(
                f"{label}: lightest eligible sensor ({lightest:.3f} kg) exceeds "
                f"the {slot.rule.mass_budget:.3f} kg budget"
            )
        if slot.rule.min_dust_robust_modalities > 0:
            dust_ok = {
                s.modality for s in slot.eligible
                if slot.matrix.score(s.id, CriterionName.DUST) > 0
            }
            if len(dust_ok) < slot.rule.min_dust_robust_modalities:
                reasons.append(
                    f"{label}: only {len(dust_ok)} dust-robust modalities available, "
                    f"{slot.rule.min_dust_robust_modalities} required"
                )
    if not reasons:
        reasons.append("no body/distal combination yields a workable stage plan")
    return reasons


def _ranked_subsets(slot: _Slot | None) -> Iterator[tuple[int, tuple[SensorRecord, ...]]]:
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
    ``slot.eligible`` order.  A missing slot yields the empty subset once.
    """
    if slot is None:
        yield 0, ()
        return
    scores = [slot.score(s.id) for s in slot.eligible]
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


def _rank_key(slot: _Slot | None, subset: tuple[SensorRecord, ...]) -> tuple:
    score = sum(slot.score(s.id) for s in subset) if slot is not None else 0
    return (
        -score,
        sum(s.price for s in subset),
        sum(s.mass_kg for s in subset),
        tuple(sorted(s.id for s in subset)),
    )


def _top_usable(
    slot: _Slot | None, check: Callable[[SensorRecord, float], bool] | None, boom_length: float
) -> list[tuple[SensorRecord, ...]]:
    """Every admissible subset at the top score among the usable ones, in
    ``_rank_key`` order (empty when none is usable), drawn only as far as
    that score.  A subset is usable when its anchor passes ``check``, or
    always when ``check`` is None."""
    top_score, top = None, []
    for score, subset in _ranked_subsets(slot):
        if top_score is not None and score < top_score:
            break
        anchor = stage_anchor(subset)
        if check is None or (anchor is not None and check(anchor, boom_length)):
            top_score = score
            top.append(subset)
    return sorted(top, key=lambda subset: _rank_key(slot, subset))


def select_best(
    catalog: Catalog, rules: list[PlacementRule], mission: MissionConfig
) -> SuiteSolution:
    """Best feasible suite by aggregate score, with documented tie-break.

    Independent of enumerate_suites.  A pair's stage plan is usable (valid
    or marginal) exactly when the body anchor passes ``far_anchor_usable``
    and the tip anchor passes ``near_anchor_usable``, and the score is the
    sum of the two placements' scores.  So each placement's subsets are
    drawn in non-increasing score order until the score falls below its
    first usable subset, every usable subset at that score is kept, and
    the finalists are the pairs of the two groups, each distinct anchor
    pair planned once.  With one placement every admissible subset is
    usable.  Raises NoFeasibleSuiteError (listing binding constraints)
    when nothing qualifies.
    """
    body_slot, distal_slot = _slots_by_placement(catalog, rules)
    length = mission.boom_length
    paired = body_slot is not None and distal_slot is not None
    bodies = _top_usable(body_slot, far_anchor_usable if paired else None, length)
    distals = _top_usable(distal_slot, near_anchor_usable if paired else None, length)
    if not bodies or not distals:
        raise NoFeasibleSuiteError(_diagnose(body_slot, distal_slot))

    # Pairs in (body rank, distal rank) order; the _tie_key sort is stable,
    # so equal tie keys (the same sensors split another way between the
    # placements) keep that order.
    plans: dict[tuple[str, str], StagePlan] = {}
    finalists = []
    for body, distal in itertools.product(bodies, distals):
        plan = None
        if paired:
            far, near = stage_anchor(body), stage_anchor(distal)
            if (far.id, near.id) not in plans:
                plans[far.id, near.id] = stage_plan(far, near, length)
            plan = plans[far.id, near.id]
        finalists.append(_solution(body, distal, body_slot, distal_slot, plan))
    finalists.sort(key=_tie_key)
    winner = finalists[0]
    notes: list[str] = []
    if len(finalists) > 1:
        rivals = ", ".join("+".join(f.ids()) for f in finalists)
        level = "price"
        if finalists[0].total_price == finalists[1].total_price:
            level = (
                "mass"
                if finalists[0].body_mass + finalists[0].distal_mass
                != finalists[1].body_mass + finalists[1].distal_mass
                else "id"
            )
        notes.append(
            f"tie at score {winner.aggregate_score} among [{rivals}]; broken by {level}"
        )
    return replace(winner, notes=tuple(notes))


@dataclass(frozen=True)
class SensitivityRow:
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
    is evaluated from scratch; nothing is cached across steps."""
    rows: list[SensitivityRow] = []
    previous: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    for weight in weights:
        if weight < 0:
            raise ValueError("criterion weights must be non-negative integers")
        adjusted = [
            replace(r, profile=r.profile.with_weight(criterion, weight))
            for r in rules
        ]
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
