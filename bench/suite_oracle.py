"""Max-score oracle and result checks for the synthetic selection instances.

Shares no code with ``boomsuite.selector``: it enumerates admissible
subsets itself, groups them by their stage-plan anchor (the longest-range
sensor, first in catalog order on ties), keeps the best score per anchor,
and maximises over compatible anchor pairs.  That keeps it cheap at
n=60, k=3, where the flat cross product has over a billion pairs.

It covers only what the benchmark generates: every criterion objective
(no gates), a full override grid, no modality restriction and no dust
redundancy.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

MASS_TOLERANCE_KG = 1e-9


def sensor_scores(profile, catalog) -> dict[str, int]:
    """Weighted sum per sensor, read straight from the override grid."""
    return {
        s.id: sum(c.weight * profile.overrides[s.id][c.name] for c in profile.criteria)
        for s in catalog
    }


def stage_compatible(far, near, boom_length: float) -> bool:
    """Whether a far anchor and a near anchor give a valid or marginal plan.

    Far must cover from the near-field boundary (L/3) out to L; near must
    start inside the boundary; then either the ranges overlap past the
    handoff, or near stops short of the boundary (a blind band).
    """
    threshold = boom_length / 3.0
    far_ok = far.range_min <= threshold and far.range_max >= boom_length
    if not far_ok or not near.range_min < threshold:
        return False
    if near.range_max >= threshold and near.range_max - max(far.range_min, threshold) > 0:
        return True
    return threshold - near.range_max > 0


def anchor(subset):
    return max(subset, key=lambda s: s.range_max)


def admissible_subsets(sensors, budget: float, max_sensors: int):
    """Subsets of 1..max_sensors sensors within the mass budget, in catalog order."""
    mass = {s.id: s.mass_kg for s in sensors}
    for size in range(1, max_sensors + 1):
        for combo in itertools.combinations(sensors, size):
            if sum(mass[s.id] for s in combo) <= budget:
                yield combo


class SlotTable:
    """Admissible subsets of one slot, grouped by stage-plan anchor id."""

    def __init__(self, catalog, budget: float, max_sensors: int) -> None:
        self.groups: dict[str, tuple[object, list[tuple]]] = {}
        self.count = 0
        for combo in admissible_subsets(tuple(catalog), budget, max_sensors):
            top = anchor(combo)
            self.groups.setdefault(top.id, (top, []))[1].append(combo)
            self.count += 1

    def scored(self, scores: dict[str, int]) -> dict[str, list[int]]:
        """Score of every admissible subset, per anchor."""
        return {
            aid: [sum(scores[s.id] for s in combo) for combo in combos]
            for aid, (_, combos) in self.groups.items()
        }


def compatible_anchors(body: SlotTable, distal: SlotTable, boom_length: float):
    return [
        (bid, did)
        for bid, (far, _) in body.groups.items()
        for did, (near, _) in distal.groups.items()
        if stage_compatible(far, near, boom_length)
    ]


def optimum(body: SlotTable, distal: SlotTable, pairs, body_scores, distal_scores):
    """Highest aggregate score over feasible suites, or None when none exists."""
    best_body = {aid: max(v) for aid, v in body.scored(body_scores).items()}
    best_distal = {aid: max(v) for aid, v in distal.scored(distal_scores).items()}
    return max((best_body[b] + best_distal[d] for b, d in pairs), default=None)


@dataclass
class Profile:
    """How much pair walking an instance forces on a best-first search.

    ``dead_top_body``: admissible body subsets that outscore every body
    subset able to form a feasible suite.  A search that ranks body subsets
    by score must rule each out against the whole distal side before it has
    an incumbent: dead_top_body x distal subsets pairs.
    ``prompt_incumbent``: every body subset at the best live score pairs
    with a top-scoring distal subset, so whichever of them a search tries
    first finds its incumbent among the first distal subsets.
    ``near_optimal_pairs``: pairs of non-dead body subsets and distal
    subsets whose scores reach the optimum; the walk after the incumbent.
    """

    optimum: int | None
    dead_top_body: int | None = None
    prompt_incumbent: bool = False
    near_optimal_pairs: int = 0


def profile(body: SlotTable, distal: SlotTable, pairs, body_scores, distal_scores) -> Profile:
    if not pairs:
        return Profile(None)
    body_by_anchor = body.scored(body_scores)
    distal_by_anchor = distal.scored(distal_scores)
    best_body = {aid: max(v) for aid, v in body_by_anchor.items()}
    best_distal = {aid: max(v) for aid, v in distal_by_anchor.items()}
    best = max(best_body[b] + best_distal[d] for b, d in pairs)
    best_live = max(best_body[b] for b, _ in pairs)
    top_distal = max(best_distal.values())
    strong = {b for b, d in pairs if best_distal[d] == top_distal}
    body_all = [v for vs in body_by_anchor.values() for v in vs]
    distal_all = sorted(v for vs in distal_by_anchor.values() for v in vs)
    return Profile(
        optimum=best,
        dead_top_body=sum(1 for v in body_all if v > best_live),
        prompt_incumbent=all(b in strong for b, v in body_by_anchor.items() if best_live in v),
        near_optimal_pairs=sum(
            len(distal_all) - bisect.bisect_left(distal_all, best - v)
            for v in body_all if v <= best_live
        ),
    )


def check_suite(inst, scores: tuple[dict, dict], expected_score: int, result: dict) -> list[str]:
    """Problems with one selection result (empty when it is correct).

    ``result`` holds the body and distal ids and aggregate_score as the
    program reported them and, when it reports them, both masses and
    whether its stage plan is usable.
    """
    problems = []
    if result.get("error"):
        return [f"raised {result['error']}"]
    catalog, mission = inst.catalog, inst.mission
    by_id = {s.id: s for s in catalog}
    slots = (("body", result["body"], inst.body_budget), ("distal", result["distal"], inst.distal_budget))
    chosen = []
    for (label, ids, budget), slot_scores in zip(slots, scores):
        if not 1 <= len(ids) <= inst.k or len(set(ids)) != len(ids):
            problems.append(f"{label}: {len(ids)} sensors, max_sensors is {inst.k}")
        if any(i not in by_id for i in ids):
            problems.append(f"{label}: unknown sensor in {ids}")
            return problems
        sensors = [by_id[i] for i in ids]
        mass = sum(s.mass_kg for s in sensors)
        if mass > budget + MASS_TOLERANCE_KG:
            problems.append(f"{label}: {mass:.4f} kg over the {budget} kg budget")
        reported = result.get(f"{label}_mass", mass)
        if abs(mass - reported) > MASS_TOLERANCE_KG:
            problems.append(f"{label}: reported mass {reported} != {mass}")
        chosen.append((sensors, sum(slot_scores[i] for i in ids)))
    if problems:
        return problems
    (body, body_score), (distal, distal_score) = chosen
    if not stage_compatible(anchor(body), anchor(distal), mission.boom_length):
        problems.append("stage plan of the chosen anchors is neither valid nor marginal")
    if not result.get("plan_usable", True):
        problems.append("reported stage plan is neither valid nor marginal")
    if body_score + distal_score != result["aggregate_score"]:
        problems.append(f"reported score {result['aggregate_score']} != {body_score + distal_score}")
    if result["aggregate_score"] != expected_score:
        problems.append(f"score {result['aggregate_score']}, oracle optimum {expected_score}")
    return problems
