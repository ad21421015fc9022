"""Mass and structural budget envelope for a boom-based climber.

The boom is buckling-limited: fully outstretched and perpendicular to
gravity it carries the tip sensor, the gripper and half its own mass at
the lever arm L, so the shoulder moment is

    M_shoulder = (m_sensor + m_gripper + 0.5 * m_boom) * g * L

The margin divides the critical moment (allowable = M_crit / (1 + margin)).
The multiply-by-(1 - margin) alternative is NOT equivalent: with the
reference mission it yields a 0.649 kg tip budget instead of the 0.7295 kg
this model is calibrated to reproduce.

All functions are pure and thread-safe by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import MissionConfig
from .errors import ValidationError

__all__ = [
    "BudgetReport",
    "boom_mass",
    "shoulder_moment",
    "max_distal_sensor_mass",
    "budget_report",
]


@dataclass(frozen=True)
class BudgetReport:
    """Budget envelope plus the margins left by a concrete loadout.

    Units: masses/budgets kg, moments N*m, forces N.  ``reasons`` maps each
    field a failed check explains to its sentence, in this order:
    ``pulloff_margin``, ``distal_sensor_budget`` (gripper and boom use up
    the moment), ``distal_margin``, ``body_sensor_budget`` (booms and
    instruments leave no remainder) and ``body_margin``.
    """

    boom_mass: float
    total_boom_mass: float
    body_sensor_budget: float
    distal_sensor_budget: float
    distal_sensor_mass: float
    body_sensor_mass: float
    shoulder_moment: float
    allowable_moment: float
    pulloff_capacity: float
    weight_on_grippers: float
    body_margin: float
    distal_margin: float
    pulloff_margin: float
    feasible: bool
    reasons: dict[str, str]


def boom_mass(length_m: float, density_g_per_m: float) -> float:
    """Mass of one boom in kilograms from its linear density."""
    if length_m <= 0:
        raise ValueError("boom length must be > 0 m")
    if density_g_per_m <= 0:
        raise ValueError("boom linear density must be > 0 g/m")
    return length_m * density_g_per_m / 1000.0


def shoulder_moment(
    m_sensor_kg: float, m_gripper_kg: float, m_boom_kg: float, g: float, length_m: float
) -> float:
    """Bending moment at the boom root for a horizontal, outstretched boom."""
    for label, m in (("sensor", m_sensor_kg), ("gripper", m_gripper_kg), ("boom", m_boom_kg)):
        if m < 0:
            raise ValueError(f"{label} mass must be >= 0 kg")
    if length_m <= 0:
        raise ValueError("boom length must be > 0 m")
    return (m_sensor_kg + m_gripper_kg + 0.5 * m_boom_kg) * g * length_m


def max_distal_sensor_mass(
    m_crit: float,
    margin: float,
    m_gripper_kg: float,
    m_boom_kg: float,
    g: float,
    length_m: float,
) -> float:
    """Largest tip sensor mass the margined buckling moment allows.

    Floors at 0 when gripper and boom alone exhaust the allowable moment,
    so infeasible corners report a zero budget instead of erroring.
    """
    if m_crit <= 0:
        raise ValueError("critical buckling moment must be > 0 N*m")
    if not 0 <= margin < 1:
        raise ValueError("margin must be a fraction in [0, 1)")
    allowable = m_crit / (1.0 + margin)
    m_sensor = allowable / (g * length_m) - m_gripper_kg - 0.5 * m_boom_kg
    return max(0.0, m_sensor)


def _num(value: float, digits: int = 4) -> str:
    """A number in a reason: ``digits`` decimals, or from 1e15 up the shortest form that reads back."""
    return repr(float(value)) if abs(value) >= 1e15 else f"{value:.{digits}f}"


def _exceeds(what: str, value: float, limit: float, limit_name: str = "budget", unit: str = "kg") -> str:
    """A reason that ``value`` exceeds ``limit``, both printed to the fewest
    decimals, at least 4, at which they differ."""
    digits = 4
    while _num(value, digits) == _num(limit, digits) and value != limit:
        digits += 1
    return f"{what} {_num(value, digits)} {unit} exceeds {limit_name} {_num(limit, digits)} {unit}"


def budget_report(
    mission: MissionConfig,
    distal_sensor_mass_kg: float = 0.0,
    body_sensor_mass_kg: float = 0.0,
) -> BudgetReport:
    """Compose the full budget envelope and check a loadout against it.

    The body budget is ``body_sensor_fraction`` of what booms and
    instruments leave of the overall budget; the grippers must hold the
    whole overall budget.  A budget the mission exhausts floors at 0, as
    ``max_distal_sensor_mass`` floors the tip's, with a reason naming
    what used it up, so the report is infeasible whatever the loadout; a
    quantity that overflows a float raises a ValidationError naming it.
    """
    masses = {"distal_sensor_mass_kg": distal_sensor_mass_kg, "body_sensor_mass_kg": body_sensor_mass_kg}
    for name, m in masses.items():
        if not (math.isfinite(m) and m >= 0):
            raise ValueError(f"{name} must be finite and >= 0 kg")
    g, length, gripper = mission.gravity, mission.boom_length, mission.gripper_mass
    one_boom = boom_mass(length, mission.boom_linear_density)
    total_booms = one_boom * mission.boom_count
    remainder = mission.overall_mass_budget - total_booms - mission.instrument_mass
    body_budget = mission.body_sensor_fraction * max(0.0, remainder)
    distal_budget = max_distal_sensor_mass(
        mission.critical_buckling_moment, mission.buckling_margin, gripper, one_boom, g, length
    )
    unloaded = shoulder_moment(0.0, gripper, one_boom, g, length)
    allowable = mission.critical_buckling_moment / (1.0 + mission.buckling_margin)
    capacity = mission.boom_count * mission.gripper_pulloff
    weight = mission.overall_mass_budget * g

    body_margin = body_budget - body_sensor_mass_kg
    distal_margin = distal_budget - distal_sensor_mass_kg
    reasons = {}  # keyed by the field each explains
    if weight > capacity:
        reasons["pulloff_margin"] = _exceeds("weight on grippers", weight, capacity, "pulloff capacity", "N")
    if unloaded > allowable:
        moment = _exceeds("gripper and boom moment", unloaded, allowable, "the allowable", "N*m")
        reasons["distal_sensor_budget"] = f"{moment}, leaving no distal sensor budget"
    if distal_margin < 0:
        reasons["distal_margin"] = _exceeds("distal sensor mass", distal_sensor_mass_kg, distal_budget)
    if remainder <= 0:
        reasons["body_sensor_budget"] = (
            f"booms ({_num(total_booms)} kg) + instruments ({_num(mission.instrument_mass)} kg) "
            f"leave no remainder of the {_num(mission.overall_mass_budget)} kg overall budget"
        )
    if body_margin < 0:
        reasons["body_margin"] = _exceeds("body sensor mass", body_sensor_mass_kg, body_budget)
    report = BudgetReport(
        boom_mass=one_boom,
        total_boom_mass=total_booms,
        body_sensor_budget=body_budget,
        distal_sensor_budget=distal_budget,
        distal_sensor_mass=distal_sensor_mass_kg,
        body_sensor_mass=body_sensor_mass_kg,
        shoulder_moment=shoulder_moment(distal_sensor_mass_kg, gripper, one_boom, g, length),
        allowable_moment=allowable,
        pulloff_capacity=capacity,
        weight_on_grippers=weight,
        body_margin=body_margin,
        distal_margin=distal_margin,
        pulloff_margin=capacity - weight,
        feasible=not reasons,
        reasons=reasons,
    )
    for name, value in vars(report).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError("budget", name, f"must be finite; the mission and masses give {value}")
    return report
