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
from .errors import InfeasibleError

__all__ = [
    "BudgetReport",
    "boom_mass",
    "body_sensor_budget",
    "shoulder_moment",
    "max_distal_sensor_mass",
    "pulloff_capacity_check",
    "budget_report",
]


@dataclass(frozen=True)
class BudgetReport:
    """Budget envelope plus the margins left by a concrete loadout.

    Units: masses/budgets kg, moments N*m, forces N.
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
    reasons: tuple[str, ...]


def boom_mass(length_m: float, density_g_per_m: float) -> float:
    """Mass of one boom in kilograms from its linear density."""
    if length_m <= 0:
        raise ValueError("boom length must be > 0 m")
    if density_g_per_m <= 0:
        raise ValueError("boom linear density must be > 0 g/m")
    return length_m * density_g_per_m / 1000.0


def body_sensor_budget(
    overall_kg: float, total_boom_kg: float, instruments_kg: float, fraction: float
) -> float:
    """Body perception allotment: a fraction of what remains after booms
    and instruments.  Raises InfeasibleError when nothing remains."""
    remainder = overall_kg - total_boom_kg - instruments_kg
    if remainder <= 0:
        raise InfeasibleError(
            f"booms ({total_boom_kg} kg) + instruments ({instruments_kg} kg) "
            f"leave no remainder of the {overall_kg} kg overall budget"
        )
    return fraction * remainder


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


def pulloff_capacity_check(
    gripper_count: int, pulloff_per_gripper_n: float, total_mass_kg: float, g: float
) -> tuple[bool, float]:
    """Can the grippers hold the whole robot?  Returns (feasible, margin N)."""
    if gripper_count <= 0 or pulloff_per_gripper_n <= 0 or g <= 0:
        raise ValueError("gripper count, pulloff force and gravity must be > 0")
    if total_mass_kg < 0:
        raise ValueError("total mass must be >= 0 kg")
    capacity = gripper_count * pulloff_per_gripper_n
    weight = total_mass_kg * g
    return weight <= capacity, capacity - weight


def budget_report(
    mission: MissionConfig,
    distal_sensor_mass_kg: float = 0.0,
    body_sensor_mass_kg: float = 0.0,
) -> BudgetReport:
    """Compose the full budget envelope and check a loadout against it."""
    masses = {"distal_sensor_mass_kg": distal_sensor_mass_kg, "body_sensor_mass_kg": body_sensor_mass_kg}
    for name, m in masses.items():
        if not (math.isfinite(m) and m >= 0):
            raise ValueError(f"{name} must be finite and >= 0 kg")
    one_boom = boom_mass(mission.boom_length, mission.boom_linear_density)
    total_booms = one_boom * mission.boom_count
    body_budget = body_sensor_budget(
        mission.overall_mass_budget,
        total_booms,
        mission.instrument_mass,
        mission.body_sensor_fraction,
    )
    distal_budget = max_distal_sensor_mass(
        mission.critical_buckling_moment,
        mission.buckling_margin,
        mission.gripper_mass,
        one_boom,
        mission.gravity,
        mission.boom_length,
    )
    moment = shoulder_moment(
        distal_sensor_mass_kg,
        mission.gripper_mass,
        one_boom,
        mission.gravity,
        mission.boom_length,
    )
    allowable = mission.critical_buckling_moment / (1.0 + mission.buckling_margin)
    pull_ok, pull_margin = pulloff_capacity_check(
        mission.boom_count,
        mission.gripper_pulloff,
        mission.overall_mass_budget,
        mission.gravity,
    )

    body_margin = body_budget - body_sensor_mass_kg
    distal_margin = distal_budget - distal_sensor_mass_kg
    reasons = []
    if not pull_ok:
        reasons.append(f"gripper pulloff capacity short by {-pull_margin:.3f} N")
    if distal_margin < 0:
        reasons.append(
            f"distal sensor mass {distal_sensor_mass_kg:.4f} kg exceeds "
            f"budget {distal_budget:.4f} kg"
        )
    if body_margin < 0:
        reasons.append(
            f"body sensor mass {body_sensor_mass_kg:.4f} kg exceeds "
            f"budget {body_budget:.4f} kg"
        )
    return BudgetReport(
        boom_mass=one_boom,
        total_boom_mass=total_booms,
        body_sensor_budget=body_budget,
        distal_sensor_budget=distal_budget,
        distal_sensor_mass=distal_sensor_mass_kg,
        body_sensor_mass=body_sensor_mass_kg,
        shoulder_moment=moment,
        allowable_moment=allowable,
        pulloff_capacity=mission.boom_count * mission.gripper_pulloff,
        weight_on_grippers=mission.overall_mass_budget * mission.gravity,
        body_margin=body_margin,
        distal_margin=distal_margin,
        pulloff_margin=pull_margin,
        feasible=not reasons,
        reasons=tuple(reasons),
    )
