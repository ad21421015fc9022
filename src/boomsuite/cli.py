"""Command-line front end: evaluate / budget / coverage / select / report.

A batch tool: all inputs are files plus flags, no prompts, and identical
inputs produce byte-identical output.  Exit codes: 0 success, 1 the
analysis ran but the result is infeasible, 2 input or validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import NoFeasibleSuiteError, TradeStudyError, fields_of
from .reporting import FORMATS

if TYPE_CHECKING:
    from .catalog import Catalog, MissionConfig
    from .geometry import CoverageReport, TubeSection
    from .mounts import MountSpec
    from .scoring import ScoringProfile
    from .selector import PlacementRule, SuiteSolution

# Each command imports the analysis modules it runs, when it runs, so a
# process pays only for those.

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2

_PRESET_FILES = {
    "catalog": "paper_catalog.yaml",
    "mission": "paper_mission.yaml",
    "mounts": "paper_mounts.yaml",
}

_PROFILE_SHORTHANDS = {
    "far_field": "far_field.profile",
    "near_field": "near_field.profile",
    "modality": "modality.profile",
}


def _input(args: argparse.Namespace, name: str) -> str | Path:
    """The file ``--<name>`` names, else the ``--preset paper`` one."""
    from .catalog import bundled_path

    if getattr(args, name):
        return getattr(args, name)
    if args.preset != "paper":
        raise TradeStudyError(f"a --{name} file is required (or use --preset paper)")
    return bundled_path(_PRESET_FILES[name])


def _load_profile(value: str) -> ScoringProfile:
    """The profile a bundled shorthand or a path names."""
    from .catalog import bundled_path
    from .scoring import load_profile

    if value in _PROFILE_SHORTHANDS:
        return load_profile(bundled_path(_PROFILE_SHORTHANDS[value]))
    return load_profile(value)


def _finite_float(text: str) -> float:
    """argparse type for physical quantities: a finite float, so that a
    NaN budget cannot switch off every comparison made against it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type for a mass: a finite float, zero or above."""
    value = _finite_float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a length: a finite float above zero."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table", help="output format")
    parser.add_argument("--preset", choices=["paper"], help="use the bundled reference fixtures")
    parser.add_argument("--catalog", help="sensor catalog file")


def _load_inputs(args: argparse.Namespace) -> tuple[Catalog, MissionConfig]:
    from .catalog import load_catalog, load_mission

    return load_catalog(_input(args, "catalog")), load_mission(_input(args, "mission"))


def _default_rules(
    mission: MissionConfig,
    far_profile: ScoringProfile,
    near_profile: ScoringProfile,
    args: argparse.Namespace,
) -> list[PlacementRule]:
    """Body + distal rules with budgets derived from the mission.  Each
    placement admits by default the modality families its profile carries
    complete scoring coverage for."""
    from .budget import budget_report
    from .catalog import Modality
    from .selector import Placement, PlacementRule

    report = budget_report(mission)
    body_budget = args.body_budget if args.body_budget is not None else report.body_sensor_budget
    distal_budget = (
        args.distal_budget if args.distal_budget is not None else report.distal_sensor_budget
    )
    body_max = args.body_max
    min_dust_modalities = 0
    if args.redundancy:
        body_max = max(body_max, 2)
        min_dust_modalities = 2
    return [
        PlacementRule(
            placement=Placement.BODY,
            mass_budget=body_budget,
            profile=far_profile,
            max_sensors=body_max,
            modalities=(Modality.LIDAR, Modality.RADAR),
            min_dust_robust_modalities=min_dust_modalities,
        ),
        PlacementRule(
            placement=Placement.DISTAL,
            mass_budget=distal_budget,
            profile=near_profile,
            max_sensors=args.distal_max,
            modalities=(Modality.CAMERA2D, Modality.CAMERA3D),
        ),
    ]


# ---------------------------------------------------------------------------
# sections, each printed by its own command and again by ``report``


def _matrix_section(catalog: Catalog, profile: ScoringProfile, fmt: str, title: str | None = None) -> str:
    """The modality overview or the gated decision matrix, as the
    profile's stage asks, titled after the stage unless ``title`` is given."""
    from .reporting import decision_matrix_table, modality_overview_table
    from .scoring import Stage, modality_table, score_matrix

    if profile.stage is Stage.MODALITY_OVERVIEW:
        table = modality_table(catalog, profile)
        return modality_overview_table(
            table, catalog, dict(profile.exemplars), fmt, title=title or "Modality Overview"
        )
    pool = catalog.subset(modalities=profile.modalities) if profile.modalities else catalog
    matrix = score_matrix(pool, profile)
    return decision_matrix_table(
        matrix, pool, fmt, title=title or f"Decision Matrix ({profile.stage.value})"
    )


def _coverage(
    spec: MountSpec, mission: MissionConfig, depth: float | None = None, width: float | None = None
) -> tuple[TubeSection, CoverageReport]:
    """The analysis slice, with ``depth``/``width`` overriding the mounts
    file's or the mission's but not the body's height or offset, and what
    the body mounts see of it."""
    from dataclasses import replace

    from .geometry import TubeSection, section_coverage

    tube = spec.analysis_tube or TubeSection(depth=mission.tube_depth, width=mission.tube_width)
    # the flags are positive, so only the file's body position can fall outside
    with fields_of("mounts.analysis_tube"):
        tube = replace(
            tube,
            depth=tube.depth if depth is None else depth,
            width=tube.width if width is None else width,
        )
    if not spec.body_mounts:
        raise TradeStudyError("mount specification lists no body mounts")
    return tube, section_coverage(list(spec.body_mounts), tube, mission.boom_length)


def _selection(
    catalog: Catalog, mission: MissionConfig, rules: list[PlacementRule], fmt: str
) -> tuple[SuiteSolution | None, str]:
    """The best suite under ``rules`` and its section, or None and a
    section listing why no suite is feasible."""
    from .reporting import selection_lines
    from .selector import select_best

    try:
        suite = select_best(catalog, rules, mission)
    except NoFeasibleSuiteError as exc:
        return None, "\n".join(["no feasible suite:", *(f"  - {reason}" for reason in exc.reasons)])
    return suite, selection_lines(suite, fmt, title="Selected Suite")


# ---------------------------------------------------------------------------
# subcommands


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .catalog import load_catalog

    catalog = load_catalog(_input(args, "catalog"))
    profile_arg = args.profile or ("far_field" if args.preset == "paper" else None)
    if profile_arg is None:
        raise TradeStudyError("a --profile file or shorthand is required")
    print(_matrix_section(catalog, _load_profile(profile_arg), args.format))
    return EXIT_OK


def cmd_budget(args: argparse.Namespace) -> int:
    from .budget import budget_report
    from .reporting import budget_summary_lines, budget_table

    catalog, mission = _load_inputs(args)
    body_mass, distal_mass = args.body_mass, args.distal_mass
    if (body_mass is None or distal_mass is None) and (args.mounts or args.preset == "paper"):
        from .mounts import load_mounts

        spec = load_mounts(_input(args, "mounts"), catalog)
        body_mass = spec.body_mass_kg if body_mass is None else body_mass
        distal_mass = spec.distal_mass_kg if distal_mass is None else distal_mass
    report = budget_report(mission, distal_mass or 0.0, body_mass or 0.0)
    if args.format == "table":
        print("\n".join(budget_summary_lines(report)))
    print(budget_table(report, args.format, title="Mass and Buckling Budget"))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_coverage(args: argparse.Namespace) -> int:
    from .geometry import effective_vertical_fov, stage_anchor, stage_plan
    from .mounts import load_mounts
    from .reporting import coverage_table, fmt_num, stage_plan_lines

    catalog, mission = _load_inputs(args)
    spec = load_mounts(_input(args, "mounts"), catalog)
    tube, report = _coverage(spec, mission, args.tube_depth, args.tube_width)
    section = coverage_table(report, args.format, title="Cross-Section Coverage")

    if args.format == "table":
        lines = []
        for mount in spec.body_mounts:
            fov = mount.sensor.fov
            if fov is None:
                continue
            vfov = fov.vertical_deg if fov.vertical_deg is not None else fov.horizontal_deg
            # the catalog allows up to 360; a mount delivers at most 180
            eff = effective_vertical_fov(min(vfov, 180.0), abs(mount.tilt_deg), mount.spinning)
            kind = "spinning" if mount.spinning else "static"
            lines.append(
                f"{mount.sensor.id} at {fmt_num(mount.tilt_deg)} deg ({kind}): "
                f"effective vertical FOV {fmt_num(eff)} deg"
            )
        lines.append(
            f"analysis slice: {fmt_num(tube.depth)} m deep x {fmt_num(tube.width)} m wide; "
            f"near-field boundary {fmt_num(report.near_field_max)} m"
        )
        lines.append(section)
        # anchored as the selector anchors a suite's plan; no plan when
        # either placement has no ranged sensor
        far = stage_anchor(m.sensor for m in spec.body_mounts)
        near = stage_anchor(spec.distal)
        if far is not None and near is not None:
            lines.extend(stage_plan_lines(stage_plan(far, near, mission.boom_length)))
        section = "\n".join(lines)
    print(section)
    not_visible = [s for s, cov in report.surfaces.items() if not cov.visible]
    if not_visible:
        print("not visible: " + ", ".join(not_visible))
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    from .reporting import fmt_num, sensitivity_table
    from .scoring import CriterionName
    from .selector import SWEEP_GUARD, sensitivity_report

    catalog, mission = _load_inputs(args)
    far_profile = _load_profile(args.far_profile or "far_field")
    near_profile = _load_profile(args.near_profile or "near_field")
    rules = _default_rules(mission, far_profile, near_profile, args)

    if args.sweep is not None:
        crit_name, lo, hi = args.sweep
        try:
            criterion = CriterionName(crit_name)
        except ValueError:
            raise TradeStudyError(f"unknown criterion {crit_name!r}") from None
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise TradeStudyError(f"--sweep MIN and MAX must be integers, got {lo!r} and {hi!r}") from None
        if lo > hi:
            raise TradeStudyError(f"--sweep MIN {lo} is greater than MAX {hi}")
        if hi - lo + 1 > SWEEP_GUARD:
            raise TradeStudyError(
                f"--sweep {lo}..{hi} spans {hi - lo + 1} weights; at most {SWEEP_GUARD} are allowed"
            )
        weights = list(range(lo, hi + 1))
        rows = sensitivity_report(catalog, rules, mission, criterion, weights)
        print(
            sensitivity_table(
                rows, criterion, args.format, title=f"Sensitivity: {criterion.value} weight"
            )
        )
        return EXIT_OK

    suite, section = _selection(catalog, mission, rules, args.format)
    if suite is not None and args.format == "table":
        print(
            f"body budget: {fmt_num(suite.body_mass)} of {fmt_num(rules[0].mass_budget)} kg; "
            f"distal budget: {fmt_num(suite.distal_mass)} of {fmt_num(rules[1].mass_budget)} kg"
        )
    print(section)
    return EXIT_OK if suite is not None else EXIT_INFEASIBLE


def cmd_report(args: argparse.Namespace) -> int:
    from .budget import budget_report
    from .mounts import load_mounts
    from .reporting import budget_table, coverage_table

    catalog, mission = _load_inputs(args)
    # The bundled far- and near-field profiles feed both the matrices and,
    # unless --far-profile/--near-profile name other profiles, the selection.
    sections = [_matrix_section(catalog, _load_profile("modality"), args.format)]
    far_profile = _load_profile("far_field")
    sections.append(_matrix_section(catalog, far_profile, args.format, title="Far-Field Matrix"))
    near_profile = _load_profile("near_field")
    sections.append(_matrix_section(catalog, near_profile, args.format, title="Near-Field Matrix"))

    spec = load_mounts(_input(args, "mounts"), catalog)
    budget = budget_report(mission, spec.distal_mass_kg, spec.body_mass_kg)
    sections.append(budget_table(budget, args.format, title="Mass and Buckling Budget"))

    _, coverage = _coverage(spec, mission)
    sections.append(coverage_table(coverage, args.format, title="Cross-Section Coverage"))

    if (args.far_profile or "far_field") != "far_field":
        far_profile = _load_profile(args.far_profile)
    if (args.near_profile or "near_field") != "near_field":
        near_profile = _load_profile(args.near_profile)
    rules = _default_rules(mission, far_profile, near_profile, args)
    suite, section = _selection(catalog, mission, rules, args.format)
    sections.append(section)

    print("\n\n".join(sections))
    feasible = budget.feasible and coverage.all_visible and suite is not None
    return EXIT_OK if feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boomsuite",
        description="Trade-study engine for perception sensor suites on boom-based climbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="score a catalog against a profile")
    _add_common(p_eval)
    p_eval.add_argument(
        "--profile",
        help="profile file, or shorthand: far_field / near_field / modality",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_budget = sub.add_parser("budget", help="mass and buckling budget report")
    _add_common(p_budget)
    p_budget.add_argument("--mission", help="mission configuration file")
    p_budget.add_argument("--mounts", help="mount specification file")
    p_budget.add_argument("--body-mass", type=_nonnegative_float, help="body sensor mass to check, kg")
    p_budget.add_argument("--distal-mass", type=_nonnegative_float, help="boom-tip sensor mass to check, kg")
    p_budget.set_defaults(func=cmd_budget)

    p_cov = sub.add_parser("coverage", help="cross-section coverage and stage plan")
    _add_common(p_cov)
    p_cov.add_argument("--mission", help="mission configuration file")
    p_cov.add_argument("--mounts", help="mount specification file")
    p_cov.add_argument("--tube-depth", type=_positive_float, help="override analysis tube depth, m")
    p_cov.add_argument("--tube-width", type=_positive_float, help="override analysis tube width, m")
    p_cov.set_defaults(func=cmd_coverage)

    def add_select_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--far-profile", help="body placement profile (default: bundled far_field)")
        p.add_argument("--near-profile", help="boom-tip placement profile (default: bundled near_field)")
        p.add_argument("--body-budget", type=_finite_float, help="override body mass budget, kg")
        p.add_argument("--distal-budget", type=_finite_float, help="override boom-tip mass budget, kg")
        p.add_argument("--body-max", type=int, default=1, help="max sensors on the body")
        p.add_argument("--distal-max", type=int, default=1, help="max sensors at the boom tip")
        p.add_argument(
            "--redundancy",
            action="store_true",
            help="require two dust-robust modalities on the body",
        )

    p_select = sub.add_parser("select", help="choose the best feasible sensor suite")
    _add_common(p_select)
    p_select.add_argument("--mission", help="mission configuration file")
    add_select_flags(p_select)
    p_select.add_argument(
        "--sweep",
        nargs=3,
        metavar=("CRITERION", "MIN", "MAX"),
        help="sweep one criterion's weight over an integer range",
    )
    p_select.set_defaults(func=cmd_select)

    p_report = sub.add_parser("report", help="bundle every analysis into one report")
    _add_common(p_report)
    p_report.add_argument("--mission", help="mission configuration file")
    p_report.add_argument("--mounts", help="mount specification file")
    add_select_flags(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TradeStudyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
