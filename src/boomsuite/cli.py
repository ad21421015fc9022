"""Command-line front end: evaluate / budget / coverage / select / report.

A batch tool: all inputs are files plus flags, no prompts, and identical
inputs produce byte-identical output.  Exit codes: 0 success, 1 the
analysis ran but the result is infeasible, 2 input or validation error
or output that could not be written.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, TextIO

from .errors import NoFeasibleSuiteError, TradeStudyError, ValidationError, fields_of
from .reporting import FORMATS

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

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


def _load_profile(value: str, catalog: Catalog) -> ScoringProfile:
    """The profile a bundled shorthand or a path names.  A file's override
    ids must name sensors of ``catalog``; the bundled profiles name the
    paper's sensors, and any catalog may be scored against them."""
    from .catalog import _hint, bundled_path
    from .scoring import load_profile

    if value in _PROFILE_SHORTHANDS:
        return load_profile(bundled_path(_PROFILE_SHORTHANDS[value]))
    profile = load_profile(value)
    for sensor_id in profile.overrides:
        if sensor_id not in catalog:
            hint = _hint(sensor_id, catalog.ids())
            raise ValidationError(profile.stage.value, f"overrides.{sensor_id}", "unknown sensor id" + hint)
    return profile


def _bounded(kind: type, low: int, strict: bool = False) -> Callable[[str], float]:
    """argparse type for a number flag: a finite ``kind`` (float or int) of
    at least ``low``, or above it when ``strict``.  Finite, so that a NaN
    budget cannot switch off every comparison made against it."""

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text!r}")
        return value

    return parse


def _load_inputs(args: argparse.Namespace) -> tuple[Catalog, MissionConfig]:
    from .catalog import load_catalog, load_mission

    return load_catalog(_input(args, "catalog")), load_mission(_input(args, "mission"))


# ---------------------------------------------------------------------------
# sections, each printed by its own command and again by ``report``


def _matrix_section(catalog: Catalog, profile: ScoringProfile, fmt: str, title: str | None = None) -> str:
    """The modality overview or the gated decision matrix, as the
    profile's stage asks, titled after the stage unless ``title`` is given."""
    from .reporting import decision_matrix_table, modality_overview_table
    from .scoring import Stage, modality_table, score_matrix

    if profile.stage is Stage.MODALITY_OVERVIEW:
        table = modality_table(catalog, profile)
        return modality_overview_table(table, fmt, title=title or "Modality Overview")
    pool = catalog.subset(modalities=profile.modalities)
    if not pool.sensors:
        raise ValidationError(profile.stage.value, "modalities", "matches no sensor in the catalog")
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
        raise ValidationError("mounts", "body_mounts", "coverage needs at least one body mount")
    return tube, section_coverage(list(spec.body_mounts), tube)


def _selection(
    args: argparse.Namespace, catalog: Catalog, mission: MissionConfig, rules: list[PlacementRule],
    budgets: bool = False,
) -> tuple[SuiteSolution | None, str]:
    """The best suite under ``rules`` and its section, headed in the table
    format by its use of each budget when ``budgets``, or None and a
    section listing why no suite is feasible."""
    from .reporting import selection_lines
    from .selector import select_best

    try:
        suite = select_best(catalog, rules, mission)
    except NoFeasibleSuiteError as exc:
        return None, _no_suite(exc, args, mission)
    used = [("body budget: {} of {} kg; distal budget: {} of {} kg",
             suite.body_mass, rules[0].mass_budget, suite.distal_mass, rules[1].mass_budget)]
    return suite, selection_lines(suite, args.format, title="Selected Suite", before=used if budgets else ())


def _rules(
    args: argparse.Namespace, mission: MissionConfig, far: ScoringProfile, near: ScoringProfile
) -> list[PlacementRule]:
    """The paper's placement rules, with the limits the selecting flags give."""
    from .selector import paper_rules

    return paper_rules(
        mission, far, near, body_max=args.body_max, distal_max=args.distal_max,
        redundancy=args.redundancy, body_budget=args.body_budget, distal_budget=args.distal_budget,
    )


def _no_suite(exc: NoFeasibleSuiteError, args: argparse.Namespace, mission: MissionConfig) -> str:
    """The selector's reasons, then the ``budget_report`` reason for each
    mission budget it floored at 0 that no budget flag replaces."""
    from .budget import budget_report

    reasons = list(exc.reasons)
    envelope = budget_report(mission)
    # the reasons that floor the body and the tip budget, known by their words
    floors = {"leave no remainder": args.body_budget, "no distal sensor budget": args.distal_budget}
    for marker, given in floors.items():
        if given is None:
            reasons += [reason for reason in envelope.reasons if marker in reason]
    return "\n".join(["no feasible suite:", *(f"  - {reason}" for reason in reasons)])


# ---------------------------------------------------------------------------
# subcommands, each returning its exit code and its output for ``main`` to write


def cmd_evaluate(args: argparse.Namespace) -> tuple[int, str]:
    from .catalog import load_catalog

    catalog = load_catalog(_input(args, "catalog"))
    return EXIT_OK, _matrix_section(catalog, _load_profile(args.profile or "far_field", catalog), args.format)


def cmd_budget(args: argparse.Namespace) -> tuple[int, str]:
    from .budget import budget_report
    from .catalog import load_catalog, load_mission
    from .reporting import budget_summary_lines, budget_table

    body_mass, distal_mass = args.body_mass, args.distal_mass
    reads_mounts = (body_mass is None or distal_mass is None) and (args.mounts or args.preset == "paper")
    # only the mounts file needs the catalog; one that is given is read anyway, so a bad file exits 2
    catalog = load_catalog(_input(args, "catalog")) if reads_mounts or args.catalog else None
    mission = load_mission(_input(args, "mission"))
    if reads_mounts:
        from .mounts import load_mounts

        spec = load_mounts(_input(args, "mounts"), catalog)
        body_mass = spec.body_mass_kg if body_mass is None else body_mass
        distal_mass = spec.distal_mass_kg if distal_mass is None else distal_mass
    report = budget_report(mission, distal_mass or 0.0, body_mass or 0.0)
    section = budget_table(
        report, args.format, title="Mass and Buckling Budget", before=budget_summary_lines(report)
    )
    return (EXIT_OK if report.feasible else EXIT_INFEASIBLE), section


def _mount_lines(spec: MountSpec, tube: TubeSection, mission: MissionConfig) -> Iterator[tuple]:
    """Each body mount's effective view and the slice analysed, as prose.
    Generated, as is ``_plan_lines``, so that only the format printing it computes it."""
    from .geometry import effective_vertical_fov, near_field_threshold

    for mount in spec.body_mounts:
        fov = mount.sensor.fov  # section_coverage has rejected a mount without one
        vfov = fov.vertical_deg if fov.vertical_deg is not None else fov.horizontal_deg
        # the catalog allows up to 360; a mount delivers at most 180
        eff = effective_vertical_fov(min(vfov, 180.0), abs(mount.tilt_deg), mount.spinning)
        kind = "spinning" if mount.spinning else "static"
        yield "{} at {} deg ({}): effective vertical FOV {} deg", mount.sensor.id, mount.tilt_deg, kind, eff
    yield ("analysis slice: {} m deep x {} m wide; near-field boundary {} m",
           tube.depth, tube.width, near_field_threshold(mission.boom_length))


def _plan_lines(spec: MountSpec, mission: MissionConfig) -> Iterator[tuple]:
    """The mounts' stage plan, anchored as the selector anchors a suite's
    plan; none when either placement has no ranged sensor."""
    from .geometry import stage_anchor, stage_plan
    from .reporting import stage_plan_lines

    far = stage_anchor(m.sensor for m in spec.body_mounts)
    near = stage_anchor(spec.distal)
    if far is not None and near is not None:
        yield from stage_plan_lines(stage_plan(far, near, mission.boom_length))


def cmd_coverage(args: argparse.Namespace) -> tuple[int, str]:
    from .mounts import load_mounts
    from .reporting import coverage_table

    catalog, mission = _load_inputs(args)
    spec = load_mounts(_input(args, "mounts"), catalog)
    tube, report = _coverage(spec, mission, args.tube_depth, args.tube_width)
    section = coverage_table(
        report, args.format, title="Cross-Section Coverage",
        before=_mount_lines(spec, tube, mission), after=_plan_lines(spec, mission),
    )
    not_visible = [s for s, cov in report.surfaces.items() if not cov.visible]
    if not_visible:
        return EXIT_INFEASIBLE, f"{section}\nnot visible: {', '.join(not_visible)}"
    return EXIT_OK, section


def cmd_select(args: argparse.Namespace) -> tuple[int, str]:
    from .reporting import sensitivity_table
    from .selector import sensitivity_report

    catalog, mission = _load_inputs(args)
    far_profile = _load_profile(args.far_profile or "far_field", catalog)
    near_profile = _load_profile(args.near_profile or "near_field", catalog)
    rules = _rules(args, mission, far_profile, near_profile)

    if args.sweep is not None:
        criterion, weights = args.sweep
        try:
            rows = sensitivity_report(catalog, rules, mission, criterion, weights)
        except NoFeasibleSuiteError as exc:
            return EXIT_INFEASIBLE, _no_suite(exc, args, mission)
        return EXIT_OK, sensitivity_table(rows, args.format, title=f"Sensitivity: {criterion.value} weight")

    suite, section = _selection(args, catalog, mission, rules, budgets=True)
    return (EXIT_OK if suite is not None else EXIT_INFEASIBLE), section


def cmd_report(args: argparse.Namespace) -> tuple[int, str]:
    from .budget import budget_report
    from .mounts import load_mounts
    from .reporting import budget_table, coverage_table

    catalog, mission = _load_inputs(args)
    # The bundled far- and near-field profiles feed both the matrices and,
    # unless --far-profile/--near-profile name other profiles, the selection.
    sections = [_matrix_section(catalog, _load_profile("modality", catalog), args.format)]
    far_profile = _load_profile("far_field", catalog)
    sections.append(_matrix_section(catalog, far_profile, args.format, title="Far-Field Matrix"))
    near_profile = _load_profile("near_field", catalog)
    sections.append(_matrix_section(catalog, near_profile, args.format, title="Near-Field Matrix"))

    spec = load_mounts(_input(args, "mounts"), catalog)
    budget = budget_report(mission, spec.distal_mass_kg, spec.body_mass_kg)
    sections.append(budget_table(budget, args.format, title="Mass and Buckling Budget"))

    _, coverage = _coverage(spec, mission)
    sections.append(coverage_table(coverage, args.format, title="Cross-Section Coverage"))

    if (args.far_profile or "far_field") != "far_field":
        far_profile = _load_profile(args.far_profile, catalog)
    if (args.near_profile or "near_field") != "near_field":
        near_profile = _load_profile(args.near_profile, catalog)
    rules = _rules(args, mission, far_profile, near_profile)
    suite, section = _selection(args, catalog, mission, rules)
    sections.append(section)

    feasible = budget.feasible and coverage.all_visible and suite is not None
    return (EXIT_OK if feasible else EXIT_INFEASIBLE), "\n\n".join(sections)


# ---------------------------------------------------------------------------
# argument wiring


class _Sweep(argparse.Action):
    """``--sweep CRITERION MIN MAX``, checked as it is parsed, so before any
    file is read: a criterion name and integer weights 0 <= MIN <= MAX, at
    most ``SWEEP_GUARD`` of them.  Stores the criterion and the weights."""

    def __call__(self, parser, namespace, values, option_string=None):
        from .scoring import CriterionName
        from .selector import SWEEP_GUARD

        name, lo, hi = values
        try:
            criterion = CriterionName(name)
        except ValueError:
            names = ", ".join(c.value for c in CriterionName)
            raise argparse.ArgumentError(self, f"CRITERION must be one of: {names}; got {name!r}") from None
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            message = f"MIN and MAX must be integers, got {lo!r} and {hi!r}"
            raise argparse.ArgumentError(self, message) from None
        if lo < 0:
            raise argparse.ArgumentError(self, f"MIN must be >= 0, got {lo}")
        if lo > hi:
            raise argparse.ArgumentError(self, f"MIN {lo} is greater than MAX {hi}")
        if hi - lo + 1 > SWEEP_GUARD:
            raise argparse.ArgumentError(
                self, f"{lo}..{hi} spans {hi - lo + 1} weights; at most {SWEEP_GUARD} are allowed"
            )
        setattr(namespace, self.dest, (criterion, list(range(lo, hi + 1))))


_EVERY = ("evaluate", "budget", "coverage", "select", "report")
_SELECTING = ("select", "report")
_MASS, _LENGTH, _COUNT = _bounded(float, 0), _bounded(float, 0, strict=True), _bounded(int, 1)

# Every flag once, in the order --help lists them, with the commands that take it.
_FLAGS: list[tuple[str, tuple[str, ...], dict]] = [
    ("--format", _EVERY, dict(choices=FORMATS, default="table", help="output format")),
    ("--preset", _EVERY, dict(choices=["paper"], help="use the bundled reference fixtures")),
    ("--catalog", _EVERY, dict(help="sensor catalog file")),
    ("--profile", ("evaluate",), dict(help="profile file, or shorthand: far_field / near_field / modality")),
    ("--mission", ("budget", "coverage", "select", "report"), dict(help="mission configuration file")),
    ("--mounts", ("budget", "coverage", "report"), dict(help="mount specification file")),
    ("--body-mass", ("budget",), dict(type=_MASS, help="body sensor mass to check, kg")),
    ("--distal-mass", ("budget",), dict(type=_MASS, help="boom-tip sensor mass to check, kg")),
    ("--tube-depth", ("coverage",), dict(type=_LENGTH, help="override analysis tube depth, m")),
    ("--tube-width", ("coverage",), dict(type=_LENGTH, help="override analysis tube width, m")),
    ("--far-profile", _SELECTING, dict(help="body placement profile (default: bundled far_field)")),
    ("--near-profile", _SELECTING, dict(help="boom-tip placement profile (default: bundled near_field)")),
    ("--body-budget", _SELECTING, dict(type=_MASS, help="override body mass budget, kg")),
    ("--distal-budget", _SELECTING, dict(type=_MASS, help="override boom-tip mass budget, kg")),
    ("--body-max", _SELECTING, dict(type=_COUNT, default=1, help="max sensors on the body")),
    ("--distal-max", _SELECTING, dict(type=_COUNT, default=1, help="max sensors at the boom tip")),
    ("--redundancy", _SELECTING,
     dict(action="store_true", help="require two dust-robust modalities on the body")),
    ("--sweep", ("select",), dict(
        action=_Sweep, nargs=3, metavar=("CRITERION", "MIN", "MAX"),
        help="sweep one criterion's weight over an integer range",
    )),
]

_COMMANDS = {
    "evaluate": ("score a catalog against a profile", cmd_evaluate),
    "budget": ("mass and buckling budget report", cmd_budget),
    "coverage": ("cross-section coverage and stage plan", cmd_coverage),
    "select": ("choose the best feasible sensor suite", cmd_select),
    "report": ("bundle every analysis into one report", cmd_report),
}


class _Help(Exception):
    """``--help`` was given; the help text, for ``main`` to write."""


class _Parser(argparse.ArgumentParser):
    # argparse writes help itself and ignores a failed write; hand it to main.
    def print_help(self, file=None) -> NoReturn:
        raise _Help(self.format_help().removesuffix("\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boomsuite",
        description="Trade-study engine for perception sensor suites on boom-based climbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, commands, options in _FLAGS:
            if name in commands:
                command.add_argument(flag, **options)
        command.set_defaults(func=func)
    return parser


def _write_line(stream: TextIO | None, text: str) -> OSError | None:
    """Write and flush a line, or return why not, with ``stream`` then at /dev/null."""
    try:
        stream.write(text + "\n")
        stream.flush()
    except AttributeError:  # None: the process started with it closed
        return OSError(errno.EBADF, os.strerror(errno.EBADF))
    except OSError as exc:  # the flush at exit then cannot fail too, exiting 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one command in-process and return its exit code, leaving the garbage collector as
    it found it.  The program (no ``argv``) keeps the cyclic collector off and freezes the heap
    before exit, so that the interpreter's exit collections skip what the imports left behind."""
    if argv is None:
        gc.disable()
        try:
            return _run(sys.argv[1:])
        finally:
            gc.freeze()
    return _run(argv)


def _run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, output = args.func(args)
    except _Help as exc:
        code, output = EXIT_OK, str(exc)
    except (TradeStudyError, ValueError) as exc:
        _write_line(sys.stderr, f"error: {exc}")  # exits 2 with stderr closed or full too
        return EXIT_INPUT
    # The one write.  A failed one exits 2, not 1, which would read as infeasible.
    failed = _write_line(sys.stdout, output)
    if failed is not None and failed.errno != errno.EPIPE:  # nothing to tell a reader that has gone
        _write_line(sys.stderr, f"error: cannot write output: {failed.strerror}")
    return code if failed is None else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
