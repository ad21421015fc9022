"""CLI behavior: reproductions, formats, determinism, exit codes."""

import argparse
import errno
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import boomsuite
from boomsuite.catalog import bundled_path
from boomsuite.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_evaluate_far_field_sum_column(capsys):
    code, out, _ = run(capsys, "evaluate", "--preset", "paper", "--profile", "far_field")
    assert code == 0
    sums = []
    for line in out.splitlines():
        cells = line.split()
        if any(name in line for name in ("RSBPearl", "VLP-16", "Cygbot", "iPhone", "OS1-32")):
            # weighted sum sits before the eligibility flag
            idx = cells.index("yes") if "yes" in cells else cells.index("no")
            sums.append(int(cells[idx - 1]))
    assert sums == [23, 26, 20, 23, 26]


def test_evaluate_near_field_sum_column(capsys):
    code, out, _ = run(capsys, "evaluate", "--preset", "paper", "--profile", "near_field")
    assert code == 0
    assert re.search(r"Firefly S.*\b14\b", out)
    assert re.search(r"D435i.*\b24\b", out)
    assert re.search(r"D455i.*\b20\b", out)
    assert re.search(r"Zed2.*\b23\b", out)
    assert re.search(r"OAK-D.*\b18\b", out)


def test_evaluate_modality_grid(capsys):
    code, out, _ = run(capsys, "evaluate", "--preset", "paper", "--profile", "modality")
    assert code == 0
    lidar_row = next(line for line in out.splitlines() if line.startswith("lidar"))
    # exemplar names contain spaces; the grid is the last ten columns
    grades = ["High", "High", "High", "High", "High", "Low", "Low", "High", "Low", "Low"]
    assert lidar_row.split()[-10:] == grades


def test_a_modality_with_no_named_exemplar_is_shown_by_the_sensor_graded(capsys, tmp_path):
    profile = _mutated(tmp_path, "modality.profile", lambda d: d["exemplars"].pop("radar"))
    code, out, _ = run(capsys, "evaluate", "--preset", "paper", "--profile", profile, "--format", "csv")
    assert code == 0
    assert "radar,XM132,Mid,Mid,Mid,High,High,High,High,Mid,High,Mid\n" in out
    assert out == run(capsys, "evaluate", "--preset", "paper", "--profile", "modality", "--format", "csv")[1]


def test_evaluate_csv_same_numbers(capsys):
    code, table_out, _ = run(capsys, "evaluate", "--preset", "paper", "--profile", "far_field")
    argv = ("evaluate", "--preset", "paper", "--profile", "far_field", "--format")
    code2, csv_out, _ = run(capsys, *argv, "csv")
    code3, md_out, _ = run(capsys, *argv, "md")
    assert code == code2 == code3 == 0
    grab = lambda text: re.findall(r"(?<![\w.])\d+(?:\.\d+)?(?![\w.])", text)
    assert grab(csv_out) == grab(md_out) == grab(table_out)


@pytest.mark.parametrize(
    "argv",
    [
        ("budget", "--preset", "paper"),
        ("coverage", "--preset", "paper"),
        ("select", "--preset", "paper", "--redundancy"),
    ],
)
def test_csv_and_md_carry_identical_numbers(capsys, argv):
    _, csv_out, _ = run(capsys, *argv, "--format", "csv")
    _, md_out, _ = run(capsys, *argv, "--format", "md")
    grab = lambda text: re.findall(r"(?<![\w.])-?\d+(?:\.\d+)?(?![\w.])", text)
    assert grab(csv_out) == grab(md_out)


def test_budget_preset_reports_envelope(capsys):
    code, out, _ = run(capsys, "budget", "--preset", "paper")
    assert code == 0
    assert "0.62" in out
    assert "4.96" in out
    assert "1.988" in out
    assert "0.7295" in out
    assert "feasible" in out


def test_budget_infeasible_distal_mass_exits_one(capsys):
    code, out, _ = run(capsys, "budget", "--preset", "paper", "--distal-mass", "0.92")
    assert code == 1
    assert "no" in out  # feasible: no


def _paper_mission_with(tmp_path, key, value):
    return _mutated(tmp_path, "paper_mission.yaml", lambda d: d.__setitem__(key, value))


@pytest.mark.parametrize("command", ["budget", "select", "report"])
@pytest.mark.parametrize("instruments, printed", [(100, "100.0000"), (1.0e200, "1e+200")])
def test_instruments_that_exhaust_the_body_budget_make_an_infeasible_analysis(capsys, tmp_path, command,
                                                                             instruments, printed):
    mission = _paper_mission_with(tmp_path, "instrument_mass", instruments)
    code, out, err = run(capsys, command, "--preset", "paper", "--mission", mission)
    assert (code, err) == (1, "")
    # from 1e15 up a number in a reason prints in the shortest form that reads back
    assert f"booms (4.9600 kg) + instruments ({printed} kg) leave no remainder" in out
    if command == "budget":
        assert f"infeasible: booms (4.9600 kg) + instruments ({printed} kg)" in out
        assert re.search(r"^body_sensor_budget_kg\s+0$", out, re.MULTILINE)
        assert re.search(r"^feasible\s+no$", out, re.MULTILINE)
    else:
        assert "  - body: lightest eligible sensor 0.0040 kg exceeds budget 0.0000 kg\n" in out


# the mission values that use up the body budget, then the tip budget, in the order their reasons print
ENVELOPE_REASONS = {
    "instrument_mass": (100, "booms (4.9600 kg) + instruments (100.0000 kg) leave no remainder"
                             " of the 30.0000 kg overall budget"),
    "critical_buckling_moment": (0.001, "gripper and boom moment 20.7760 N*m exceeds the allowable"
                                        " 0.0008 N*m, leaving no distal sensor budget"),
}


def _mission_exhausting(tmp_path, keys):
    """The paper mission with the ``ENVELOPE_REASONS`` value of each of ``keys``."""
    values = {key: ENVELOPE_REASONS[key][0] for key in keys}
    return _mutated(tmp_path, "paper_mission.yaml", lambda d: d.update(values))


@pytest.mark.parametrize("command", ["select", "report"])
@pytest.mark.parametrize("keys", [["critical_buckling_moment"], ["instrument_mass"], list(ENVELOPE_REASONS)],
                         ids="+".join)
def test_no_feasible_suite_names_what_exhausted_the_mission_budget(capsys, tmp_path, command, keys):
    mission = _mission_exhausting(tmp_path, keys)
    code, out, err = run(capsys, command, "--preset", "paper", "--mission", mission)
    assert (code, err) == (1, "")
    selection = out[out.index("no feasible suite:\n"):]
    # after the selector's own lines, body first, and the last lines printed
    assert selection.endswith("".join(f"\n  - {ENVELOPE_REASONS[k][1]}" for k in keys) + "\n")
    assert selection.count("\n  - ") >= len(keys) + 1


@pytest.mark.parametrize("command", ["select", "report"])
@pytest.mark.parametrize("keys, flag, value", [
    (["instrument_mass"], "--body-budget", "0.001"),
    (["critical_buckling_moment"], "--distal-budget", "0.001"),
    # with both budgets used up, the other budget's reason stays
    (list(ENVELOPE_REASONS), "--body-budget", "1"),
    (list(ENVELOPE_REASONS), "--distal-budget", "1"),
])
def test_a_budget_flag_leaves_out_the_envelope_reason_it_replaces(capsys, tmp_path, command, keys, flag,
                                                                  value):
    replaced = "instrument_mass" if flag == "--body-budget" else "critical_buckling_moment"
    mission = _mission_exhausting(tmp_path, keys)
    code, out, err = run(capsys, command, "--preset", "paper", "--mission", mission, flag, value)
    assert (code, err) == (1, "")
    selection = out[out.index("no feasible suite:\n"):]
    assert ENVELOPE_REASONS[replaced][1] not in selection
    kept = [f"\n  - {ENVELOPE_REASONS[key][1]}" for key in keys if key != replaced]
    assert selection.endswith("".join(kept) + "\n")


def test_a_buckling_moment_gripper_and_boom_exhaust_makes_an_infeasible_budget(capsys, tmp_path):
    mission = _paper_mission_with(tmp_path, "critical_buckling_moment", 0.001)
    argv = ("budget", "--preset", "paper", "--mission", mission, "--distal-mass", "0", "--body-mass", "0")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert re.search(r"^feasible\s+no$", out, re.MULTILINE)
    assert "shoulder moment at 0 kg tip mass: 20.776 N*m vs allowable 0.0008 N*m" in out


def _paper_files(*names):
    return [arg for name in names for arg in (f"--{name}", str(bundled_path(f"paper_{name}.yaml")))]


def test_budget_reads_masses_from_a_mounts_file_without_preset(capsys):
    code, out, _ = run(capsys, "budget", *_paper_files("catalog", "mission", "mounts"), "--format", "csv")
    assert code == 0
    assert "body_sensor_mass_kg,1.7\n" in out
    assert "distal_sensor_mass_kg,0.26\n" in out


def test_budget_given_both_masses_reads_no_catalog(capsys):
    masses = ("--body-mass", "1", "--distal-mass", "0.2")
    code, out, err = run(capsys, "budget", *_paper_files("mission"), *masses, "--format", "csv")
    assert (code, err) == (0, "")
    assert "body_sensor_mass_kg,1\ndistal_sensor_mass_kg,0.2\n" in out


def test_budget_without_a_mounts_file_takes_0_kg_for_a_mass_not_given(capsys):
    argv = ("budget", *_paper_files("mission"), "--distal-mass", "0.2", "--format", "csv")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "body_sensor_mass_kg,0\ndistal_sensor_mass_kg,0.2\n" in out


def test_budget_still_reads_a_catalog_it_is_given(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sensors: []\n", encoding="utf-8")
    masses = ("--body-mass", "1", "--distal-mass", "0")
    code, out, err = run(capsys, "budget", "--catalog", str(bad), *_paper_files("mission"), *masses)
    assert (code, out) == (2, "")
    assert "sensors" in err


def test_budget_reading_a_mounts_file_needs_a_catalog(capsys):
    code, out, err = run(capsys, "budget", *_paper_files("mission", "mounts"))
    assert (code, out) == (2, "")
    assert err == "error: a --catalog file is required (or use --preset paper)\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "md"])
def test_budget_prints_no_minus_zero_and_a_reason_whose_numbers_differ(capsys, fmt):
    argv = ("budget", "--preset", "paper", "--body-mass", "1.988", "--distal-mass", "0.7295", "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert "distal sensor mass 0.72950 kg exceeds budget 0.72949 kg" in out
    assert not re.search(r"(?<![\w.])-0(?![\w.])", out)


def test_budget_names_a_pulloff_shortfall_with_numbers_that_differ(capsys, tmp_path):
    # eight grippers at 13.91245 N hold 111.2996 N of the 111.3 N the overall budget weighs
    mission = _paper_mission_with(tmp_path, "gripper_pulloff", 13.91245)
    code, out, err = run(capsys, "budget", "--preset", "paper", "--mission", mission, "--format", "csv")
    assert (code, err) == (1, "")
    assert "\npulloff_margin_n,-0.0004\n" in out
    assert "\nreason_0,weight on grippers 111.3000 N exceeds pulloff capacity 111.2996 N\n" in out


def test_budget_missing_mounts_file_exits_two(capsys, tmp_path):
    missing = tmp_path / "no_such_mounts.yaml"
    code, out, err = run(capsys, "budget", *_paper_files("catalog", "mission"), "--mounts", str(missing))
    assert code == 2
    assert f"file not found: {missing}" in err
    assert out == ""


def test_coverage_preset_all_visible_with_120_vfov(capsys):
    code, out, _ = run(capsys, "coverage", "--preset", "paper")
    assert code == 0
    assert "effective vertical FOV 120 deg" in out
    for surface in ("floor", "ceiling", "right_wall", "left_wall"):
        row = next(line for line in out.splitlines() if line.startswith(surface))
        assert row.split()[1] == "yes"
    assert "blind band" in out  # marginal boom-tip handoff is surfaced


def test_coverage_full_width_walls_beyond_range(capsys):
    code, out, _ = run(capsys, "coverage", "--preset", "paper", "--tube-width", "300")
    assert code == 1
    assert "not visible: right_wall, left_wall" in out


def test_select_preset_recommends_reference_components(capsys):
    code, out, _ = run(capsys, "select", "--preset", "paper")
    assert code == 0
    assert re.search(r"body_sensors\s+vlp16", out)
    assert re.search(r"distal_sensors\s+d435i", out)
    assert "tie" in out and "price" in out


def test_select_redundancy_adds_radar(capsys):
    code, out, _ = run(capsys, "select", "--preset", "paper", "--redundancy")
    assert code == 0
    assert re.search(r"body_sensors\s+vlp16,xm132", out)
    assert re.search(r"distal_sensors\s+d435i", out)


def test_select_infeasible_exits_one(capsys):
    code, out, _ = run(capsys, "select", "--preset", "paper", "--distal-budget", "0.05")
    assert code == 1
    assert "no feasible suite" in out


def test_select_names_a_budget_just_below_the_lightest_sensor_with_numbers_that_differ(capsys):
    # oak_d, the lightest eligible tip sensor, weighs 0.115 kg
    code, out, err = run(capsys, "select", "--preset", "paper", "--distal-budget", "0.1149")
    assert (code, out, err) == (1, (
        "no feasible suite:\n"
        "  - distal: lightest eligible sensor 0.1150 kg exceeds budget 0.1149 kg\n"
    ), "")


def test_select_warns_of_a_marginal_stage_plan_and_not_of_a_valid_one(capsys, tmp_path):
    _, marginal, _ = run(capsys, "select", "--preset", "paper", "--format", "csv")
    warning = "warning_0,stage plan leaves a 0.33 m blind band below the 3.33 m near-field boundary"
    assert f"\n{warning}\n" in marginal
    # a 9 m boom puts the near-field boundary at 3 m, the tip camera's reach: no blind band
    mission = _paper_mission_with(tmp_path, "boom_length", 9)
    code, valid, _ = run(capsys, "select", "--preset", "paper", "--mission", mission, "--format", "csv")
    assert code == 0
    assert "\nstage_plan,valid\n" in valid
    assert "warning_" not in valid


@pytest.mark.parametrize("budget, printed", [("0.3", "0.3000"), ("0.2999", "0.2999")])
def test_select_names_the_body_budget_and_dust_rule_that_no_pair_meets(capsys, budget, printed):
    """A radar fits 0.3 kg and lidar and radar are both dust-robust, but no
    lidar that passes the gates fits: os1_32, the lightest, weighs 0.495 kg.
    The budget prints to at least 4 decimals, as every number in a reason."""
    code, out, _ = run(capsys, "select", "--preset", "paper", "--redundancy", "--body-budget", budget)
    assert (code, out) == (1, (
        "no feasible suite:\n"
        f"  - body: no set of up to 2 sensors within the {printed} kg budget has 2 dust-robust modalities\n"
    ))


@pytest.mark.parametrize("fmt", ["table", "csv", "md"])
def test_a_number_of_1e15_or_more_prints_in_at_most_17_significant_digits(capsys, fmt):
    code, out, _ = run(capsys, "budget", "--preset", "paper", "--distal-mass", "1e300", "--format", fmt)
    assert code == 1
    assert "distal sensor mass 1e+300 kg exceeds budget 0.7295 kg" in out
    for number in re.findall(r"\d[\d.]*", out):
        assert len(number.replace(".", "").lstrip("0")) <= 17, number


def test_select_sweep_infeasible_exits_one_with_the_reasons_select_gives(capsys):
    _, plain, _ = run(capsys, "select", "--preset", "paper", "--distal-budget", "0.05")
    swept = run(capsys, "select", "--preset", "paper", "--distal-budget", "0.05", "--sweep", "dust", "0", "2")
    assert swept == (1, plain, "")


def test_select_sweep_renders_sensitivity(capsys):
    code, out, _ = run(capsys, "select", "--preset", "paper", "--sweep", "affordability", "0", "4")
    assert code == 0
    first_row = next(line for line in out.splitlines() if line.startswith("0 "))
    assert "os1_32" in first_row


def test_report_bundles_every_section(capsys):
    code, out, _ = run(capsys, "report", "--preset", "paper", "--redundancy")
    assert code == 0
    for title in (
        "Modality Overview",
        "Far-Field Matrix",
        "Near-Field Matrix",
        "Mass and Buckling Budget",
        "Cross-Section Coverage",
        "Selected Suite",
    ):
        assert title in out


@pytest.mark.parametrize("flags", [(), ("--redundancy",), ("--distal-budget", "0.05")])
def test_report_ends_with_the_section_select_prints(capsys, flags):
    code, out, _ = run(capsys, "select", "--preset", "paper", "--format", "csv", *flags)
    report_code, report_out, _ = run(capsys, "report", "--preset", "paper", "--format", "csv", *flags)
    assert report_out.endswith("\n\n" + out)
    assert report_code == code


def test_cli_is_deterministic(capsys):
    _, first, _ = run(capsys, "report", "--preset", "paper", "--format", "md")
    _, second, _ = run(capsys, "report", "--preset", "paper", "--format", "md")
    assert first == second


def test_missing_inputs_exit_two(capsys):
    code, _, err = run(capsys, "evaluate")
    assert code == 2
    assert "error" in err


def test_evaluate_without_a_profile_scores_against_far_field_whatever_the_preset(capsys):
    code, out, err = run(capsys, "evaluate", *_paper_files("catalog"))
    assert (code, err) == (0, "")
    assert out == run(capsys, "evaluate", "--preset", "paper")[1]


def test_bad_catalog_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sensors: []\n", encoding="utf-8")
    code, _, err = run(capsys, "evaluate", "--catalog", str(bad), "--profile", "far_field")
    assert code == 2
    assert "sensors" in err


def test_unknown_sweep_criterion_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--preset", "paper", "--sweep", "beauty", "0", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --sweep: CRITERION must be one of: resolution," in err
    assert "got 'beauty'" in err


def test_report_parses_each_file_once(capsys, monkeypatch, tmp_path):
    parsed = []
    load = yaml.load

    def spy(stream, Loader):
        parsed.append(Path(stream.name).name)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    code, _, _ = run(capsys, "report", "--preset", "paper")
    assert code == 0
    assert sorted(parsed) == sorted(p.name for p in bundled_path("paper_catalog.yaml").parent.iterdir())

    # a --near-profile naming another file is parsed for the selection
    near = tmp_path / "near.profile"
    near.write_text(bundled_path("near_field.profile").read_text(encoding="utf-8"), encoding="utf-8")
    parsed.clear()
    code, _, _ = run(capsys, "report", "--preset", "paper", "--near-profile", str(near))
    assert code == 0
    assert len(parsed) == 7 and parsed.count("near.profile") == 1


def test_report_reuses_the_bundled_profiles_its_flags_name(capsys, monkeypatch):
    parsed = []
    load = yaml.load
    monkeypatch.setattr(
        yaml, "load", lambda stream, Loader: parsed.append(stream.name) or load(stream, Loader=Loader)
    )
    code, _, _ = run(
        capsys, "report", "--preset", "paper", "--far-profile", "far_field", "--near-profile", "near_field"
    )
    assert code == 0
    assert len(parsed) == len(set(parsed)) == 6


@pytest.mark.parametrize(
    "command, flag",
    [
        ("budget", "--body-mass"),
        ("budget", "--distal-mass"),
        ("coverage", "--tube-depth"),
        ("coverage", "--tube-width"),
        ("select", "--body-budget"),
        ("select", "--distal-budget"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flag_exits_two(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "paper", f"{flag}={value}"])
    assert exc.value.code == 2
    assert "must be a finite number" in capsys.readouterr().err


def _mutated(tmp_path, fixture, mutate):
    """Path of a copy of a bundled fixture with ``mutate`` applied to it."""
    doc = yaml.safe_load(bundled_path(fixture).read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / fixture
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["coverage", "report"])
def test_a_mounts_file_without_body_mounts_is_named_in_coverage_and_report(capsys, tmp_path, command):
    mounts = _mutated(tmp_path, "paper_mounts.yaml", lambda d: d.__setitem__("body_mounts", []))
    assert run(capsys, command, "--preset", "paper", "--mounts", mounts) == (
        2, "", "error: mounts.body_mounts: coverage needs at least one body mount\n"
    )
    # the budget needs no body mount: the axial body sensors still weigh in
    code, out, _ = run(capsys, "budget", "--preset", "paper", "--mounts", mounts, "--format", "csv")
    assert code == 0
    assert "body_sensor_mass_kg," in out


@pytest.mark.parametrize("sensor, message", [
    ("xm132", "xm132.fov: coverage needs a field of view"),
    ("firefly_s", "firefly_s.range_max: coverage needs a maximum range"),
], ids=["no-fov", "no-range-max"])
def test_a_body_mount_coverage_cannot_use_is_named_with_its_field(capsys, tmp_path, sensor, message):
    mounts = _mutated(tmp_path, "paper_mounts.yaml",
                      lambda d: d["body_mounts"][0].__setitem__("sensor", sensor))
    assert run(capsys, "coverage", "--preset", "paper", "--mounts", mounts) == (2, "", f"error: {message}\n")


def _rename_override(old, new):
    return lambda doc: doc["overrides"].__setitem__(new, doc["overrides"].pop(old))


@pytest.mark.parametrize("argv", [
    ("evaluate", "--profile"), ("select", "--near-profile"), ("report", "--near-profile"),
], ids=["evaluate", "select", "report"])
def test_a_profile_file_overriding_an_unknown_sensor_is_rejected(capsys, tmp_path, argv):
    profile = _mutated(tmp_path, "near_field.profile", _rename_override("d435i", "d435ix"))
    assert run(capsys, *argv, profile, "--preset", "paper") == (
        2, "", "error: near_field.overrides.d435ix: unknown sensor id; did you mean 'd435i'?\n"
    )


def test_the_bundled_profiles_score_a_catalog_without_their_override_sensors(capsys, tmp_path):
    catalog = _mutated(tmp_path, "paper_catalog.yaml",
                       lambda d: d["sensors"].remove(_sensor(d, "d435i")))
    code, out, err = run(capsys, "select", "--preset", "paper", "--catalog", catalog, "--format", "csv")
    assert (code, err) == (0, "")
    assert "body_sensors,vlp16" in out
    assert "distal_sensors,zed2" in out


def _set_first_sensor(key, value):
    return lambda doc: doc["sensors"][0].__setitem__(key, value)


def _rename_first_sensor_key(key, new):
    return lambda doc: doc["sensors"][0].__setitem__(new, doc["sensors"][0].pop(key))


def _sensor(doc, sensor_id):
    return next(s for s in doc["sensors"] if s["id"] == sensor_id)


@pytest.mark.parametrize("sensor, path, value", [
    ("d455i", "aliases", ["Intel D605i"]),
    ("vlp16", "dimensions", [103, 103, 72]),
    ("zed2", "fov.diagonal_deg", 120),
    ("vlp16", "resolution.scan.channels", 16),
], ids=["aliases", "dimensions", "fov.diagonal_deg", "resolution.scan.channels"])
def test_a_spec_no_analysis_reads_is_an_unknown_field(capsys, tmp_path, sensor, path, value):
    def put(doc):
        *parents, key = path.split(".")
        node = _sensor(doc, sensor)
        for parent in parents:
            node = node[parent]
        node[key] = value

    catalog = _mutated(tmp_path, "paper_catalog.yaml", put)
    code, out, err = run(capsys, "evaluate", "--preset", "paper", "--catalog", catalog)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {sensor}.{path}: unknown field")


def test_coverage_without_a_ranged_tip_sensor_leaves_out_the_stage_plan(capsys, tmp_path):
    """A tip camera without range_min cannot anchor a stage plan: coverage
    prints no plan, as select and report treat it, instead of failing
    after the table."""
    catalog = _mutated(tmp_path, "paper_catalog.yaml", lambda d: _sensor(d, "d435i").pop("range_min"))
    code, out, err = run(capsys, "coverage", "--preset", "paper", "--catalog", catalog)
    assert code == 0
    assert "== Cross-Section Coverage ==" in out
    assert "stage plan" not in out
    assert "error:" not in err


@pytest.mark.parametrize("fmt, plans", [("table", 1), ("csv", 0), ("md", 0)])
def test_coverage_plans_only_for_the_format_that_prints_the_plan(capsys, monkeypatch, fmt, plans):
    from boomsuite import geometry

    calls = []
    plan = geometry.stage_plan
    monkeypatch.setattr(geometry, "stage_plan", lambda *a: calls.append(a) or plan(*a))
    code, out, _ = run(capsys, "coverage", "--preset", "paper", "--format", fmt)
    assert code == 0
    assert len(calls) == plans
    assert ("stage plan: valid" in out or "stage plan: marginal" in out) == bool(plans)


def test_coverage_plans_against_the_longest_range_tip_sensor(capsys, tmp_path):
    mounts = _mutated(
        tmp_path, "paper_mounts.yaml", lambda d: d.__setitem__("distal_sensors", ["d435i", "zed2"])
    )
    code, out, _ = run(capsys, "coverage", "--preset", "paper", "--mounts", mounts)
    assert code == 0
    assert "stage plan: far=vlp16 near=zed2" in out


def test_tube_flags_keep_the_body_where_the_mounts_file_puts_it(capsys, tmp_path):
    """--tube-depth/--tube-width replace only the slice's depth and width:
    a body the file puts 2 m off the floor stays there, and one it leaves
    out stays at mid-depth of the new slice."""
    low_body = _mutated(
        tmp_path, "paper_mounts.yaml",
        lambda d: d.__setitem__("analysis_tube", {"depth": 30, "width": 30, "body_height": 2}),
    )
    argv = ["coverage", "--preset", "paper", "--mounts", low_body, "--format", "csv"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.endswith("not visible: ceiling\n")
    assert run(capsys, *argv, "--tube-width", "30") == (code, out, "")

    deeper = _mutated(tmp_path, "paper_mounts.yaml", lambda d: d["analysis_tube"].__setitem__("depth", 40))
    expected = run(capsys, "coverage", "--preset", "paper", "--mounts", deeper)
    assert expected[0] == 0
    assert run(capsys, "coverage", "--preset", "paper", "--tube-depth", "40") == expected


def test_coverage_caps_a_wide_catalog_fov_alike_in_every_format(capsys, tmp_path):
    """The catalog allows a vertical FOV up to 360 degrees; the table's
    effective-FOV line caps it at 180 instead of rejecting the file, so
    every format exits alike."""
    catalog = _mutated(
        tmp_path, "paper_catalog.yaml", lambda d: _sensor(d, "vlp16")["fov"].__setitem__("vertical_deg", 200)
    )
    results = {
        fmt: run(capsys, "coverage", "--preset", "paper", "--catalog", catalog, "--format", fmt)
        for fmt in ("table", "csv", "md")
    }
    assert {(code, err) for code, _, err in results.values()} == {(0, "")}
    assert "vlp16 at 45 deg (spinning): effective vertical FOV 180 deg" in results["table"][1]


# Each subcommand's help line and flags in order, as --help lists them:
# option, default, choices, nargs, metavar and help text.
_COMMON = [
    ("--format", "table", ("table", "csv", "md"), None, None, "output format"),
    ("--preset", None, ("paper",), None, None, "use the bundled reference fixtures"),
    ("--catalog", None, None, None, None, "sensor catalog file"),
]
_MISSION = ("--mission", None, None, None, None, "mission configuration file")
_MOUNTS = ("--mounts", None, None, None, None, "mount specification file")
_SELECT = [
    ("--far-profile", None, None, None, None, "body placement profile (default: bundled far_field)"),
    ("--near-profile", None, None, None, None, "boom-tip placement profile (default: bundled near_field)"),
    ("--body-budget", None, None, None, None, "override body mass budget, kg"),
    ("--distal-budget", None, None, None, None, "override boom-tip mass budget, kg"),
    ("--body-max", 1, None, None, None, "max sensors on the body"),
    ("--distal-max", 1, None, None, None, "max sensors at the boom tip"),
    ("--redundancy", False, None, 0, None, "require two dust-robust modalities on the body"),
]
PINNED_FLAGS = {
    "evaluate": ("score a catalog against a profile", [
        *_COMMON,
        ("--profile", None, None, None, None,
         "profile file, or shorthand: far_field / near_field / modality"),
    ]),
    "budget": ("mass and buckling budget report", [
        *_COMMON, _MISSION, _MOUNTS,
        ("--body-mass", None, None, None, None, "body sensor mass to check, kg"),
        ("--distal-mass", None, None, None, None, "boom-tip sensor mass to check, kg"),
    ]),
    "coverage": ("cross-section coverage and stage plan", [
        *_COMMON, _MISSION, _MOUNTS,
        ("--tube-depth", None, None, None, None, "override analysis tube depth, m"),
        ("--tube-width", None, None, None, None, "override analysis tube width, m"),
    ]),
    "select": ("choose the best feasible sensor suite", [
        *_COMMON, _MISSION, *_SELECT,
        ("--sweep", None, None, 3, ("CRITERION", "MIN", "MAX"),
         "sweep one criterion's weight over an integer range"),
    ]),
    "report": ("bundle every analysis into one report", [*_COMMON, _MISSION, _MOUNTS, *_SELECT]),
}


def test_every_subcommand_keeps_its_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    found = {
        name: (helps[name], [
            (a.option_strings[0], a.default, a.choices and tuple(a.choices), a.nargs, a.metavar, a.help)
            for a in command._actions
            if a.dest != "help"
        ])
        for name, command in sub.choices.items()
    }
    assert list(found) == list(PINNED_FLAGS)
    assert found == PINNED_FLAGS


def test_evaluate_takes_no_mission_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--preset", "paper", "--mission", "x.yaml"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mission x.yaml" in capsys.readouterr().err


# Bad input of each kind: the command must exit 2 with an ``error:`` line
# naming the flag or the file field, never a traceback or a wrong result.
DEFECTS = {
    "nan-distal-budget": (
        lambda tmp: ["select", "--preset", "paper", "--distal-budget", "nan", "--distal-max", "3"],
        "argument --distal-budget: must be a finite number",
    ),
    "nan-body-mass": (
        lambda tmp: ["budget", "--preset", "paper", "--body-mass", "nan"],
        "argument --body-mass: must be a finite number",
    ),
    "negative-body-mass": (
        lambda tmp: ["budget", "--preset", "paper", "--body-mass", "-1"],
        "argument --body-mass: must be >= 0, got '-1'",
    ),
    "negative-distal-mass": (
        lambda tmp: ["budget", "--preset", "paper", "--distal-mass", "-0.5"],
        "argument --distal-mass: must be >= 0, got '-0.5'",
    ),
    "empty-sweep-range": (
        lambda tmp: ["select", "--preset", "paper", "--sweep", "affordability", "4", "0"],
        "argument --sweep: MIN 4 is greater than MAX 0",
    ),
    "sweep-bound-not-an-integer": (
        lambda tmp: ["select", "--preset", "paper", "--sweep", "affordability", "0", "x"],
        "argument --sweep: MIN and MAX must be integers, got '0' and 'x'",
    ),
    "sweep-range-too-wide": (
        lambda tmp: ["select", "--preset", "paper", "--sweep", "affordability", "0", "100000000"],
        "argument --sweep: 0..100000000 spans 100000001 weights; at most 1000 are allowed",
    ),
    "sweep-negative-min": (
        lambda tmp: ["select", "--preset", "paper", "--sweep", "affordability", "-1", "3"],
        "argument --sweep: MIN must be >= 0, got -1",
    ),
    "sweep-checked-before-any-file": (
        lambda tmp: [
            "select", "--catalog", str(tmp / "missing.yaml"), "--mission", str(tmp / "missing.yaml"),
            "--sweep", "range", "4", "0",
        ],
        "argument --sweep: MIN 4 is greater than MAX 0",
    ),
    "criterion-entry-is-a-string": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d["criteria"].__setitem__(0, "resolution")),
        ],
        "error: far_field.criteria: expected a mapping",
    ),
    "nan-bin-cutoff": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile",
                     lambda d: d["criteria"][2]["bin"].__setitem__("high", float("nan"))),
        ],
        "error: fov.bin.high: must be finite",
    ),
    "profile-overrides-not-a-mapping": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d.__setitem__("overrides", ["vlp16"])),
        ],
        "error: far_field.overrides: expected a mapping",
    ),
    "profile-modalities-not-a-list": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d.__setitem__("modalities", 5)),
        ],
        "error: far_field.modalities: expected a list",
    ),
    "mounts-sensors-not-a-list": (
        lambda tmp: [
            "coverage", "--preset", "paper", "--mounts",
            _mutated(tmp, "paper_mounts.yaml", lambda d: d.__setitem__("distal_sensors", 5)),
        ],
        "error: mounts.distal_sensors: expected a list",
    ),
    "analysis-tube-without-depth": (
        lambda tmp: [
            "coverage", "--preset", "paper", "--mounts",
            _mutated(tmp, "paper_mounts.yaml", lambda d: d["analysis_tube"].pop("depth")),
        ],
        "error: mounts.analysis_tube.depth: required field is missing",
    ),
    "resolution-pixels-not-a-mapping": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--catalog",
            _mutated(tmp, "paper_catalog.yaml", _set_first_sensor("resolution", {"pixels": 5})),
        ],
        "error: rsbpearl.resolution.pixels: expected a mapping",
    ),
    "fractional-boom-count": (
        lambda tmp: [
            "budget", "--preset", "paper", "--mission",
            _mutated(tmp, "paper_mission.yaml", lambda d: d.__setitem__("boom_count", 2.7)),
        ],
        "error: mission.boom_count: expected an integer",
    ),
    "boom-count-too-large-for-a-float": (
        lambda tmp: [
            "budget", "--preset", "paper", "--mission",
            _mutated(tmp, "paper_mission.yaml", lambda d: d.__setitem__("boom_count", 10**399)),
        ],
        "error: mission.boom_count: must be finite",
    ),
    "mass-too-large-for-a-float": (
        lambda tmp: [
            "select", "--preset", "paper", "--catalog",
            _mutated(tmp, "paper_catalog.yaml", lambda d: _sensor(d, "vlp16").__setitem__("mass", 10**399)),
        ],
        "error: vlp16.mass: must be finite",
    ),
    "spinning-is-a-string": (
        lambda tmp: [
            "coverage", "--preset", "paper", "--mounts",
            _mutated(tmp, "paper_mounts.yaml",
                     lambda d: d["body_mounts"][0].__setitem__("spinning", "false")),
        ],
        "error: mounts.body_mounts.spinning: expected true or false, got 'false'",
    ),
    "weight-too-large-for-a-float": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d["criteria"][0].__setitem__("weight", 10**399)),
        ],
        "error: resolution.weight: must be finite",
    ),
    "fractional-weight": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d["criteria"][0].__setitem__("weight", 2.5)),
        ],
        "error: resolution.weight: expected an integer, got 2.5",
    ),
    "higher-is-better-is-a-string": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile",
                     lambda d: d["criteria"][0]["bin"].__setitem__("higher_is_better", "false")),
        ],
        "error: resolution.bin.higher_is_better: expected true or false, got 'false'",
    ),
    "bin-inclusive-is-a-number": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile",
                     lambda d: d["criteria"][2]["bin"].__setitem__("high_inclusive", 0)),
        ],
        "error: fov.bin.high_inclusive: expected true or false, got 0",
    ),
    "name-is-a-list": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--catalog",
            _mutated(tmp, "paper_catalog.yaml", lambda d: _sensor(d, "vlp16").__setitem__("name", [1, "a"])),
        ],
        "error: vlp16.name: expected a string, got [1, 'a']",
    ),
    "notes-is-a-mapping": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--catalog",
            _mutated(tmp, "paper_catalog.yaml", _set_first_sensor("notes", {"a": 1})),
        ],
        "error: rsbpearl.notes: expected a string, got {'a': 1}",
    ),
    "profile-modality-unknown": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d.__setitem__("modalities", ["lidar", "bogus"])),
        ],
        "error: far_field.modalities: must be one of: "
        "lidar, camera2d, camera3d, radar, sonar, thermal; got 'bogus'",
    ),
    "profile-modalities-match-no-sensor": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d.__setitem__("modalities", ["thermal"])),
        ],
        "error: far_field.modalities: matches no sensor in the catalog",
    ),
    "profile-modalities-empty": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d.__setitem__("modalities", [])),
        ],
        "error: far_field.modalities: matches no sensor in the catalog",
    ),
    "exemplar-modality-unknown": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "modality.profile", lambda d: d["exemplars"].__setitem__("bogus", "vlp16")),
        ],
        "error: modality_overview.exemplars: must be one of: "
        "lidar, camera2d, camera3d, radar, sonar, thermal; got 'bogus'",
    ),
    "exemplar-of-another-modality": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "modality.profile", lambda d: d.__setitem__("exemplars", {"lidar": "d435i"})),
        ],
        "error: modality_overview.exemplars.lidar: sensor 'd435i' is a camera3d, not a lidar\n",
    ),
    "analysis-tube-body-above-the-ceiling": (
        lambda tmp: [
            "coverage", "--preset", "paper", "--mounts",
            _mutated(tmp, "paper_mounts.yaml", lambda d: d.__setitem__(
                "analysis_tube", {"depth": 30, "width": 30, "body_height": 40})),
        ],
        "error: mounts.analysis_tube.body_height: must be strictly inside (0, depth); depth is 30 m",
    ),
    "mount-tilt-past-vertical": (
        lambda tmp: [
            "coverage", "--preset", "paper", "--mounts",
            _mutated(tmp, "paper_mounts.yaml", lambda d: d["body_mounts"][0].__setitem__("tilt_deg", 95)),
        ],
        "error: mounts.body_mounts.tilt_deg: must be in (-90, 90) degrees",
    ),
    "tube-depth-flag-leaves-the-body-outside": (
        lambda tmp: [
            "coverage", "--preset", "paper", "--tube-depth", "1", "--mounts",
            _mutated(tmp, "paper_mounts.yaml", lambda d: d["analysis_tube"].__setitem__("body_height", 2)),
        ],
        "error: mounts.analysis_tube.body_height: must be strictly inside (0, depth); depth is 1 m",
    ),
    "tube-width-flag-not-positive": (
        lambda tmp: ["coverage", "--preset", "paper", "--tube-width", "0"],
        "argument --tube-width: must be > 0, got '0'",
    ),
    "misspelled-sensor-key": (
        lambda tmp: [
            "select", "--preset", "paper", "--catalog",
            _mutated(tmp, "paper_catalog.yaml", _rename_first_sensor_key("dust_robust", "dust_robst")),
        ],
        "error: rsbpearl.dust_robst: unknown field; did you mean 'dust_robust'?",
    ),
    "pixel-grid-without-width": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--catalog",
            _mutated(tmp, "paper_catalog.yaml", _set_first_sensor("resolution", {"pixels": {"height": 10}})),
        ],
        "error: rsbpearl.resolution.pixels.width: required field is missing",
    ),
    "bin-cutoffs-overlap": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d["criteria"][0]["bin"].__setitem__("high", 0.1)),
        ],
        "error: resolution.bin.high: high cutoff must exceed low cutoff",
    ),
    "bin-with-both-rule-forms": (
        lambda tmp: [
            "evaluate", "--preset", "paper", "--profile",
            _mutated(tmp, "far_field.profile", lambda d: d["criteria"][4]["bin"].update(quantity="mass_g")),
        ],
        "error: darkness.bin.quantity: exactly one of quantity/ordinal_field must be set",
    ),
    "mounts-sensor-id-is-a-number": (
        # the catalog's id is the string "16"; the mounts file's is the number 16
        lambda tmp: [
            "coverage", "--preset", "paper",
            "--catalog",
            _mutated(tmp, "paper_catalog.yaml", lambda d: _sensor(d, "vlp16").__setitem__("id", "16")),
            "--mounts",
            _mutated(tmp, "paper_mounts.yaml",
                     lambda d: [m.__setitem__("sensor", 16) for m in d["body_mounts"]]),
        ],
        "error: mounts.body_mounts.sensor: expected a string, got 16",
    ),
    "mounts-sensor-id-unknown": (
        lambda tmp: [
            "coverage", "--preset", "paper", "--mounts",
            _mutated(tmp, "paper_mounts.yaml", lambda d: d["distal_sensors"].__setitem__(0, "d435ix")),
        ],
        "error: mounts.distal_sensors: unknown sensor id 'd435ix'; did you mean 'd435i'?\n",
    ),
    # finite inputs whose budget overflows a float: once a traceback or an inf printed as a number
    "mission-overflows-the-budget": (
        lambda tmp: [
            "budget", "--preset", "paper", "--mission",
            _mutated(tmp, "paper_mission.yaml", lambda d: d.__setitem__("boom_linear_density", 1.0e308)),
        ],
        "error: budget.boom_mass: must be finite; the mission and masses give inf\n",
    ),
    "mission-overflows-the-selection": (
        lambda tmp: [
            "select", "--preset", "paper", "--mission",
            _mutated(tmp, "paper_mission.yaml", lambda d: d.__setitem__("boom_linear_density", 1.0e308)),
        ],
        "error: budget.boom_mass: must be finite; the mission and masses give inf\n",
    ),
    "distal-mass-overflows-the-moment": (
        lambda tmp: ["budget", "--preset", "paper", "--distal-mass", "1e308"],
        "error: budget.shoulder_moment: must be finite; the mission and masses give inf\n",
    ),
}
# Budgets and sensor counts below their bound, in both commands that take them.
for _command in ("select", "report"):
    for _flag, _value, _bound in (
        ("--body-budget", "-1", ">= 0"),
        ("--distal-budget", "-0.5", ">= 0"),
        ("--body-max", "0", ">= 1"),
        ("--distal-max", "-1", ">= 1"),
    ):
        DEFECTS[f"{_command}{_flag}-below-bound"] = (
            lambda tmp, argv=(_command, "--preset", "paper", _flag, _value): list(argv),
            f"argument {_flag}: must be {_bound}, got '{_value}'",
        )


@pytest.mark.parametrize("case", sorted(DEFECTS))
def test_bad_input_exits_two_without_traceback(tmp_path, case):
    argv, message = DEFECTS[case]
    src = Path(boomsuite.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "boomsuite.cli", *argv(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert message in result.stderr
    assert result.stdout == ""


def _cli_writing_to(stdout, *argv, stderr=subprocess.PIPE, **options):
    src = Path(boomsuite.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "boomsuite.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=stdout,
        stderr=stderr,
        text=True,
        timeout=120,
        **options,
    )


def test_a_reader_that_has_gone_exits_two_in_silence():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the command starts, so the write always fails
    try:
        result = _cli_writing_to(write_end, "report", "--preset", "paper", "--format", "md")
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == ""


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_full_disk_exits_two_with_an_error_line():
    with open("/dev/full", "w") as full:
        result = _cli_writing_to(full, "select", "--preset", "paper")
    assert result.returncode == 2
    assert result.stderr == "error: cannot write output: No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["select", "--help"]])
def test_help_on_a_full_disk_exits_two_with_an_error_line(argv):
    with open("/dev/full", "w") as full:
        result = _cli_writing_to(full, *argv)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write output: No space left on device\n"


@pytest.mark.parametrize("command", [None, "select"])
def test_help_is_written_whole_and_exits_zero(capsys, command):
    parser = build_parser()
    if command is not None:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[command]
    assert run(capsys, *([command] if command else []), "--help") == (0, parser.format_help(), "")


def test_a_closed_stdout_exits_two_with_an_error_line():
    result = _cli_writing_to(None, "evaluate", "--preset", "paper", preexec_fn=lambda: os.close(1))
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write output: {os.strerror(errno.EBADF)}\n"


# An input error, and an output that cannot be written, each with its stream closed.
_ERROR_EXITS = {
    "input-error": (["evaluate", "--catalog", "/nonexistent.yaml"], (2,)),
    "unwritable-output": (["budget", "--preset", "paper"], (1, 2)),
}


@pytest.mark.parametrize("case", sorted(_ERROR_EXITS))
def test_a_closed_stderr_still_exits_two(case):
    # the error line has nowhere to go; exit 1 would read as infeasible
    argv, closed = _ERROR_EXITS[case]
    result = _cli_writing_to(subprocess.PIPE, *argv, preexec_fn=lambda: [os.close(fd) for fd in closed])
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("case", sorted(_ERROR_EXITS))
def test_a_full_stderr_still_exits_two(case):
    argv, _ = _ERROR_EXITS[case]
    with open("/dev/full", "w") as full:
        result = _cli_writing_to(full, *argv, stderr=full)
    assert result.returncode == 2


@pytest.mark.parametrize("argv, code", [
    (["budget", "--preset", "paper"], 0),
    (["coverage", "--preset", "paper", "--tube-width", "300"], 1),
    (["evaluate", "--catalog", "/nonexistent.yaml"], 2),
])
def test_main_with_argv_leaves_the_collector_as_it_found_it(capsys, argv, code):
    enabled = gc.isenabled()
    try:
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            frozen = gc.get_freeze_count()
            assert main(argv) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, frozen)
    finally:
        (gc.enable if enabled else gc.disable)()


# The entry the benchmark's cli_paper workload runs, after a probe that
# prints, at exit, whether the collector is on and how many objects are frozen.
_PROBED_ENTRY = (
    "import atexit, gc, sys; "
    "atexit.register(lambda: sys.stderr.write(f'gc {gc.isenabled()} {gc.get_freeze_count()}\\n')); "
    "from boomsuite.cli import main; sys.exit(main())"
)


@pytest.mark.parametrize("argv, code", [
    (["budget", "--preset", "paper"], 0),
    (["evaluate", "--catalog", "/nonexistent.yaml"], 2),
    (["budget", "--no-such-flag"], 2),  # argparse's own exit
], ids=["ok", "input-error", "usage-error"])
def test_the_program_runs_without_the_collector_and_exits_with_the_heap_frozen(argv, code):
    src = Path(boomsuite.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _PROBED_ENTRY, *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == code
    word, enabled, frozen = result.stderr.splitlines()[-1].split()
    assert (word, enabled) == ("gc", "False")
    assert int(frozen) > 0
