"""Self-tests of the benchmark's oracle, span arithmetic and CLI fact checker.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

import cli_facts
import run
import spans
import suite_oracle
import synth
import worker
from boomsuite import cli, selector
from boomsuite.errors import NoFeasibleSuiteError


def _small_instances(count: int):
    rng = random.Random(20240611)
    for _ in range(count):
        spec = {
            "draw": rng.randrange(2**32),
            "n": rng.randint(3, 12),
            "k": rng.randint(1, 3),
            "kind": rng.choice(["loose", "tight"]),
        }
        yield synth.build(spec)


def test_oracle_agrees_with_enumeration_below_the_guard():
    feasible = 0
    for inst in _small_instances(80):
        rules = inst.rules()
        suites = selector.enumerate_suites(inst.catalog, rules, inst.mission)
        analysis = synth.analyse(inst)
        assert analysis.body.count * analysis.distal.count <= selector.ENUMERATION_GUARD
        if not suites:
            assert analysis.optimum is None
            assert analysis.profile.dead_top_body is None
            continue
        assert analysis.optimum == max(s.aggregate_score for s in suites)
        feasible += 1
    assert feasible >= 40


def test_draw_screen_agrees_with_the_profile():
    for inst in _small_instances(80):
        profile = synth.analyse(inst).profile
        screen = synth._body_side(inst)
        if profile.optimum is None:
            assert screen is None
        else:
            assert screen[0] == profile.dead_top_body
            assert screen[1] or not profile.prompt_incumbent


@pytest.mark.parametrize("draw", synth.DEEP_WALK_DRAWS)
def test_deep_walk_draws_keep_their_dead_count(draw):
    inst = synth.build({"draw": draw, **synth.DEEP_WALK})
    assert synth.accepts(inst, synth.DEEP_WALK_DEAD) is not None


def _select_result(suite) -> dict:
    plan = suite.stage_plan
    return {
        "body": list(suite.body_sensors), "distal": list(suite.distal_sensors),
        "body_mass": suite.body_mass, "distal_mass": suite.distal_mass,
        "aggregate_score": suite.aggregate_score,
        "plan_usable": plan is not None and (plan.valid or plan.marginal),
    }


def test_check_suite_accepts_the_selection_and_flags_a_wrong_score():
    checked = 0
    for inst in _small_instances(40):
        analysis = synth.analyse(inst)
        try:
            suite = selector.select_best(inst.catalog, inst.rules(), inst.mission)
        except NoFeasibleSuiteError:
            continue
        scores = (
            suite_oracle.sensor_scores(inst.far, inst.catalog),
            suite_oracle.sensor_scores(inst.near, inst.catalog),
        )
        result = _select_result(suite)
        assert suite_oracle.check_suite(inst, scores, analysis.optimum, result) == []
        assert suite_oracle.check_suite(inst, scores, analysis.optimum + 1, result)
        assert suite_oracle.check_suite(
            inst, scores, analysis.optimum, {**result, "aggregate_score": suite.aggregate_score - 1}
        )
        assert suite_oracle.check_suite(
            inst, scores, analysis.optimum, {**result, "body": result["body"] * (inst.k + 1)}
        )
        checked += 1
    assert checked >= 20


def test_sweep_check_flags_wrong_rows_and_failures_are_counted():
    inst = next(i for i in _small_instances(40) if synth.analyse(i).optimum is not None)
    analysis = synth.analyse(inst)
    analysis.sweep = synth.sweep_profiles(inst, analysis)
    inputs = run.SynthInputs([(inst, analysis)])
    label = [0, 3]
    result = worker._sweep_op(inst, inst.rules(), synth.CRITERIA[label[1]])()
    assert inputs.check_sweep(label, result) == []
    rows = result["rows"]

    def with_row(i, field, value):
        row = list(rows[i])
        row[field] = value
        return {"rows": rows[:i] + [row] + rows[i + 1:]}

    wrong_score = with_row(4, 3, rows[4][3] + 1)
    flipped = with_row(4, 4, not rows[4][4])
    dropped = {"rows": rows[:4] + rows[5:]}
    for bad in (wrong_score, flipped, dropped):
        assert inputs.check_sweep(label, bad)

    records = [
        {"op": label, "ms": 1.0, "result": result},
        {"op": label, "ms": 1.0, "result": result, "traced_result": wrong_score},
        {"op": label, "ms": 1.0, "result": flipped, "traced_result": dropped},
    ]
    attempted, failed, problems = run.count_failures("sweep_synth", inputs, records)
    assert (attempted, failed, len(problems)) == (5, 3, 3)


def test_self_time_subtracts_the_union_of_children():
    #   0 root      [0, 100]
    #   1 child     [10, 30]
    #   2 child     [20, 50]   overlaps 1
    #   3 child     [90, 120]  runs past its parent's end
    #   4 grandchild of 2 [25, 35]
    start = [0, 10, 20, 90, 25]
    end = [100, 30, 50, 120, 35]
    parent = [-1, 0, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [50, 20, 20, 30, 10]


def test_recorder_traces_names_bound_at_import_time():
    inst = next(i for i in _small_instances(40) if synth.analyse(i).optimum is not None)
    recorder = spans.Recorder()
    recorder.prepare()
    with recorder.operation(0):
        selector.select_best(inst.catalog, inst.rules(), inst.mission)
    totals = spans.layer_totals(recorder)
    assert totals["selector.select_best"]["calls"] == 1
    assert totals["scoring.score_matrix"]["calls"] == 2
    assert totals["geometry.stage_plan"]["calls"] >= 1
    assert selector.stage_plan.__name__ == "stage_plan"  # originals restored


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("argv", cli_facts.command_list(), ids=" ".join)
def test_cli_facts_hold_on_the_bundled_fixtures(argv):
    code, stdout = _cli_stdout(argv)
    assert cli_facts.check(argv, code, stdout) == []


@pytest.mark.parametrize("fmt", cli_facts.FORMATS)
def test_cli_fact_checker_flags_mutated_outputs(fmt):
    argv = ["select", "--preset", "paper", "--format", fmt]
    code, stdout = _cli_stdout(argv)
    assert cli_facts.check(argv, code + 1, stdout)
    assert cli_facts.check(argv, code, stdout.replace("vlp16", "os1_32", 1))
    assert cli_facts.check(argv, code, stdout.replace("4334", "4335"))
    assert cli_facts.check(argv, code, stdout.replace("broken by price", "broken by mass"))
    # a row the README does not state may come and go
    kept = "\n".join(line for line in stdout.splitlines() if "feasible" not in line)
    assert cli_facts.check(argv, code, kept) == []


def test_cli_fact_checker_compares_numbers_by_value():
    argv = ["budget", "--preset", "paper", "--format", "csv"]
    code, stdout = _cli_stdout(argv)
    assert cli_facts.check(argv, code, stdout.replace("0.7295", "0.72950")) == []
    assert cli_facts.check(argv, code, stdout.replace("0.7295", "0.7296"))


def test_runs_stop_after_whole_cycles():
    assert not run.finished(31.0, 125, 50, 30, 100)  # mid-cycle
    assert run.finished(28.0, 150, 50, 30, 100)  # nearer 3 cycles than 4
    assert not run.finished(24.0, 150, 50, 30, 100)  # nearer 4
    assert not run.finished(50.0, 50, 50, 30, 100)  # fewer than min_ops
    assert run.finished(90.0, 75, 50, 30, 100)  # three times the run length
