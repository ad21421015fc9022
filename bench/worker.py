"""Worker process: runs one workload's operations in-process, closed loop.

Reads a job (JSON) on stdin and prints one JSON line with every
operation's latency and raw result, its own peak RSS and, when traced,
the per-layer span totals.  Checking the results is left to run.py, so
nothing but the program and the instance generator runs here.

In a traced job each operation runs twice, untraced then traced, and the
ratio of the two times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import spans
import synth
from boomsuite import selector
from run import finished


def _select_op(inst, rules):
    def op():
        try:
            suite = selector.select_best(inst.catalog, rules, inst.mission)
        except Exception as exc:  # reported as a failed operation
            return {"error": f"{type(exc).__name__}: {exc}"}
        plan = suite.stage_plan
        return {
            "body": list(suite.body_sensors),
            "distal": list(suite.distal_sensors),
            "body_mass": suite.body_mass,
            "distal_mass": suite.distal_mass,
            "aggregate_score": suite.aggregate_score,
            "plan_usable": plan is not None and (plan.valid or plan.marginal),
        }
    return op


def _sweep_op(inst, rules, criterion):
    def op():
        try:
            rows = selector.sensitivity_report(
                inst.catalog, rules, inst.mission, criterion, synth.SWEEP_WEIGHTS
            )
        except Exception as exc:  # reported as a failed operation
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {"rows": [
            [r.weight, list(r.body_sensors), list(r.distal_sensors), r.aggregate_score, r.changed]
            for r in rows
        ]}
    return op


def _cli_op(argv):
    from boomsuite import cli

    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return {"code": code, "stdout": out.getvalue()}
    return op


def operations(job) -> list:
    """The workload's operation cycle, as (label, callable) pairs."""
    workload = job["workload"]
    if workload == "cli_paper":
        return [(argv, _cli_op(argv)) for argv in job["commands"]]
    instances = [synth.build(spec) for spec in job["specs"]]
    rules = [inst.rules() for inst in instances]
    if workload == "select_synth":
        return [(i, _select_op(inst, r)) for i, (inst, r) in enumerate(zip(instances, rules))]
    # sweep_synth: the criterion rotates op by op; nine instances against
    # ten criteria visit every pairing once per ninety operations
    cycle = []
    for j in range(len(instances) * len(synth.CRITERIA)):
        i, c = j % len(instances), j % len(synth.CRITERIA)
        cycle.append(([i, c], _sweep_op(instances[i], rules[i], synth.CRITERIA[c])))
    return cycle


def run(job) -> dict:
    cycle = operations(job)
    recorder = spans.Recorder() if job["trace"] else None
    if recorder is not None:
        recorder.prepare()
    cycle[0][1]()  # warm-up: first-call costs are not part of an operation
    records = []
    clock = time.perf_counter
    start = clock()
    j = 0
    # cli_paper's list is reshuffled round by round; its cycle is one round
    period = job.get("cycle", len(cycle))
    min_ops = max(job["min_ops"], job["min_cycles"] * period)
    while not finished(clock() - start, j, period, job["seconds"], min_ops):
        label, op = cycle[j % len(cycle)]
        t0 = clock()
        result = op()
        t1 = clock()
        record = {"op": label, "ms": (t1 - t0) * 1e3, "result": result}
        if recorder is not None:
            with recorder.operation(j):
                t2 = clock()
                traced = op()
                t3 = clock()
            record.update(traced_ms=(t3 - t2) * 1e3, traced_result=traced)
        records.append(record)
        j += 1
    elapsed = clock() - start
    out = {
        "records": records,
        "elapsed_s": elapsed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        out["layers"] = spans.layer_totals(recorder)
        out["plan_distinct"] = sum(len(keys) for keys in recorder.plan_keys.values())
        out["plan_rejects"] = recorder.plan_rejects
        if job.get("spans_path"):
            recorder.dump(job["spans_path"])
    return out


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.load(sys.stdin))) + "\n")
