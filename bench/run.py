"""boomsuite benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cli_paper,select_synth,sweep_synth} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run is single-client and closed
loop: the next operation starts when the previous one ends.  Every
operation's output is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the run's details: machine
facts, sample counts, per-instance input properties and the first
problems found.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_facts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli_paper", "select_synth", "sweep_synth")
# Set-up is the median of fresh interpreters spawned this many rounds
# before the measured run and as many after it, so that it spans the run
# as the operation metrics do.
SETUP_ROUNDS = 8
# p90 needs ten samples above it, so a run has at least this many
# operations (see `finished`).
MIN_OPS = 100
# An untraced run measures at least this many whole cycles.  The machine
# changes speed over seconds to minutes, and select_synth's cycle (about
# 20 s) is otherwise often the whole run, so each instance is timed at two
# moments rather than one.
MIN_CYCLES = 2
CHILD_TIMEOUT_S = 170
CLI_ENTRY = "import sys; from boomsuite.cli import main; sys.exit(main())"
READY = "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"

# Per-layer metrics named <span>.<stat> read span totals: stat -> (total, scale).
# Values are per traced operation.
SPAN_STATS = {
    "calls": ("calls", 1),
    "ms": ("ns", 1e-6),
    "self_ms": ("self_ns", 1e-6),
    "self_us": ("self_ns", 1e-3),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn_until_ready(code: str) -> float:
    """Seconds from spawning a fresh interpreter running `code` until it
    reports ready.  Its exit is waited for but not timed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", f"{code}; {READY}"],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(CHILD_TIMEOUT_S)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"interpreter running {code!r} did not become ready")
    return elapsed


def spawn_rounds(codes: list[str], rounds: int, samples: dict[str, list[float]]) -> None:
    """Add `rounds` ready times of each code to `samples`, spawning the
    codes in turn so drift hits all alike."""
    for _ in range(rounds):
        for code in codes:
            samples.setdefault(code, []).append(spawn_until_ready(code))


def machine_facts() -> dict:
    import yaml

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# inputs and checks


def cli_commands(seed: int, rounds: int = 64) -> list[list[str]]:
    """Every README command in every format, reshuffled each round."""
    rng = random.Random(f"cli_paper/{seed}")
    out = []
    for _ in range(rounds):
        block = cli_facts.command_list()
        rng.shuffle(block)
        out += block
    return out


class SynthInputs:
    """Seeded instances plus the oracle's view of them."""

    def __init__(self, pairs) -> None:
        import synth
        import suite_oracle

        self.synth, self.oracle = synth, suite_oracle
        self.instances = [inst for inst, _ in pairs]
        self.analyses = [analysis for _, analysis in pairs]
        self.scores = [
            (suite_oracle.sensor_scores(i.far, i.catalog), suite_oracle.sensor_scores(i.near, i.catalog))
            for i in self.instances
        ]

    def properties(self) -> list[dict]:
        return [a.properties(i) for i, a in zip(self.instances, self.analyses)]

    def check_select(self, label: int, result: dict) -> list[str]:
        inst = self.instances[label]
        return self.oracle.check_suite(inst, self.scores[label], self.analyses[label].optimum, result)

    def check_sweep(self, label: list[int], result: dict) -> list[str]:
        if result.get("error"):
            return [f"raised {result['error']}"]
        i, c = label
        inst, criterion = self.instances[i], self.synth.CRITERIA[c]
        optima = [p.optimum for p in self.analyses[i].sweep[criterion]]
        rows = result["rows"]
        if [r[0] for r in rows] != self.synth.SWEEP_WEIGHTS:
            return [f"weights {[r[0] for r in rows]}"]
        problems = []
        previous = None
        for (weight, body, distal, score, changed), best in zip(rows, optima):
            scores = tuple(
                self.oracle.sensor_scores(p.with_weight(criterion, weight), inst.catalog)
                for p in (inst.far, inst.near)
            )
            suite = {"body": body, "distal": distal, "aggregate_score": score}
            problems += [f"weight {weight}: {p}" for p in self.oracle.check_suite(inst, scores, best, suite)]
            if changed != (previous is not None and (body, distal) != previous):
                problems.append(f"weight {weight}: changed flag {changed}")
            previous = (body, distal)
        return problems


def check_record(workload: str, inputs, label, result) -> list[str]:
    if workload == "cli_paper":
        return cli_facts.check(label, result["code"], result["stdout"])
    if workload == "select_synth":
        return inputs.check_select(label, result)
    return inputs.check_sweep(label, result)


# ---------------------------------------------------------------------------
# running


def finished(elapsed: float, ops: int, cycle: int, seconds: float, min_ops: int) -> bool:
    """Whether a run stops before its next operation.  It stops only after
    whole cycles of its operation list, so every run measures the same mix
    of operations: at the cycle boundary nearest `seconds` once it has
    `min_ops` operations, or at three times `seconds` regardless."""
    if elapsed >= 3 * seconds:
        return True
    if ops < min_ops or ops % cycle:
        return False
    return elapsed + elapsed / (ops // cycle) / 2 >= seconds


def run_cli_fresh(commands: list[list[str]], seconds: float, cycle: int) -> dict:
    """Each command as its own fresh process, one at a time."""
    records = []
    clock = time.perf_counter
    start = clock()
    for argv in commands:
        if finished(clock() - start, len(records), cycle, seconds, max(MIN_OPS, MIN_CYCLES * cycle)):
            break
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        t1 = clock()
        records.append({
            "op": argv, "ms": (t1 - t0) * 1e3,
            "result": {"code": proc.returncode, "stdout": proc.stdout},
        })
    return {
        "records": records,
        "elapsed_s": clock() - start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def run_worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(out: dict, setup_s: float, ok: int, attempted: int) -> tuple[dict, dict]:
    latencies = [r["ms"] for r in out["records"]]
    tail = p90(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (tail, "ms"),
        "ops_per_s": (len(latencies) / out["elapsed_s"], "1/s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MB"),
        "ok_ratio": (ok / attempted, "ratio"),
    }
    details = {"samples": len(latencies), "samples_above_p90": sum(1 for v in latencies if v > tail)}
    return metrics, details


def declared_metrics(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares under `kind`."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


def per_layer(out: dict, startup_s: float, import_s: float) -> dict:
    ops = len(out["records"])
    layers = out["layers"]
    plan_calls = layers.get("geometry.stage_plan", {}).get("calls", 0)
    untraced = sum(r["ms"] for r in out["records"])
    traced = sum(r["traced_ms"] for r in out["records"])
    derived = {
        "python.startup_ms": startup_s * 1e3,
        "cli.import_ms": (import_s - startup_s) * 1e3,
        "geometry.stage_plan.distinct_ratio": out["plan_distinct"] / plan_calls if plan_calls else 0.0,
        "geometry.stage_plan.reject_ratio": out["plan_rejects"] / plan_calls if plan_calls else 0.0,
        "trace.overhead_ratio": traced / untraced - 1.0,
    }
    metrics = {}
    for metric in declared_metrics("per_layer"):
        name = metric["name"]
        if name in derived:
            value = derived[name]
        else:
            span, stat = name.rsplit(".", 1)
            total, scale = SPAN_STATS[stat]
            value = layers.get(span, {}).get(total, 0) * scale / ops
        metrics[name] = (value, metric["unit"])
    return metrics


def count_failures(workload: str, inputs, records: list[dict]) -> tuple[int, int, list[dict]]:
    """Check every result, untraced and traced: attempted, failed, problems."""
    attempted = failed = 0
    problems = []
    for record in records:
        for key in ("result", "traced_result"):
            if key not in record:
                continue
            attempted += 1
            found = check_record(workload, inputs, record["op"], record[key])
            if found:
                failed += 1
                problems.append({"op": record["op"], "problems": found[:3]})
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "boomsuite" / "__init__.py").is_file():
        sys.stderr.write(f"error: no boomsuite sources under {SRC}\n")
        return 2

    import_code = "import boomsuite.cli" if args.workload == "cli_paper" else "import boomsuite"
    probes = ["pass", "import boomsuite.cli"] if args.trace else [import_code]
    spawn_rounds(probes, 1, {})  # warms the bytecode cache
    spawns: dict[str, list[float]] = {}
    spawn_rounds(probes, SETUP_ROUNDS, spawns)

    if args.workload == "cli_paper":
        inputs = None
        commands = cli_commands(args.seed)
        job = {"commands": commands, "cycle": len(cli_facts.command_list())}
    else:
        import synth

        draw = synth.select_instances if args.workload == "select_synth" else synth.sweep_instances
        inputs = SynthInputs(draw(args.seed))
        job = {"specs": [i.spec() for i in inputs.instances]}
    job.update(
        workload=args.workload, seconds=args.seconds, min_ops=MIN_OPS,
        min_cycles=1 if args.trace else MIN_CYCLES, trace=bool(args.trace),
    )
    if args.trace:
        OUT.mkdir(exist_ok=True)
        job["spans_path"] = str(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    if args.workload == "cli_paper" and not args.trace:
        out = run_cli_fresh(commands, args.seconds, job["cycle"])
    else:
        out = run_worker(job)
    spawn_rounds(probes, SETUP_ROUNDS, spawns)
    ready_s = {code: statistics.median(times) for code, times in spawns.items()}

    attempted, failed, problems = count_failures(args.workload, inputs, out["records"])

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_facts(), "problems": problems[:5],
    }
    if inputs is not None:
        props = inputs.properties()
        details["instances"] = props
        deep = sum(1 for p in props if p["regime"] == "deep-walk")
        details["regime_share"] = {"deep-walk": deep / len(props), "subset-bound": 1 - deep / len(props)}
        # the generator census the shares and filters are set from
        details["traffic"] = json.loads((BENCH / "traffic.json").read_text(encoding="utf-8"))
    if args.trace:
        metrics = per_layer(out, ready_s["pass"], ready_s["import boomsuite.cli"])
        details["spans_file"] = job["spans_path"]
        details["traced_ops"] = len(out["records"])
    else:
        metrics, extra = end_to_end(out, ready_s[import_code], attempted - failed, attempted)
        details.update(extra)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
