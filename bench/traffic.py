"""Census of the instance shapes the ``tests/oracles.py`` generators produce.

    python3 bench/traffic.py [--draws 40]

For every (k, n, budget) cell of the ``select_synth`` grid, and every size
of ``sweep_synth``, it draws instances straight from the generators, with
no filter, and counts with the oracle how many are infeasible, how many
have dead top body subsets (the deep-walk shape) and how deep the forced
walk is, and how many pass the filters the benchmark applies to keep each
instance's cost steady.  It writes ``bench/traffic.json``; ``synth.py``
sets the deep-walk share and depth of ``select_synth`` and the filters
from it, and ``run.py`` copies it into every run's details.  The census
takes a few minutes; it is not part of a run.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

import synth

TRAFFIC_JSON = Path(__file__).resolve().parent / "traffic.json"


def _spread(values: list[int]) -> list[float] | None:
    """Minimum, median and maximum."""
    return [min(values), statistics.median(values), max(values)] if values else None


def census(k: int, n: int, kind: str, draws: int) -> dict:
    rng = random.Random(f"traffic/{k}/{n}/{kind}")
    feasible = deep = prompt = capped = accepted = 0
    dead_counts, walks, near_optimal = [], [], []
    for _ in range(draws):
        inst = synth.build({"draw": rng.randrange(2**32), "n": n, "k": k, "kind": kind})
        analysis = synth.analyse(inst)
        p = analysis.profile
        if p.optimum is None:
            continue
        feasible += 1
        near_optimal.append(p.near_optimal_pairs)
        prompt += p.prompt_incumbent
        capped += p.near_optimal_pairs <= synth.NEAR_OPTIMAL_CAP
        accepted += p.prompt_incumbent and p.near_optimal_pairs <= synth.NEAR_OPTIMAL_CAP
        if p.dead_top_body:
            deep += 1
            dead_counts.append(p.dead_top_body)
            walks.append(p.dead_top_body * analysis.distal.count)
    return {
        "k": k, "n": n, "kind": kind, "draws": draws,
        "feasible": feasible,
        "deep_walk": deep,
        "dead_top_body": sorted(dead_counts),
        "forced_walk": sorted(walks),
        "near_optimal_pairs": _spread(near_optimal),
        "prompt_incumbent": prompt,
        "near_optimal_within_cap": capped,
        "pass_both_filters": accepted,
    }


def sweep_census(n: int, draws: int) -> dict:
    """The same for ``sweep_synth``: loose k=2 instances, each looked at
    over every weight of every criterion it is swept over."""
    rng = random.Random(f"traffic/sweep/{n}")
    feasible = deep = accepted = 0
    walks = []
    for _ in range(draws):
        inst = synth.build({"draw": rng.randrange(2**32), "n": n, "k": 2, "kind": "loose"})
        analysis = synth.analyse(inst)
        if analysis.optimum is None:
            continue
        feasible += 1
        profiles = [p for ps in synth.sweep_profiles(inst, analysis).values() for p in ps]
        walk = sum(p.dead_top_body for p in profiles) * analysis.distal.count
        if walk:
            deep += 1
            walks.append(walk)
        accepted += all(synth.steady(p) for p in profiles)
    return {
        "k": 2, "n": n, "kind": "loose", "draws": draws,
        "feasible": feasible,
        "deep_walk_at_some_weight": deep,
        "forced_walk_over_sweeps": sorted(walks),
        "steady_at_every_weight": accepted,
    }


def find_deep_walk(n: int, k: int, dead: int, count: int) -> list[int]:
    """Draw seeds of loose (n, k) instances with exactly `dead` dead top body
    subsets, a prompt incumbent and a short walk after it."""
    rng = random.Random(f"deep-walk/{k}/{n}/{dead}")
    found = []
    while len(found) < count:
        draw = rng.randrange(2**32)
        inst = synth.build({"draw": draw, "n": n, "k": k, "kind": "loose"})
        if synth.accepts(inst, dead) is not None:
            found.append(draw)
            print(json.dumps({"n": n, "k": k, "dead": dead, "draw": draw}), flush=True)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=40)
    parser.add_argument(
        "--find-deep-walk", type=int, nargs=4, metavar=("N", "K", "DEAD", "COUNT"),
        help="print draw seeds for synth.DEEP_WALK_DRAWS instead of taking the census",
    )
    args = parser.parse_args(argv)
    if args.find_deep_walk:
        find_deep_walk(*args.find_deep_walk)
        return 0
    out = {"draws_per_cell": args.draws, "cells": [], "sweep_cells": []}
    for k, n, kind in synth.SELECT_CELLS:
        out["cells"].append(census(k, n, kind, args.draws))
        print(json.dumps(out["cells"][-1]), flush=True)
    for n in sorted(set(synth.SWEEP_SIZES)):
        out["sweep_cells"].append(sweep_census(n, args.draws))
        print(json.dumps(out["sweep_cells"][-1]), flush=True)
    TRAFFIC_JSON.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
