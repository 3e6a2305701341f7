#!/usr/bin/env python3
"""Paired end-to-end benchmark of two source trees.

    tools/bench_diff.py --parent <tree> --change <tree> --workload <name> \
        --pairs 10 --seconds 30 [--seed 1000] [--trace]

Runs `python3 perfbench/run.py` in each tree once per pair, alternating
which tree goes first (the parent in even pairs) and giving pair i the
seed --seed + i, the same seed on both sides. Only the last line of each
run's stdout (the JSON result line) is read; build output is shown
only when a run fails. Nothing is written under either tree's perfbench/
(run.py builds in the tree's .bench_build/).

Prints every run as it finishes, then per side and per metric the median
and quartiles (linear interpolation, numpy's default) and the
failed/attempted operation counts, the pairs each side won (ties count
for neither), and whether the claim rule holds: the change wins at least
nine tenths of the pairs run, its median beats the parent's by more than
the distance between the parent's quartiles, and no more of its
operations fail than the parent's. A metric's direction comes
from the change tree's BENCHMARK.json ("better": "lower" when absent).

--trace passes --trace 1, so the per-layer metrics are compared instead
of the end-to-end ones. Exits 1 when any run fails.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    ordered = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])

    return at(0.25), at(0.5), at(0.75)


def directions(tree: str) -> dict[str, str]:
    path = os.path.join(tree, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: bool):
    """The run's JSON result, or None when it failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    run = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    tail = "\n".join(run.stderr.strip().splitlines()[-20:])
    print(f"run failed in {tree} (exit {run.returncode}):\n{tail}", file=sys.stderr)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="change source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    results: dict[str, list] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], args.workload, seed, args.seconds, args.trace)
            results[side].append(result)
            shown = "failed" if result is None else " ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items())
            print(f"pair {pair} seed {seed} {side}: {shown}", flush=True)

    better = directions(trees["change"])
    complete = [i for i in range(args.pairs)
                if results["parent"][i] is not None and results["change"][i] is not None]
    names = list(results["parent"][complete[0]]["metrics"]) if complete else []
    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    failed = {}
    for side in ("parent", "change"):
        ok = [r for r in results[side] if r is not None]
        failed[side] = sum(r["failed"] for r in ok)
        attempted = sum(r["attempted"] for r in ok)
        incorrect = sum(1 for r in ok if not r["correct"])
        print(f"  {side}: {len(ok)}/{len(results[side])} runs completed, "
              f"{incorrect} reported incorrect, failed/attempted {failed[side]}/{attempted}")
    for name in names:
        lower = better.get(name, "lower") == "lower"
        values = {side: [results[side][i]["metrics"][name]["value"] for i in complete]
                  for side in ("parent", "change")}
        unit = results["parent"][complete[0]]["metrics"][name]["unit"]
        wins = {"parent": 0, "change": 0}
        for p, c in zip(values["parent"], values["change"]):
            if p != c:
                change_better = c < p if lower else c > p
                wins["change" if change_better else "parent"] += 1
        q = {side: quartiles(values[side]) for side in values}
        gap = q["parent"][1] - q["change"][1] if lower else q["change"][1] - q["parent"][1]
        spread = q["parent"][2] - q["parent"][0]
        holds = (wins["change"] >= 0.9 * args.pairs and gap > spread
                 and failed["change"] <= failed["parent"])
        print(f"  {name} ({unit}, {'lower' if lower else 'higher'} is better)")
        for side in ("parent", "change"):
            q1, med, q3 = q[side]
            print(f"    {side}: median {med:.6g}, quartiles {q1:.6g}-{q3:.6g}, "
                  f"pairs won {wins[side]}")
        print(f"    change better by {gap:.6g} against parent quartile distance "
              f"{spread:.6g}: claim rule {'holds' if holds else 'does not hold'}")
    any_failed = any(r is None for side in results for r in results[side])
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
