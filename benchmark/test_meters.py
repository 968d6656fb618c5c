#!/usr/bin/env python3
"""Checks that the benchmark's deterministic meters repeat exactly.

Runs every workload twice with --trace 1 at the same seed and compares
the "meters" lines: per query fresh BDD nodes, solver steps, automaton
constructions and peak states, plus the context and reply-cache counts.
Also checks that every run is correct, that E1's largest automaton
operation on paper-cold is union, and that paper-warm creates no fresh
BDD nodes.  Run from the repository root:

    python3 benchmark/test_meters.py [--seed N]

Takes about four minutes on two cores.  Exits 1 on any failure.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["paper-cold", "paper-warm", "corpus", "serve-repeat"]


def traced(workload, seed):
    out = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    meters = next(line for line in out if line.startswith("meters "))
    return json.loads(meters[len("meters "):]), json.loads(out[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    problems = []
    for workload in WORKLOADS:
        first, result = traced(workload, seed)
        second, _ = traced(workload, seed)
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: {result['failed']} failed operations")
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys()
                          if first.get(k) != second.get(k))
            problems.append(f"{workload}: meters differ between runs: {diff}")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "paper-cold":
            ops = {op: metrics[f"E1.{op}_s"]
                   for op in ("union", "inter", "diff", "minimize", "project")}
            if max(ops, key=ops.get) != "union":
                problems.append(f"paper-cold: E1's largest op is not union: {ops}")
        if workload == "paper-warm" and metrics["bdd.fresh_nodes"] != 0:
            problems.append(f"paper-warm: {metrics['bdd.fresh_nodes']} fresh BDD nodes")
        print(f"{workload}: {len(first)} meters, "
              f"{'repeat' if first == second else 'DIFFER'}", flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
