"""Steadiness check: repeat the benchmark and compare spreads with bounds.

    python3 pipebench/steady.py --runs 10 --out .pipebench_work/steady-a.json
    python3 pipebench/steady.py --runs 10 --first-seed 11 \
        --against .pipebench_work/steady-a.json

Run from the repository root.  Each of ``--runs`` passes runs every
workload once through the command in ``BENCHMARK.json``, with seed
``first-seed + pass`` and the workloads in alternating order, one process
at a time.  For each end-to-end metric it prints the median, the quartiles
of ``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
beside the metric's bound; ``steady`` means the spread is below a third of
the bound.  ``--against`` compares the medians with an earlier ``--out``
file: ``worse`` is the share by which a median moved in the metric's bad
direction.  The share of failed operations must match exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the collected values here")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {w: {name: [] for name in metrics} for w in workloads}
    shares = {w: set() for w in workloads}
    correct = {w: True for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(spec["command"], workload, args.first_seed + i, seconds)
            for name in metrics:
                values[workload][name].append(result["metrics"][name]["value"])
            shares[workload].add((result["failed"], result["attempted"]))
            correct[workload] &= result["correct"]
            print(f"pass {i + 1} {workload}: attempted {result['attempted']},"
                  f" failed {result['failed']}, correct {result['correct']}", flush=True)

    previous = json.loads(args.against.read_text()) if args.against else None
    print(f"\n{'workload':8} {'metric':22} {'q1':>12} {'median':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6} {'steady':>6}" + (f" {'worse':>7}" if previous else ""))
    for workload in workloads:
        for name, spec_metric in metrics.items():
            series = values[workload][name]
            q1, _, q3 = statistics.quantiles(series, n=4)
            mid = statistics.median(series)
            spread = (q3 - q1) / mid
            bound = spec_metric["bound"]
            line = (f"{workload:8} {name:22} {q1:12.5g} {mid:12.5g} {q3:12.5g}"
                    f" {spread:7.3f} {bound:6.2f} {'yes' if spread < bound / 3 else 'NO':>6}")
            if previous:
                before = statistics.median(previous["values"][workload][name])
                sign = 1.0 if spec_metric["better"] == "lower" else -1.0
                worse = sign * (mid - before) / before
                line += f" {worse:7.3f}" + ("" if worse <= bound else "  OVER BOUND")
            print(line)
        rates = sorted(f"{f}/{a}" for f, a in shares[workload])
        ratios = {f / a for f, a in shares[workload]}
        if previous:
            ratios |= {f / a for f, a in previous["shares"][workload]}
        print(f"{workload:8} failed share {', '.join(rates)}"
              f" ({'identical' if len(ratios) == 1 else 'DIFFERS'}), correct {correct[workload]}")
    if args.out:
        args.out.write_text(json.dumps({
            "seconds": seconds,
            "first_seed": args.first_seed,
            "values": values,
            "shares": {w: sorted(shares[w]) for w in workloads},
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
