"""Pipeline benchmark: one workload, one seed, one measured run.

    python3 pipebench/run.py --workload desk --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run writes the workload's generated graph under ``.pipebench_work/``, then
runs whole rounds of ``pipeline.py``, each in a fresh process, while the
next round, allowed a quarter longer than the longest so far, still fits
in ``--seconds`` (at least one round).  Every round
attempts the same operations, so the share of failed operations does not
depend on the seed or on the number of rounds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones: medians over all repeats of the run (training:
over rounds), latency percentiles over all classify calls.  The metric
names and units are read from ``BENCHMARK.json``.  With ``--trace 1``
untraced and traced rounds alternate; the metrics are the per-layer
medians of the traced rounds and ``trace.overhead_share``, the traced
rounds' timed work against the untraced rounds'.  The spans are written to
``.pipebench_work/traces/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import pipeline

WORK = pipeline.ROOT / ".pipebench_work"
ROUND_TIMEOUT_S = 170
# a round may run this much longer than the longest one before it, since
# the machine's speed drifts; the next round starts only if it would fit
ROUND_MARGIN = 1.25
# glibc's mmap and trim thresholds, pinned for every round.  With the
# adaptive defaults a fresh process lands at random in one of two heaps:
# one where numpy temporaries of a megabyte or so are mapped and unmapped
# on every call (hub7: about 180,000 minor faults per evaluate, a third
# slower) and one where they are reused.  Pinned, every round meets the
# second, so timings do not flip between runs of the same seed.
ALLOCATOR = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(128 << 20)}

# metric names and units, as BENCHMARK.json lists them
SPEC = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def median(values) -> float:
    return float(statistics.median(values))


def run_round(args, scratch: Path, run_id: str, traced: bool) -> dict:
    """One round in a fresh interpreter; returns its JSON result."""
    argv = [sys.executable, str(Path(__file__).with_name("pipeline.py")),
            "--workload", args.workload, "--seed", str(args.seed),
            "--scratch", str(scratch), "--traced", str(int(traced)), "--run-id", run_id]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
                          env={**os.environ, **ALLOCATOR})
    if done.returncode != 0:
        sys.exit(f"pipebench: round exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    answer = np.asarray([ms for r in rounds for ms in r["answer_ms"]])
    return {
        "setup_s": median([s for r in rounds for s in r["setup_s"]]),
        # every round samples and evaluates the same queries
        "sample_queries_per_s": rounds[0]["sample_queries"]
        / median([s for r in rounds for s in r["sample_s"]]),
        "train_queries_per_s": median([r["train_queries"] / r["train_s"] for r in rounds]),
        "eval_queries_per_s": rounds[0]["eval_queries"]
        / median([s for r in rounds for s in r["eval_s"]]),
        "answer_ms_p50": float(np.percentile(answer, 50)),
        "answer_ms_p95": float(np.percentile(answer, 95)),
        "test_pairwise": rounds[0]["test_pairwise"],
        "test_f1": rounds[0]["test_f1"],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = pipeline.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    scratch = WORK / run_id
    scratch.mkdir(parents=True, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    spans: list[str] = []
    try:
        start = time.perf_counter()
        kg = pipeline.make_graph(w, args.seed)
        generate_s = time.perf_counter() - start
        pipeline.write_inputs(kg, scratch)
        del kg

        started = time.perf_counter()
        longest = 0.0
        while True:
            with_trace = bool(args.trace) and len(traced) < len(plain)
            begin = time.perf_counter()
            result = run_round(args, scratch, f"{run_id}-round{len(plain) + len(traced) + 1}",
                               with_trace)
            longest = max(longest, time.perf_counter() - begin)
            (traced if with_trace else plain).append(result)
            print(f"round {len(plain) + len(traced)}{' (traced)' if with_trace else ''}:"
                  f" {time.perf_counter() - begin:.1f} s; setup {median(result['setup_s']):.4f} s,"
                  f" sample {median(result['sample_s']):.3f} s, train {result['train_s']:.2f} s,"
                  f" evaluate {median(result['eval_s']):.3f} s,"
                  f" classify p50 {median(result['answer_ms']):.3f} ms", file=sys.stderr)
            if with_trace:
                spans.append((scratch / "spans.jsonl").read_text(encoding="utf-8"))
            # whole rounds only: stop when the next one would not fit
            if args.trace and not traced:
                continue
            if time.perf_counter() - started + ROUND_MARGIN * longest > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rounds = plain + traced
    failed = [reason for r in rounds for reason in r["failed"]]
    expected = sum(r["expected_failures"] for r in rounds)
    for reason in failed:
        print(f"failed: {reason}", file=sys.stderr)
    if args.trace:
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text("".join(spans), encoding="utf-8")
        metrics = {key: median([r["layer"][key] for r in traced]) for key in traced[0]["layer"]}
        metrics["synthetic.generate_s"] = generate_s
        metrics["trace.overhead_share"] = (
            median([r["timed_s"] for r in traced]) / median([r["timed_s"] for r in plain]) - 1.0)
        units = PER_LAYER
    else:
        metrics = end_to_end(plain)
        units = END_TO_END
    print(json.dumps({
        "correct": len(failed) == expected,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
