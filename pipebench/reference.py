"""Per-step reference figures at several entity counts (not a gated workload).

    python3 pipebench/reference.py --entities 200 2000 20000

Run from the repository root.  For each size: a clustered graph, the
``1-chain``/``2-chain`` desk quotas, ``tm`` with dim 32 and 2 layers, and
300 single-instance training steps without validation, traced
with the spans of ``pipeline.py``.  Prints one row per size: mean encode
(forward), backward and Adam time per step, minor page faults per step,
and evaluation time per held-out query.
"""

from __future__ import annotations

import argparse
import dataclasses
import resource
import sys
import time

from pipeline import (
    SPLIT_FRACTION, WORKLOADS, by_split, install_spans, make_graph, train_config,
)
from tracing import Tracer
from boxquery import evaluation, sampling, training

STEPS = 300  # single-instance training steps per size


def measure(entities: int, tracer: Tracer) -> dict[str, float]:
    w = dataclasses.replace(WORKLOADS["desk"], entities=entities)
    start = time.perf_counter()
    kg = make_graph(w, 0)
    generate_s = time.perf_counter() - start
    split = sampling.split_edges(kg, SPLIT_FRACTION, seed=0)
    quotas = {"1-chain": 300, "2-chain": 200}
    instances, _ = sampling.generate_datasets(kg, split, sampling.SamplerConfig(quotas=quotas))
    datasets = by_split(instances)
    datasets["val"] = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with tracer.phase(True) as train_phase:
        result = training.train(kg, datasets, train_config(w, max_steps=STEPS))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    test = datasets["test"]
    with tracer.phase(True) as eval_phase:
        evaluation.evaluate(result.ps, test, mode="both")
    stats = train_phase.stats
    return {
        "entities": entities,
        "generate_s": generate_s,
        "encode_ms": stats.mean_ms("encoder.encode", own=False),
        "backward_ms": stats.mean_ms("autodiff.backward"),
        "adam_ms": stats.mean_ms("autodiff.adam_step"),
        "minflt_per_step": faults / STEPS,
        "eval_ms_per_query": 1e3 * eval_phase.stats.total["evaluation.evaluate"] / len(test),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, nargs="+", default=[200, 2000, 20000])
    args = parser.parse_args(argv)
    tracer = Tracer("reference")
    install_spans(tracer)
    try:
        print("| entities | generate | encode fwd | backward | Adam | minflt/step | eval / query |")
        print("|---------:|---------:|-----------:|---------:|-----:|------------:|-------------:|")
        for entities in args.entities:
            row = measure(entities, tracer)
            print(f"| {row['entities']:,} | {row['generate_s']:.2f} s | {row['encode_ms']:.2f} ms"
                  f" | {row['backward_ms']:.2f} ms | {row['adam_ms']:.2f} ms"
                  f" | {row['minflt_per_step']:.0f} | {row['eval_ms_per_query']:.2f} ms |",
                  flush=True)
    finally:
        tracer.unwrap_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
