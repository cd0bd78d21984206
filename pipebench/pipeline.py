"""One round of the pipeline in a fresh process, with its output checks.

    python3 pipebench/pipeline.py --workload desk --seed 1 --scratch DIR --traced 0 \
        --run-id NAME

``run.py`` starts this once per round, so that rounds share no heap or
cache state, with glibc's malloc thresholds pinned (see ``run.py``).
``DIR`` holds the generated graph.  The round runs the package's public
API from ``src/``:

    load_graph -> split_edges -> generate_datasets -> train -> evaluate
    -> one classify call per held-out query (closed loop, one caller)

then checks every output against ``oracle.py``.  It prints one JSON
object: the phase timings, the quality figures, the operations attempted
and failed, and with ``--traced 1`` the per-layer figures of its spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SPLIT_FRACTION = 0.10


@dataclass(frozen=True)
class Workload:
    generator: str  # "clustered" or "hub"
    entities: int
    quotas: dict
    layers: int
    max_steps: int
    eval_every: int
    full_ranking: bool
    # Short phases repeat a fixed number of times per round after training,
    # so that their windows add up to a second or more and give a median.
    setups: int  # load_graph + split_edges, timed
    repeats: int  # generate_datasets, timed
    eval_repeats: int  # evaluate(mode="both"), timed
    # classify calls per round, a second or more of them; a multiple of 2
    # and 7 keeps the template mix exact
    classify_calls: int
    max_targets: int = 100
    lr: float = 0.005
    dim: int = 32


WORKLOADS = {
    # gate-6 setting: planted clusters, tiny entity table, Python tape overhead
    "desk": Workload("clustered", 200, {"1-chain": 500, "2-chain": 500},
                     layers=2, max_steps=6000, eval_every=500,
                     full_ranking=False, setups=60, repeats=50, eval_repeats=60,
                     classify_calls=10500),
    # same generator and model, entity-table work dominates a step
    "wide": Workload("clustered", 4000, {"1-chain": 500, "2-chain": 500},
                     layers=2, max_steps=400, eval_every=200,
                     full_ranking=False, setups=3, repeats=8, eval_repeats=8,
                     classify_calls=1120),
    # gate-4 generator, all seven templates, full ranking
    "hub7": Workload("hub", 2000, {name: 300 for name in (
                         "1-chain", "2-chain", "3-chain", "2-inter", "3-inter",
                         "3-inter-chain", "3-chain-inter")},
                     layers=3, max_steps=300, eval_every=100,
                     full_ranking=True, setups=10, repeats=8, eval_repeats=5,
                     classify_calls=1400),
}

# TrainConfig.seed for every run: the trained model's box sizes set how
# much Python work evaluate and classify do per query, so a model seed that
# followed --seed made their speed follow the model more than the graph
MODEL_SEED = 0
# the resume operation runs on inputs that do not depend on --seed
RESUME_SEED = 0
RESUME_STEPS = (150, 300)
RESUME_EVAL_EVERY = 50
PREFIX_STEPS = 40  # short trainings compared byte for byte
PREFIX_EVAL_EVERY = 20
RANDOM_INIT_BAND = (40.0, 60.0)
TRAINED_MARGIN = 5.0  # points of pairwise the trained desk model must gain


def import_package():
    """Import boxquery from ``src/`` of the current directory, or exit."""
    src = ROOT / "src"
    if not (src / "boxquery" / "__init__.py").is_file():
        sys.exit(f"pipebench: no package at {src / 'boxquery'}; run from the repository root")
    sys.path.insert(0, str(src))
    import boxquery

    if Path(boxquery.__file__).resolve().parent != (src / "boxquery").resolve():
        sys.exit(f"pipebench: imported boxquery from {boxquery.__file__}, not from {src}")


import_package()
from boxquery import autodiff, boxes, encoder, evaluation, graphs, sampling, synthetic, training  # noqa: E402

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402


class Operations:
    """Attempted and failed operation counts, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.expected_failures = 0

    def record(self, name: str, problems: list[str], expected: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed.append(f"{name}: {problems[0]}" + (
                f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))
            self.expected_failures += expected


# -- inputs ------------------------------------------------------------------


def make_graph(w: Workload, seed: int):
    rng = np.random.default_rng(seed)
    if w.generator == "clustered":
        return synthetic.clustered_graph(rng, n_entities=w.entities, n_relations=5)
    return synthetic.hub_graph(rng, n_entities=w.entities)


def write_inputs(kg, directory: Path) -> None:
    graphs.save_graph(kg, directory / "graph.tsv", directory / "types.tsv")


def read_inputs(name: str, directory: Path) -> dict:
    inputs = {
        "triples": directory / "graph.tsv",
        "types": directory / "types.tsv",
        "labels": oracle.read_triples(directory / "graph.tsv"),
    }
    if name == "desk":
        w = WORKLOADS["desk"]
        kg = make_graph(w, RESUME_SEED)
        split = sampling.split_edges(kg, SPLIT_FRACTION, seed=RESUME_SEED)
        cfg = sampling.SamplerConfig(quotas=w.quotas, seed=RESUME_SEED)
        inputs["resume"] = {"kg": kg, "datasets": by_split(
            sampling.generate_datasets(kg, split, cfg)[0])}
    return inputs


def by_split(instances) -> dict[str, list]:
    datasets = {"train": [], "val": [], "test": []}
    for inst in instances:
        datasets[inst.split].append(inst)
    return datasets


def balanced_order(test: list, calls: int) -> list:
    """``calls`` held-out queries, templates taken in turn so the mix is fixed."""
    groups: dict[str, list] = {}
    for inst in test:
        groups.setdefault(inst.query.template, []).append(inst)
    names = sorted(groups)
    order = []
    for i in range(calls):
        group = groups[names[i % len(names)]]
        order.append(group[(i // len(names)) % len(group)])
    return order


def train_config(w: Workload, **overrides):
    fields = dict(aggregation="tm", dim=w.dim, layers=w.layers, lr=w.lr,
                  max_steps=w.max_steps, eval_every=w.eval_every,
                  patience=10_000, seed=MODEL_SEED)
    fields.update(overrides)
    return training.TrainConfig(**fields)


def tensors_of(ps) -> dict[str, np.ndarray]:
    return {name: ps[name].data for name in ps.names()}


def moments(adam) -> dict[str, np.ndarray]:
    return {f"{key}{i}": a for key in "mv" for i, a in enumerate(getattr(adam, key))}


# -- one round ---------------------------------------------------------------


def interleaved(counts: dict[str, int]) -> list[str]:
    """Each task name ``counts[name]`` times, every task spread evenly."""
    slots = [((j + 0.5) / n, name) for name, n in counts.items() for j in range(n)]
    return [name for _, name in sorted(slots)]


def timed(times: list[float], call, *args, **kwargs):
    """Call, appending the wall time it took to ``times``."""
    start = time.perf_counter()
    value = call(*args, **kwargs)
    times.append(time.perf_counter() - start)
    return value


def run_round(name: str, seed: int, inputs: dict, scratch: Path, ops: Operations,
              tracer: Tracer, traced: bool) -> dict:
    """One pass of the pipeline, then its output checks (never traced).

    The first set-up and sampling feed training and are not timed: they
    warm the heap and the caches.  After training, set-up, sampling and
    evaluation are repeated a fixed number of times per round, interleaved
    with the classify calls, so that their short windows give a median;
    each repeat must return what the first call did.  A full garbage
    collection, not timed, precedes every set-up and sampling repeat, so
    that each one starts from the same collector state instead of paying
    at random for a collection of everything the round keeps alive.
    """
    w = WORKLOADS[name]
    out = {"setup_s": [], "sample_s": [], "eval_s": [], "answer_ms": []}

    # set-up: the program reads its graph and marks held-out edges
    def setup():
        kg = graphs.load_graph(inputs["triples"], inputs["types"])
        return kg, sampling.split_edges(kg, SPLIT_FRACTION, seed=seed)

    cfg = sampling.SamplerConfig(quotas=w.quotas, seed=seed, max_targets=w.max_targets)
    kg, split = setup()
    instances, _ = sampling.generate_datasets(kg, split, cfg)
    datasets = by_split(instances)
    test = datasets["test"]

    ckpt = scratch / "model.ckpt"
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with tracer.phase(traced) as train_phase:
        start = time.perf_counter()
        result = training.train(kg, datasets, train_config(w), checkpoint_path=ckpt)
        train_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    out["train_s"] = train_s
    out["train_queries"] = result.steps

    # expected answers, from the box encode returns, as entity masks: the
    # classify answers are checked as they come and not kept
    query_boxes = {id(inst): encoder.encode(inst.query, result.ps).box for inst in test}
    lower, upper = oracle.entity_bounds(result.ps)
    expected = {key: oracle.overlap_mask(box, lower, upper) for key, box in query_boxes.items()}

    # The repeats of the short phases and the classify calls (the paper's
    # binary answer, one closed-loop caller over held-out queries) are
    # interleaved, so that each phase's samples span the whole window
    # rather than a few seconds of a machine whose speed drifts.
    same_setup, same_sample, reports, wrong_answers = [], [], [], []
    queries = iter(balanced_order(test, w.classify_calls))
    with tracer.phase(traced) as post_phase:
        for task in interleaved({"setup": w.setups, "sample": w.repeats,
                                 "evaluate": w.eval_repeats, "classify": w.classify_calls}):
            if task in ("setup", "sample"):
                gc.collect()
            if task == "setup":
                other_kg, other_split = timed(out["setup_s"], setup)
                same_setup.append(other_kg.edges == kg.edges and other_split == split)
                del other_kg, other_split
            elif task == "sample":
                other, _ = timed(out["sample_s"], sampling.generate_datasets, kg, split, cfg)
                same_sample.append(other == instances)
                del other
            elif task == "evaluate":
                reports.append(timed(out["eval_s"], evaluation.evaluate, result.ps, test,
                                     mode="both", full_ranking=w.full_ranking))
            else:
                inst = next(queries)
                answer = timed(out["answer_ms"], evaluation.classify, result.ps, inst.query)
                wrong_answers.append(oracle.mask_problems(answer, expected[id(inst)]))
    out["answer_ms"] = [1e3 * s for s in out["answer_ms"]]
    # read before the output checks, which allocate too
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = reports[0]
    out["sample_queries"] = len(instances)
    out["eval_queries"] = len(test)
    out["test_pairwise"] = report.overall["pairwise"]
    out["test_f1"] = 100.0 * report.overall["f1"]
    out["timed_s"] = (sum(out["setup_s"]) + sum(out["sample_s"]) + train_s + sum(out["eval_s"])
                   + sum(out["answer_ms"]) / 1e3)

    # -- output checks -------------------------------------------------------
    ops.record("setup", oracle.check_graph(kg, inputs["labels"])
               + oracle.check_split(kg, split, SPLIT_FRACTION))
    for ok in same_setup:
        ops.record("setup", [] if ok else ["a repeated set-up differs from the first"])
    index = oracle.EdgeIndex(kg.edges)
    problems = oracle.check_instances(instances, index, split.removed_edges, w.max_targets)
    if len(instances) != sum(w.quotas.values()):
        problems.append(f"{len(instances)} instances for quotas {sum(w.quotas.values())}")
    ops.record("generate_datasets", problems)
    for ok in same_sample:
        ops.record("generate_datasets", [] if ok else ["a repeated sampling differs from the first"])
    ops.record("train", [] if result.steps == w.max_steps and len(result.history) == w.max_steps
               else [f"ran {result.steps} of {w.max_steps} steps"])
    for problems in wrong_answers:
        ops.record("classify", problems)
    ops.record("evaluate", oracle.check_report(
        report, [query_boxes[id(inst)] for inst in test], test, result.ps,
        w.full_ranking, boxes.DEFAULT_ALPHA))
    for other in reports[1:]:
        ops.record("evaluate", [] if other.to_dict() == report.to_dict()
                   else ["a repeated evaluation differs from the first"])

    probe = next(inst for inst in datasets["train"] if inst.negatives)
    top = result.ps.layers
    relation = result.ps.relation_weight(top, probe.query.relations[0], "fwd")
    table = result.ps.entity_embeddings
    d = result.ps.dim
    anchor, target = probe.query.anchors[0], min(probe.targets)
    coordinates = [("entity_embeddings", table, row, col)
                   for row in (anchor, target) for col in (0, d)]
    coordinates += [(f"msg{top}_rel{probe.query.relations[0]}_fwd", relation, row, col)
                    for row, col in ((0, 0), (1, 2), (d, d + 1), (2 * d - 1, 0))]
    ops.record("gradient", oracle.gradient_problems(
        lambda: training.instance_loss(result.ps, probe, "tm"), coordinates))

    prefix = train_config(w, max_steps=PREFIX_STEPS, eval_every=PREFIX_EVAL_EVERY)
    runs = [training.train(kg, datasets, prefix) for _ in range(2)]
    ops.record("determinism", oracle.same_tensors(tensors_of(runs[0].ps), tensors_of(runs[1].ps)))

    ps1, adam1, step1, _ = training.load_checkpoint(ckpt)
    copy = scratch / "copy.ckpt"
    training.save_checkpoint(ps1, adam1, copy, step=step1)
    ps2, adam2, step2, _ = training.load_checkpoint(copy)
    problems = oracle.same_tensors(tensors_of(result.ps), tensors_of(ps1))
    problems += oracle.same_tensors(tensors_of(ps1), tensors_of(ps2))
    problems += oracle.same_tensors(moments(adam1), moments(adam2))
    if (step1, adam1.t) != (step2, adam2.t) or step1 != result.steps:
        problems.append(f"step {step1}/{step2}, adam t {adam1.t}/{adam2.t}")
    ops.record("checkpoint_roundtrip", problems)

    if name == "desk":
        fresh = encoder.init_parameters(kg, dim=w.dim, layers=w.layers, seed=MODEL_SEED,
                                        aggregation="tm")
        chance = evaluation.evaluate(fresh, test, mode="ranking").overall["pairwise"]
        low, high = RANDOM_INIT_BAND
        problems = []
        if not low <= chance <= high:
            problems.append(f"random-init pairwise {chance:.2f} outside {low}-{high}")
        if out["test_pairwise"] < chance + TRAINED_MARGIN:
            problems.append(f"trained pairwise {out['test_pairwise']:.2f} against random {chance:.2f}")
        ops.record("beats_random_init", problems)
        ops.record("resume", resume_problems(inputs["resume"], scratch), expected=True)

    if traced:
        # classification and ranking timed apart, outside the timed figures
        with tracer.phase(True) as cls_phase:
            evaluation.evaluate(result.ps, test, mode="classification")
        with tracer.phase(True) as rank_phase:
            evaluation.evaluate(result.ps, test, mode="ranking", full_ranking=w.full_ranking)
        out["layer"] = layer_metrics(
            result, test, instances, ckpt, usage, after, train_s,
            train_phase.stats, post_phase.stats, cls_phase.stats, rank_phase.stats)
    return out


def resume_problems(inputs: dict, scratch: Path) -> list[str]:
    """train(k) + checkpoint + resume to N against an uninterrupted train(N)."""
    kg, datasets, w = inputs["kg"], inputs["datasets"], WORKLOADS["desk"]
    k, n = RESUME_STEPS
    cfg = dict(eval_every=RESUME_EVAL_EVERY)
    whole = training.train(kg, datasets, train_config(w, max_steps=n, **cfg))
    ckpt = scratch / "resume.ckpt"
    training.train(kg, datasets, train_config(w, max_steps=k, **cfg),
                   checkpoint_path=ckpt)
    resumed = training.train(kg, datasets, train_config(w, max_steps=n, **cfg),
                             resume_from=ckpt)
    problems = oracle.same_tensors(tensors_of(whole.ps), tensors_of(resumed.ps))
    if whole.best_step != resumed.best_step:
        problems.insert(0, f"best step {resumed.best_step} after resume, {whole.best_step} without")
    return problems


def layer_metrics(result, test, instances, ckpt, usage, after, train_s,
                  train_stats, post_stats, cls_stats, rank_stats) -> dict[str, float]:
    """Per-layer figures: training from its own phase, set-up, sampling and
    evaluation from the interleaved repeats after it."""
    attempts = (post_stats.calls["sampling.sample_query"]
                / post_stats.calls["sampling.generate_datasets"])
    user = after.ru_utime - usage.ru_utime
    system = after.ru_stime - usage.ru_stime
    encode_calls = (train_stats.calls.get("encoder.encode", 0)
                    + post_stats.calls.get("encoder.encode", 0))
    encode_time = (train_stats.total.get("encoder.encode", 0.0)
                   + post_stats.total.get("encoder.encode", 0.0))
    param_bytes = sum(p.data.nbytes for p in result.ps.parameters())
    return {
        "graphs.load_s": post_stats.total["graphs.load_graph"]
        / post_stats.calls["graphs.load_graph"],
        "sampling.attempts": float(attempts),
        "sampling.accept_ratio": len(instances) / attempts,
        "sampling.sample_query_ms": post_stats.mean_ms("sampling.sample_query"),
        "sampling.sample_negatives_ms": post_stats.mean_ms("sampling.sample_negatives"),
        "queries.execute_ms": post_stats.mean_ms("queries.execute"),
        "queries.execute_relaxed_ms": post_stats.mean_ms("queries.execute_relaxed"),
        "encoder.encode_ms": 1e3 * encode_time / encode_calls,
        "boxes.box_distance_ms": train_stats.mean_ms("boxes.box_distance"),
        "training.instance_loss_ms": train_stats.mean_ms("training.instance_loss"),
        "autodiff.backward_ms": train_stats.mean_ms("autodiff.backward"),
        "autodiff.adam_step_ms": train_stats.mean_ms("autodiff.adam_step"),
        # params, grads and both moments, read and written once per step
        "autodiff.adam_bytes_computed": float(4 * param_bytes),
        "training.minflt_per_step": (after.ru_minflt - usage.ru_minflt) / result.steps,
        "training.sys_share": system / (user + system),
        "training.validation_share": train_stats.total.get("training.validation", 0.0) / train_s,
        "training.checkpoint_save_ms": train_stats.mean_ms("training.save_checkpoint", own=False),
        "training.checkpoint_bytes": float(ckpt.stat().st_size),
        "evaluation.classify_ms": post_stats.mean_ms("evaluation.classify"),
        "evaluation.classification_ms_per_query":
            1e3 * cls_stats.self_time["evaluation.evaluate"] / len(test),
        "evaluation.ranking_ms_per_query":
            1e3 * rank_stats.self_time["evaluation.evaluate"] / len(test),
    }


def install_spans(tracer: Tracer) -> None:
    """Wrap the attributes each caller looks up, named after their layers."""
    for owner, attr, name in [
        (graphs, "load_graph", "graphs.load_graph"),
        (sampling, "split_edges", "sampling.split_edges"),
        (sampling, "generate_datasets", "sampling.generate_datasets"),
        (sampling, "sample_query", "sampling.sample_query"),
        (sampling, "sample_negatives", "sampling.sample_negatives"),
        (sampling, "execute", "queries.execute"),
        (sampling, "execute_relaxed", "queries.execute_relaxed"),
        (training, "train", "training.train"),
        (training, "instance_loss", "training.instance_loss"),
        (training, "encode", "encoder.encode"),
        (training, "box_distance_t", "boxes.box_distance"),
        (autodiff.Tensor2, "backward", "autodiff.backward"),
        (training, "adam_step", "autodiff.adam_step"),
        (training, "evaluate", "training.validation"),
        (training, "save_checkpoint", "training.save_checkpoint"),
        (evaluation, "evaluate", "evaluation.evaluate"),
        (evaluation, "classify", "evaluation.classify"),
        (evaluation, "encode", "encoder.encode"),
    ]:
        tracer.wrap(owner, attr, name)


# -- the run -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args(argv)
    inputs = read_inputs(args.workload, args.scratch)
    tracer = Tracer(args.run_id)
    if args.traced:
        install_spans(tracer)
    ops = Operations()
    out = run_round(args.workload, args.seed, inputs, args.scratch, ops, tracer,
                    bool(args.traced))
    if args.traced:
        tracer.write(args.scratch / "spans.jsonl")
    out.update(attempted=ops.attempted, failed=ops.failed,
               expected_failures=ops.expected_failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
