"""Dataset construction: edge splits, backward query sampling, negatives.

The pipeline mirrors how incomplete-graph evaluation data is usually
built.  First a fraction of edges is marked as "removed"; marked edges
stay in the graph while sampling, so answer sets are computed against
the full graph, but any query whose drawn edges touch a marked edge is
banished to validation or test.  Queries are sampled edge-first: walk
backward from a random concrete edge, drawing one graph edge per
template edge, so every query comes with a witness assignment and at
least one guaranteed answer.  Negatives are uniform non-answers, plus
"hard" negatives for intersection templates: entities that satisfy the
query once its conjunctive intersections are relaxed to disjunctions.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .graphs import Edge, KnowledgeGraph
from .queries import (
    TEMPLATE_NAMES,
    TEMPLATES,
    QueryInstance,
    _topo_order,
    execute,
    execute_relaxed,
    instance_from_json,
    instance_to_json,
    instantiate,
)

log = logging.getLogger(__name__)

REJECTION_REASONS = ("empty", "oversize", "disconnected")

# rng substream tags so the split and the per-template samplers never
# share a stream even under the same user seed
_SPLIT_STREAM = 101
_QUERY_STREAM = 102


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Rejection:
    """A sampling attempt that produced no usable query."""

    reason: str
    template: str

    def __post_init__(self):
        if self.reason not in REJECTION_REASONS:
            raise ValueError(f"unknown rejection reason: {self.reason!r}")


@dataclass(frozen=True)
class EdgeSplit:
    """Partition of the edge set into kept and marked-for-removal edges."""

    train_edges: frozenset[Edge]
    removed_edges: frozenset[Edge]
    rng_seed: int

    def __post_init__(self):
        if self.train_edges & self.removed_edges:
            raise ValueError("train and removed edge sets overlap")


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for query generation.

    ``quotas`` maps template name to the number of accepted instances to
    generate; missing templates get zero.  ``typed_negatives`` switches
    on domain-restricted negative sampling, which prefers non-answers
    sharing the target's entity type.
    """

    max_targets: int = 100
    negatives_per_query: int = 10
    hard_negative_fraction: float = 0.5
    quotas: Mapping[str, int] = field(default_factory=dict)
    seed: int = 0
    val_fraction: float = 0.10
    typed_negatives: bool = False

    def __post_init__(self):
        """Raise one ValueError listing every broken rule as ``key: rule``, joined by "; "."""
        broken = [
            f"{key}: {rule}"
            for key, bad, rule in (
                ("max_targets", self.max_targets < 1, "must be >= 1"),
                ("negatives_per_query", self.negatives_per_query < 0, "must be >= 0"),
                ("hard_negative_fraction", not 0.0 <= self.hard_negative_fraction <= 1.0,
                 "must lie in [0, 1]"),
                ("val_fraction", not 0.0 <= self.val_fraction <= 1.0, "must lie in [0, 1]"),
                ("quotas", any(q < 0 for q in self.quotas.values()), "must be >= 0"),
            )
            if bad
        ]
        broken += [f"quotas: unknown template {name!r}" for name in self.quotas
                   if name not in TEMPLATES]
        if broken:
            raise ValueError("; ".join(broken))


def split_edges(
    kg: KnowledgeGraph, fraction: float = 0.10, seed: int = 0
) -> EdgeSplit:
    """Mark ``round(fraction * |edges|)`` edges uniformly at random.

    Marked edges are *not* deleted; they remain visible to the sampler so
    that answer sets reflect the complete graph.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    n = len(kg.edges)
    k = _round_half_up(fraction * n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SPLIT_STREAM]))
    picked = rng.choice(n, size=k, replace=False) if n else []
    removed = frozenset(kg.edges[i] for i in picked)
    return EdgeSplit(
        train_edges=frozenset(kg.edges) - removed,
        removed_edges=removed,
        rng_seed=seed,
    )


def assign_split(
    witness_edges: tuple[Edge, ...],
    split: EdgeSplit,
    rng: np.random.Generator,
    val_fraction: float = 0.10,
) -> str:
    """Split rule: drawn edges touching a removed edge push the query out
    of train, landing in val with probability ``val_fraction`` else test."""
    if any(e in split.removed_edges for e in witness_edges):
        return "val" if rng.random() < val_fraction else "test"
    return "train"


def sample_query(
    kg: KnowledgeGraph,
    template: str,
    split: EdgeSplit,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> QueryInstance | Rejection:
    """Draw one query of the given template, or explain why none came out.

    The walk starts from a uniformly random graph edge, which fixes the
    target, then fills the remaining template edges backward: each one is
    drawn from the incoming edges of its already-assigned head node,
    without repeating a concrete edge at shared nodes.  Rejections happen
    when the walk dead-ends (``disconnected``) or when the answer set,
    computed on the full graph, is empty or exceeds ``cfg.max_targets``.
    """
    tpl = TEMPLATES[template]
    if not kg.edges:
        return Rejection("disconnected", template)
    assignment: dict[int, int] = {}
    relations: list[int | None] = [None] * tpl.num_edges
    witness: list[Edge | None] = [None] * tpl.num_edges

    by_head = {}
    for i, (src, dst) in enumerate(tpl.edges):
        by_head.setdefault(dst, []).append(i)

    first = True
    for node in reversed(_topo_order(tpl)):
        pattern_edges = by_head.get(node, [])
        if not pattern_edges:
            continue
        used: set[tuple[int, int]] = set()
        if first:
            h, r, t = kg.edges[rng.integers(len(kg.edges))]
            assignment[node] = t
            i = pattern_edges[0]
            assignment[tpl.edges[i][0]] = h
            relations[i] = r
            witness[i] = (h, r, t)
            used.add((h, r))
            pattern_edges = pattern_edges[1:]
            first = False
        head_entity = assignment[node]
        for i in pattern_edges:
            choices = [
                hr for hr in kg.in_edges.get(head_entity, ()) if hr not in used
            ]
            if not choices:
                return Rejection("disconnected", template)
            h, r = choices[rng.integers(len(choices))]
            used.add((h, r))
            assignment[tpl.edges[i][0]] = h
            relations[i] = r
            witness[i] = (h, r, head_entity)

    q = instantiate(
        template,
        [assignment[a] for a in tpl.anchor_nodes],
        relations,
        var_types=[kg.entity_types[assignment[n]] for n in range(tpl.num_nodes)],
    )
    targets = execute(kg, q)
    if not targets:
        return Rejection("empty", template)
    if len(targets) > cfg.max_targets:
        return Rejection("oversize", template)
    return QueryInstance(
        query=q,
        targets=frozenset(targets),
        negatives=(),
        hard_negatives=(),
        split=assign_split(tuple(witness), split, rng, cfg.val_fraction),
        witness_edges=tuple(witness),
    )


def _draw(pool: np.ndarray, count: int, rng: np.random.Generator) -> list[int]:
    if count <= 0 or not pool.size:
        return []
    count = min(count, pool.size)
    picked = rng.choice(pool.size, size=count, replace=False)
    return pool[picked].tolist()


def non_answers(num_entities: int, excluded) -> np.ndarray:
    """Sorted ids in ``range(num_entities)`` that are not in ``excluded``."""
    keep = np.ones(num_entities, dtype=bool)
    keep[np.fromiter(excluded, dtype=np.intp, count=len(excluded))] = False
    return np.flatnonzero(keep)


def sample_negatives(
    kg: KnowledgeGraph,
    q: QueryInstance,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Draw (uniform negatives, hard negatives) for one instance.

    Hard negatives exist only for templates with an intersection: they
    are sampled from the relaxed-minus-strict answer set, up to
    ``hard_negative_fraction`` of the negative budget, and any shortfall
    is backfilled with uniform negatives.  Uniform negatives come from
    the sorted non-answer pool; if the graph is too small to fill the
    budget, everything available is returned with a warning.
    """
    total = cfg.negatives_per_query
    hard: list[int] = []
    if TEMPLATES[q.query.template].has_intersection and total > 0:
        relaxed = execute_relaxed(kg, q.query)
        hard_pool = np.array(sorted(relaxed - q.targets), dtype=np.intp)
        want = _round_half_up(cfg.hard_negative_fraction * total)
        hard = _draw(hard_pool, want, rng)

    pool = non_answers(kg.num_entities, q.targets | set(hard))
    want_uniform = total - len(hard)
    if pool.size < want_uniform:
        log.warning(
            "only %d non-answers available for %d requested negatives",
            pool.size,
            want_uniform,
        )
    if cfg.typed_negatives and q.query.var_types is not None:
        target_type = q.query.var_types[q.query.shape.target_node]
        same = np.asarray(kg.entity_types)[pool] == target_type
        preferred, rest = pool[same], pool[~same]
        uniform = _draw(preferred, want_uniform, rng)
        uniform += _draw(rest, want_uniform - len(uniform), rng)
    else:
        uniform = _draw(pool, want_uniform, rng)
    return tuple(uniform), tuple(hard)


def generate_datasets(
    kg: KnowledgeGraph,
    split: EdgeSplit,
    cfg: SamplerConfig,
) -> tuple[list[QueryInstance], dict]:
    """Sample quota-many instances per template; return them plus stats.

    Each template draws from its own seeded substream, so changing one
    quota never perturbs the queries of another template.  Attempts per
    template are capped at ``max(1000, 50 * quota)``; an unmet quota is
    logged, not fatal.
    """
    instances: list[QueryInstance] = []
    rejections: dict[str, dict[str, int]] = {}
    attempts_by_template: dict[str, int] = {}
    for index, template in enumerate(TEMPLATE_NAMES):
        quota = cfg.quotas.get(template, 0)
        if quota <= 0:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _QUERY_STREAM, index])
        )
        counts = {reason: 0 for reason in REJECTION_REASONS}
        accepted = 0
        attempts = 0
        cap = max(1000, 50 * quota)
        while accepted < quota and attempts < cap:
            attempts += 1
            out = sample_query(kg, template, split, cfg, rng)
            if isinstance(out, Rejection):
                counts[out.reason] += 1
                continue
            negatives, hard = sample_negatives(kg, out, cfg, rng)
            instances.append(
                replace(out, negatives=negatives, hard_negatives=hard)
            )
            accepted += 1
        rejections[template] = counts
        attempts_by_template[template] = attempts
        if accepted < quota:
            log.warning(
                "template %s: quota %d not met after %d attempts (%d accepted)",
                template,
                quota,
                attempts,
                accepted,
            )
    manifest = _build_manifest(kg, split, cfg, instances, rejections, attempts_by_template)
    return instances, manifest


def _build_manifest(
    kg: KnowledgeGraph,
    split: EdgeSplit,
    cfg: SamplerConfig,
    instances: list[QueryInstance],
    rejections: dict[str, dict[str, int]],
    attempts: dict[str, int],
) -> dict:
    counts: dict[str, dict[str, int]] = {}
    target_sums: dict[str, dict[str, int]] = {}
    for inst in instances:
        per_split = counts.setdefault(inst.split, {})
        per_split[inst.query.template] = per_split.get(inst.query.template, 0) + 1
        sums = target_sums.setdefault(inst.split, {})
        sums[inst.query.template] = sums.get(inst.query.template, 0) + len(inst.targets)
    mean_targets = {
        split_name: {
            tpl: target_sums[split_name][tpl] / n for tpl, n in per_split.items()
        }
        for split_name, per_split in counts.items()
    }
    return {
        "config": {
            f.name: dict(cfg.quotas) if f.name == "quotas" else getattr(cfg, f.name)
            for f in fields(SamplerConfig)
        },
        "graph": {
            "entities": kg.num_entities,
            "relations": kg.num_relations,
            "edges": len(kg.edges),
        },
        "edge_split": {
            "removed": len(split.removed_edges),
            "kept": len(split.train_edges),
            "seed": split.rng_seed,
        },
        "counts": counts,
        "mean_targets": mean_targets,
        "rejections": rejections,
        "attempts": attempts,
        "hard_negative_rule": (
            "hard negatives satisfy the query once each intersection is "
            "relaxed to a disjunction (union of incoming candidate sets at "
            "every intersection node); sampled from that relaxed answer set "
            "minus the strict answers"
        ),
    }


SPLIT_FILES = {"train": "train.jsonl", "val": "val.jsonl", "test": "test.jsonl"}


def write_datasets(
    out_dir: str | Path,
    kg: KnowledgeGraph,
    instances: list[QueryInstance],
    manifest: dict,
) -> dict[str, Path]:
    """Write one JSON-lines file per split plus ``manifest.json``.

    All three split files are always created, so downstream code can rely
    on their presence.  Output is byte-deterministic for a fixed input.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    by_split: dict[str, list[QueryInstance]] = {s: [] for s in SPLIT_FILES}
    for inst in instances:
        by_split[inst.split].append(inst)
    for split_name, filename in SPLIT_FILES.items():
        path = out / filename
        with path.open("w", encoding="utf-8") as fh:
            for inst in by_split[split_name]:
                fh.write(instance_to_json(inst, kg) + "\n")
        paths[split_name] = path
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    paths["manifest"] = manifest_path
    return paths


def load_datasets(
    directory: str | Path, kg: KnowledgeGraph
) -> dict[str, list[QueryInstance]]:
    """Read the three split files back into instances (witnesses are gone)."""
    directory = Path(directory)
    datasets: dict[str, list[QueryInstance]] = {}
    for split_name, filename in SPLIT_FILES.items():
        path = directory / filename
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file: {path}")
        with path.open(encoding="utf-8") as fh:
            datasets[split_name] = [
                instance_from_json(line, kg) for line in fh if line.strip()
            ]
    return datasets
