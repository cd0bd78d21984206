"""Classification and ranking evaluation, broken out per query template.

Two complementary views of model quality.  Classification treats the
query box as a crisp answer set: every entity whose box overlaps it is
predicted as an answer, and the prediction is scored against the stored
answer set with a confusion matrix, precision, recall, and F1.  Ranking
asks a weaker question, namely whether answers sit closer to the query
box than sampled non-answers, reported as the percentage of correctly
ordered (answer, non-answer) pairs with ties worth half a point.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .boxes import DEFAULT_ALPHA, distances, overlap_buffer, overlaps, separation
from .autodiff import no_grad
from .encoder import ParameterStore, encode, encode_many
from .graphs import check_ids
from .queries import TEMPLATE_NAMES, QueryInstance, check_instance_ids, check_query_ids
from .sampling import non_answers

MODES = ("classification", "ranking", "both")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of a binary decision against ground truth."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


def _index(entities) -> np.ndarray:
    """A collection of entity ids, already checked, as an index array."""
    return np.fromiter(entities, dtype=np.intp, count=len(entities))


def _count(predicted: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    """Confusion counts of a predicted-answer mask against distinct true ids."""
    tp = int(np.count_nonzero(predicted[truth]))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = truth.size - tp
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=predicted.size - tp - fp - fn)


def confusion(
    predicted: Iterable[int], truth: Iterable[int], universe: int
) -> ConfusionMatrix:
    """Score a predicted entity set against the true answer set.

    Ids outside ``range(universe)`` on either side raise ``UnknownIdError``, a ``ValueError``.
    """
    predicted, truth = set(predicted), set(truth)
    check_ids("entity", predicted | truth, universe)
    mask = np.zeros(universe, dtype=bool)
    mask[_index(predicted)] = True
    return _count(mask, _index(truth))


def classify(ps: ParameterStore, q, method: str | None = None) -> frozenset[int]:
    """All entities whose box overlaps the encoded query box; an anchor or
    relation unknown to ``ps`` raises ``UnknownIdError``."""
    check_query_ids(q, ps.num_entities, ps.num_relations)
    with no_grad():
        box = encode(q, ps, method).box
    centers, offsets = ps.entity_boxes()  # fresh, so they can take delta and span
    delta, span = separation(box.center, box.offset, centers, offsets, centers, offsets)
    return frozenset(np.flatnonzero(overlaps(delta, span)).tolist())


def _pair_wins(pos: np.ndarray, neg: np.ndarray) -> float:
    """Pairs with the answer strictly closer, plus half the tied pairs.

    Counted from the sorted negatives (Mann-Whitney U), without the P x N
    comparison matrix; NaN distances win and tie nothing, as in that matrix.
    """
    neg = np.sort(neg)
    if neg.size and np.isnan(neg[-1]):  # sort puts NaNs last
        neg = neg[~np.isnan(neg)]
    below = int(np.searchsorted(neg, pos, side="left").sum())  # pairs neg < pos
    upto = int(np.searchsorted(neg, pos, side="right").sum())  # pairs neg <= pos
    return float(pos.size * neg.size - upto) + 0.5 * float(upto - below)


def pairwise_accuracy(
    pos_distances: Sequence[float], neg_distances: Sequence[float]
) -> float:
    """Percentage of (answer, non-answer) pairs ranked correctly.

    A pair counts when the answer is strictly closer; ties contribute
    half a win, so reversing the arguments complements the score to 100.
    """
    pos = np.asarray(pos_distances, dtype=float)
    neg = np.asarray(neg_distances, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("pairwise accuracy needs at least one distance per side")
    return 100.0 * _pair_wins(pos, neg) / (pos.size * neg.size)


@dataclass
class TemplateMetrics:
    """Accumulated evaluation results for one query template."""

    queries: int = 0
    confusion: ConfusionMatrix | None = None
    pair_wins: float = 0.0
    pairs: int = 0
    negative_pool: int = 0

    @property
    def pairwise(self) -> float | None:
        return 100.0 * self.pair_wins / self.pairs if self.pairs else None

    def to_dict(self) -> dict:
        row: dict = {"queries": self.queries}
        if self.confusion is not None:
            c = self.confusion
            row["confusion"] = {"tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn}
            row["precision"] = c.precision
            row["recall"] = c.recall
            row["f1"] = c.f1
        else:
            row["confusion"] = None
            row["precision"] = row["recall"] = row["f1"] = None
        row["pairwise"] = self.pairwise
        row["pairs"] = self.pairs
        row["mean_negative_pool"] = (
            self.negative_pool / self.queries if self.queries else None
        )
        return row


@dataclass
class EvalReport:
    """Per-template metrics plus the evaluation settings that shaped them."""

    method: str
    mode: str
    alpha: float
    full_ranking: bool
    manifest_hash: str | None
    templates: dict[str, dict]
    overall: dict

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "mode": self.mode,
            "alpha": self.alpha,
            "full_ranking": self.full_ranking,
            "manifest_hash": self.manifest_hash,
            "templates": self.templates,
            "overall": self.overall,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        return cls(
            method=obj["method"],
            mode=obj["mode"],
            alpha=obj["alpha"],
            full_ranking=obj["full_ranking"],
            manifest_hash=obj.get("manifest_hash"),
            templates=obj["templates"],
            overall=obj["overall"],
        )


def evaluate(
    ps: ParameterStore,
    instances: Sequence[QueryInstance],
    method: str | None = None,
    mode: str = "both",
    alpha: float = DEFAULT_ALPHA,
    manifest_hash: str | None = None,
    full_ranking: bool = False,
) -> EvalReport:
    """Evaluate a dataset split; the report always carries all 7 template rows.

    Classification scans the full entity universe per query; ranking uses
    each instance's stored negatives (uniform plus hard) unless
    ``full_ranking`` swaps in every non-answer.  Truth is the stored
    target set, which the sampler computed on the full graph.  The queries
    of each template are encoded together, without a tape, and each query
    takes at most one pass over the entity table, shared by classification
    and full ranking.  An id unknown to ``ps`` raises ``UnknownIdError``
    (a ``ValueError``) before any query is scored.
    """
    if mode not in MODES:
        raise ValueError(f"unknown evaluation mode: {mode!r}")
    if not instances:
        raise ValueError("cannot evaluate an empty split")
    check_instance_ids(instances, ps.num_entities, ps.num_relations)
    method = method or ps.aggregation
    want_cls = mode in ("classification", "both")
    want_rank = mode in ("ranking", "both")
    centers, offsets = ps.entity_boxes()
    per_template = {name: TemplateMetrics() for name in TEMPLATE_NAMES}
    if want_cls:
        for name in TEMPLATE_NAMES:
            per_template[name].confusion = ConfusionMatrix()
    # At most one pass over the entity table per query, into work buffers
    # made once per call; ranking against stored negatives reads only the
    # rows it needs, whether or not the pass runs.
    rank_all = want_rank and full_ranking
    scan = want_cls or rank_all
    if scan:
        delta, span = np.empty_like(centers), np.empty_like(centers)
        below = overlap_buffer(*centers.shape) if want_cls else None
        work = np.empty_like(centers) if rank_all else None
    # one encode per template; the scan below keeps the instance order,
    # so every sum is formed in the same order as one query at a time
    by_template: dict[str, list[int]] = {}
    for i, inst in enumerate(instances):
        by_template.setdefault(inst.query.template, []).append(i)
    q_centers = np.empty((len(instances), ps.dim))
    q_offsets = np.empty((len(instances), ps.dim))
    for members in by_template.values():
        q_centers[members], q_offsets[members] = encode_many(
            [instances[i].query for i in members], ps, method
        )

    for inst, q_center, q_offset in zip(instances, q_centers, q_offsets):
        metrics = per_template[inst.query.template]
        metrics.queries += 1
        truth = _index(inst.targets)
        if scan:
            separation(q_center, q_offset, centers, offsets, delta, span)
        if want_cls:
            metrics.confusion = metrics.confusion + _count(
                overlaps(delta, span, below), truth
            )
        if want_rank:
            if rank_all:
                every = distances(delta, span, alpha, work)
                neg = every[non_answers(ps.num_entities, truth)]
                pos = every[truth]
            else:
                rows = np.concatenate(
                    (truth, np.array(inst.negatives + inst.hard_negatives, dtype=np.intp))
                )
                near = separation(q_center, q_offset, centers[rows], offsets[rows])
                listed = distances(*near, alpha)
                pos, neg = listed[: truth.size], listed[truth.size :]
            metrics.negative_pool += neg.size
            if neg.size:
                metrics.pair_wins += _pair_wins(pos, neg)
                metrics.pairs += pos.size * neg.size

    total = TemplateMetrics(confusion=ConfusionMatrix() if want_cls else None)
    for m in per_template.values():
        total.queries += m.queries
        if want_cls:
            total.confusion = total.confusion + m.confusion
        total.pair_wins += m.pair_wins
        total.pairs += m.pairs
    # the overall row has no negative pool, and in ranking mode no
    # classification keys at all
    overall = total.to_dict()
    del overall["mean_negative_pool"]
    if not want_cls:
        for key in ("confusion", "precision", "recall", "f1"):
            del overall[key]

    return EvalReport(
        method=method,
        mode=mode,
        alpha=alpha,
        full_ranking=full_ranking,
        manifest_hash=manifest_hash,
        templates={name: per_template[name].to_dict() for name in TEMPLATE_NAMES},
        overall=overall,
    )


def emit_report(report: EvalReport, path: str | Path, format: str = "json") -> Path:
    """Write a report as canonical JSON or long-form CSV."""
    path = Path(path)
    if format == "json":
        path.write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    elif format == "csv":
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["template", "metric", "value"])
            for name in TEMPLATE_NAMES:
                row = report.templates[name]
                for metric in (
                    "queries",
                    "precision",
                    "recall",
                    "f1",
                    "pairwise",
                    "pairs",
                    "mean_negative_pool",
                ):
                    value = row.get(metric)
                    writer.writerow(
                        [name, metric, "" if value is None else value]
                    )
                conf = row.get("confusion")
                if conf:
                    for key in ("tp", "fp", "fn", "tn"):
                        writer.writerow([name, key, conf[key]])
    else:
        raise ValueError(f"unknown report format: {format!r}")
    return path


def load_report(path: str | Path) -> EvalReport:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return EvalReport.from_dict(obj)
