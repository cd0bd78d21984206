"""Negative-sampling loss, the Adam training loop, and checkpoints.

One training step works on one query instance: encode the query into a
box, gather the boxes of its answers and sampled non-answers, and push
answers inside the margin while pushing non-answers out.  Validation
pairwise ranking accuracy is measured every few steps and drives early
stopping; the parameters from the best evaluation are what the loop
ultimately returns.  Checkpoints are self-describing binary files that
restore parameters, optimizer state, and the step counter exactly.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor2, adam_step
from .boxes import DEFAULT_ALPHA, box_distance_t, split_raw_box
from .encoder import ConfigurationError, ParameterStore, encode, init_parameters, shape_problems
from .evaluation import evaluate
from .graphs import KnowledgeGraph
from .queries import TEMPLATE_NAMES, QueryInstance

log = logging.getLogger(__name__)

_SHUFFLE_STREAM = 201


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    gamma: float = 1.0
    alpha: float = DEFAULT_ALPHA
    lr: float = 0.01
    max_steps: int = 1000
    eval_every: int = 100
    patience: int = 3
    aggregation: str = "sum"
    seed: int = 0
    dim: int = 32
    layers: int = 3

    def __post_init__(self):
        """Raise one ValueError listing every broken rule as ``key: rule``, joined by "; "."""
        broken = [
            f"{key}: {rule}"
            for key, bad, rule in (
                ("gamma", self.gamma <= 0, "must be positive"),
                ("alpha", self.alpha < 0, "must be >= 0"),
                ("lr", self.lr <= 0, "must be positive"),
                ("max_steps", self.max_steps < 1, "must be >= 1"),
                ("eval_every", self.eval_every < 1, "must be >= 1"),
                ("patience", self.patience < 1, "must be >= 1"),
                ("seed", self.seed < 0, "must be >= 0"),
            )
            if bad
        ]
        broken += shape_problems(self.dim, self.layers, self.aggregation)
        if broken:
            raise ValueError("; ".join(broken))


def loss_terms(
    q_center: Tensor2,
    q_offset: Tensor2,
    pos_centers: Tensor2,
    pos_offsets: Tensor2,
    neg_centers: Tensor2 | None = None,
    neg_offsets: Tensor2 | None = None,
    gamma: float = 1.0,
    alpha: float = DEFAULT_ALPHA,
) -> Tensor2:
    """Differentiable margin loss over box distances.

    Mean softplus(d_pos - gamma) over positives plus mean
    softplus(gamma - d_neg) over negatives; both terms are the negative
    log-sigmoid of the signed margin.  The negative term drops out when
    no negatives are given.
    """
    if pos_centers.rows == 0:
        raise ValueError("loss needs at least one positive")
    d_pos = box_distance_t(q_center, q_offset, pos_centers, pos_offsets, alpha)
    total = ad.mean_all(ad.softplus(d_pos - gamma))
    if neg_centers is not None and neg_centers.rows:
        d_neg = box_distance_t(q_center, q_offset, neg_centers, neg_offsets, alpha)
        total = total + ad.mean_all(ad.softplus(gamma - d_neg))
    return total


def instance_loss(
    ps: ParameterStore,
    inst: QueryInstance,
    method: str | None = None,
    gamma: float = 1.0,
    alpha: float = DEFAULT_ALPHA,
) -> Tensor2:
    """Loss of one training instance, differentiable w.r.t. the store."""
    enc = encode(inst.query, ps, method)
    pos_c, pos_o = split_raw_box(ad.gather_rows(ps.entity_embeddings, sorted(inst.targets)))
    neg_ids = list(inst.negatives) + list(inst.hard_negatives)
    neg_c = neg_o = None
    if neg_ids:
        neg_c, neg_o = split_raw_box(ad.gather_rows(ps.entity_embeddings, neg_ids))
    return loss_terms(enc.center, enc.offset, pos_c, pos_o, neg_c, neg_o, gamma, alpha)


class NonFiniteLossError(FloatingPointError):
    """A training step's loss is NaN or infinite; no update was applied."""


@dataclass
class LogRow:
    """One line of the training log; validation columns only on eval steps."""

    step: int
    train_loss: float
    val_pairwise: float | None = None
    val_by_template: dict[str, float | None] | None = None


@dataclass
class TrainResult:
    ps: ParameterStore
    history: list[LogRow]
    steps: int
    best_step: int | None
    best_metric: float | None


def _check_dataset_ids(kg: KnowledgeGraph, instances: Sequence[QueryInstance]) -> None:
    for inst in instances:
        ids = set(inst.query.anchors) | inst.targets
        ids |= set(inst.negatives) | set(inst.hard_negatives)
        bad = [e for e in ids if not 0 <= e < kg.num_entities]
        if bad:
            raise ValueError(f"instance references unknown entity ids: {sorted(bad)}")
        bad_r = [r for r in inst.query.relations if not 0 <= r < kg.num_relations]
        if bad_r:
            raise ValueError(f"instance references unknown relation ids: {sorted(bad_r)}")


def _val_metric(
    ps: ParameterStore,
    val: Sequence[QueryInstance],
    method: str,
    alpha: float,
) -> tuple[float | None, dict[str, float | None] | None]:
    if not val:
        return None, None
    report = evaluate(ps, val, method=method, mode="ranking", alpha=alpha)
    per_template = {
        name: report.templates[name]["pairwise"] for name in TEMPLATE_NAMES
    }
    return report.overall["pairwise"], per_template


def train(
    kg: KnowledgeGraph,
    datasets: Mapping[str, Sequence[QueryInstance]],
    cfg: TrainConfig,
    checkpoint_path: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> TrainResult:
    """Run the training loop; return the best-validation parameters.

    Steps walk the train split in a fresh seeded shuffle per epoch, one
    instance per step.  Every ``eval_every`` steps the validation split
    is scored by pairwise ranking accuracy; after ``patience``
    evaluations without strict improvement the loop stops early.  With no
    validation data (or no negatives in it) training simply runs to
    ``max_steps``.  ``checkpoint_path`` saves the returned parameters;
    ``resume_from`` restores parameters, optimizer, step counter, and
    shuffle state from an earlier save; a checkpoint whose header differs
    from :func:`checkpoint_fields` of ``kg`` and ``cfg``, or whose Adam
    ``lr`` differs from ``cfg``, raises :class:`CheckpointError` naming
    the field.  A NaN or infinite loss raises
    :class:`NonFiniteLossError` before that step updates anything.
    """
    train_set = list(datasets.get("train", []))
    val_set = list(datasets.get("val", []))
    if not train_set:
        raise ValueError("training requires a non-empty train split")
    _check_dataset_ids(kg, train_set)
    _check_dataset_ids(kg, val_set)

    start_step = 0
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SHUFFLE_STREAM]))
    if resume_from is not None:
        ps, adam, start_step, rng_state = load_checkpoint(
            resume_from, **checkpoint_fields(kg, cfg)
        )
        if adam.lr != cfg.lr:
            raise CheckpointError(
                f"checkpoint {resume_from} has lr {adam.lr!r}, expected {cfg.lr!r}"
            )
        if rng_state is not None:
            rng.bit_generator.state = rng_state
    else:
        ps = init_parameters(
            kg, dim=cfg.dim, layers=cfg.layers, seed=cfg.seed, aggregation=cfg.aggregation
        )
        adam = AdamState(ps.parameters(), lr=cfg.lr)

    history: list[LogRow] = []
    best_snapshot: np.ndarray | None = None
    best_metric: float | None = None
    best_step: int | None = None
    bad_evals = 0
    step = start_step
    order: list[int] = []
    stop = False

    while step < cfg.max_steps and not stop:
        if not order:
            order = list(rng.permutation(len(train_set)))
        inst = train_set[order.pop(0)]
        step += 1
        total = instance_loss(ps, inst, cfg.aggregation, cfg.gamma, cfg.alpha)
        train_loss = total.item()
        if not math.isfinite(train_loss):
            q = inst.query
            raise NonFiniteLossError(
                f"loss is {train_loss} at step {step} on a {q.template} query"
                f" (anchors {q.anchors}, relations {q.relations})"
            )
        ps.zero_grads()
        total.backward()
        adam_step(adam)
        row = LogRow(step=step, train_loss=train_loss)

        if step % cfg.eval_every == 0:
            metric, per_template = _val_metric(ps, val_set, cfg.aggregation, cfg.alpha)
            row.val_pairwise = metric
            row.val_by_template = per_template
            if metric is not None:
                if best_metric is None or metric > best_metric:
                    best_metric = metric
                    best_step = step
                    best_snapshot = adam.data.copy()
                    bad_evals = 0
                else:
                    bad_evals += 1
                    if bad_evals >= cfg.patience:
                        log.info(
                            "early stop at step %d (best %.2f at step %d)",
                            step,
                            best_metric,
                            best_step,
                        )
                        stop = True
        history.append(row)

    if best_snapshot is not None:
        adam.data[:] = best_snapshot

    if checkpoint_path is not None:
        save_checkpoint(ps, adam, checkpoint_path, step=step, rng=rng)

    return TrainResult(
        ps=ps, history=history, steps=step, best_step=best_step, best_metric=best_metric
    )


def write_training_log(history: Sequence[LogRow], path: str | Path) -> Path:
    """CSV log: step, train loss, and validation accuracy per template."""
    path = Path(path)
    columns = ["step", "train_loss", "val_pairwise"] + [
        f"val_{name}" for name in TEMPLATE_NAMES
    ]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in history:
            record = [row.step, repr(row.train_loss)]
            record.append("" if row.val_pairwise is None else repr(row.val_pairwise))
            for name in TEMPLATE_NAMES:
                value = (row.val_by_template or {}).get(name)
                record.append("" if value is None else repr(value))
            writer.writerow(record)
    return path


# --- checkpoints ------------------------------------------------------------
#
# Layout: magic, version, header length, JSON header, then raw float64
# buffers in header order (parameter tensors, Adam first moments, Adam
# second moments).  Everything needed to rebuild the store is in the
# header, so loading does not need the graph.  The header lists tensors in
# store order, so each of the three sections is one packed buffer.

_MAGIC = b"BOXQCKPT"
_VERSION = 1
# what load_checkpoint reads from the header, and from its "adam" entry, as
# (JSON type, test); ``type(v) is int`` turns away booleans, which are ints
_INTEGER = ("an integer", lambda value: type(value) is int)
_HEADER_KEYS = {
    **dict.fromkeys(("dim", "layers", "num_entities", "num_relations", "num_types"), _INTEGER),
    "aggregation": ("a string", lambda value: type(value) is str),
    "tensors": ("a list of [name, rows, cols]", lambda value: type(value) is list and all(
        type(e) is list and len(e) == 3 and type(e[0]) is str
        and type(e[1]) is type(e[2]) is int and min(e[1:]) >= 0 for e in value
    )),
    "adam": ("an object", lambda value: type(value) is dict),
    "step": _INTEGER,
}
_ADAM_KEYS = {
    **dict.fromkeys(("lr", "beta1", "beta2", "eps"), ("a number", lambda v: type(v) in (int, float))),
    "t": _INTEGER,
}


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def save_checkpoint(
    ps: ParameterStore,
    adam: AdamState,
    path: str | Path,
    step: int = 0,
    rng: np.random.Generator | None = None,
) -> Path:
    """Write ``ps`` and ``adam``, the state built over its tensors (else ``ValueError``)."""
    path = Path(path)
    if adam.params != ps.parameters():  # tensors compare by identity
        raise ValueError("optimizer state does not hold the parameter store's tensors")
    adam.check_views()
    names = ps.names()
    header = {
        "version": _VERSION,
        "dim": ps.dim,
        "layers": ps.layers,
        "aggregation": ps.aggregation,
        "num_entities": ps.num_entities,
        "num_relations": ps.num_relations,
        "num_types": ps.num_types,
        "variable_node_features": "entity-type embedding rows with an untyped fallback row",
        "tensors": [[name, *ps[name].shape] for name in names],
        "adam": {
            "lr": adam.lr,
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "eps": adam.eps,
            "t": adam.t,
        },
        "step": step,
        "rng_state": None if rng is None else rng.bit_generator.state,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for buf in (adam.data, adam.m_flat, adam.v_flat):
            fh.write(memoryview(buf))  # the bytes of tobytes(), without a copy
    return path


def checkpoint_fields(kg: KnowledgeGraph, cfg: TrainConfig) -> dict:
    """The header fields a checkpoint must hold to serve ``kg`` under ``cfg``."""
    return {
        "dim": cfg.dim,
        "aggregation": cfg.aggregation,
        "num_entities": kg.num_entities,
        "num_relations": kg.num_relations,
        "num_types": kg.num_types,
        "layers": cfg.layers,
    }


def load_checkpoint(
    path: str | Path, **expected
) -> tuple[ParameterStore, AdamState, int, dict | None]:
    """Restore (store, optimizer, step, rng state) from a checkpoint file.

    Each keyword names a header field (``dim``, ``layers``,
    ``aggregation``, ``num_entities``, ... see :func:`checkpoint_fields`)
    that must equal what was saved; the first that differs raises
    :class:`CheckpointError` naming it, rather than producing a silently
    incompatible model.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    cursor = len(_MAGIC)
    (version,) = struct.unpack_from("<I", raw, cursor)
    cursor += 4
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, cursor)
    cursor += 8
    try:
        header = json.loads(raw[cursor : cursor + header_len].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint header in {path}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"corrupt checkpoint header in {path}")
    for prefix, keys in (("", _HEADER_KEYS), ("adam.", _ADAM_KEYS)):
        section = header["adam"] if prefix else header  # an object by now
        for key, (kind, valid) in keys.items():
            if key not in section:
                raise CheckpointError(f"checkpoint header in {path} lacks the key {prefix + key!r}")
            if not valid(section[key]):
                raise CheckpointError(f"checkpoint header in {path}: {prefix + key!r}"
                                      f" must be {kind}, got {section[key]!r}")
    cursor += header_len
    for name, value in expected.items():
        if header.get(name) != value:
            raise CheckpointError(
                f"checkpoint {path} has {name} {header.get(name)!r}, expected {value!r}"
            )

    size = sum(rows * cols for _, rows, cols in header["tensors"])
    end = cursor + 3 * size * 8
    if end > len(raw):
        raise CheckpointError(f"truncated checkpoint: {path}")
    if end != len(raw):
        raise CheckpointError(f"trailing bytes in checkpoint: {path}")
    body = np.frombuffer(raw, dtype=np.float64, count=3 * size, offset=cursor)
    # views of the file body; AdamState copies them into its buffers once
    tensors: dict[str, Tensor2] = {}
    start = 0
    for name, rows, cols in header["tensors"]:
        stop = start + rows * cols
        tensors[name] = Tensor2(body[start:stop].reshape(rows, cols), requires_grad=True)
        start = stop
    try:
        ps = ParameterStore(
            dim=header["dim"],
            layers=header["layers"],
            aggregation=header["aggregation"],
            num_entities=header["num_entities"],
            num_relations=header["num_relations"],
            num_types=header["num_types"],
            tensors=tensors,
        )
    except ConfigurationError as exc:  # a header that contradicts itself or its tensors
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    meta = header["adam"]
    adam = AdamState(
        ps.parameters(),
        lr=meta["lr"],
        beta1=meta["beta1"],
        beta2=meta["beta2"],
        eps=meta["eps"],
    )
    adam.t = meta["t"]
    adam.m_flat[:] = body[size : 2 * size]
    adam.v_flat[:] = body[2 * size :]
    return ps, adam, header["step"], header.get("rng_state")
