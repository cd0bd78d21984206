"""Output checks computed apart from the program under test.

Every function returns a list of problems (empty when the output holds).
The computations here use only the edge list, the returned boxes and
numpy, never the package's executors, geometry kernels or metric code.
"""

from __future__ import annotations

import numpy as np

# The seven in-tree shapes: edges (src node, dst node) toward the target,
# anchors first.  Kept here so that a change to the package's table shows.
TEMPLATE_EDGES = {
    "1-chain": ((0, 1),),
    "2-chain": ((0, 1), (1, 2)),
    "3-chain": ((0, 1), (1, 2), (2, 3)),
    "2-inter": ((0, 2), (1, 2)),
    "3-inter": ((0, 3), (1, 3), (2, 3)),
    "3-inter-chain": ((0, 3), (1, 2), (2, 3)),
    "3-chain-inter": ((0, 2), (1, 2), (2, 3)),
}


class EdgeIndex:
    """Out-adjacency and edge set rebuilt from a plain edge list."""

    def __init__(self, edges):
        self.edges = set(edges)
        self.out: dict[tuple[int, int], set[int]] = {}
        for h, r, t in edges:
            self.out.setdefault((h, r), set()).add(t)

    def propagate(self, template: str, anchors, relations, relaxed: bool) -> set[int]:
        """Forward set propagation from the anchors to the target.

        At a node with several incoming edges the branch sets are
        intersected (strict answers) or united (the relaxed answers that
        hard negatives come from).  Exact for in-trees.
        """
        edges = TEMPLATE_EDGES[template]
        target = max(d for _, d in edges)
        values: dict[int, set[int]] = {i: {a} for i, a in enumerate(anchors)}

        def value(node: int) -> set[int]:
            if node not in values:
                branches = []
                for (s, d), r in zip(edges, relations):
                    if d == node:
                        reach: set[int] = set()
                        for v in value(s):
                            reach |= self.out.get((v, r), set())
                        branches.append(reach)
                combine = set.union if relaxed else set.intersection
                values[node] = combine(*branches)
            return values[node]

        return value(target)


def read_triples(path) -> set[tuple[str, str, str]]:
    """Label triples of a tab-separated graph file, parsed here."""
    with open(path, encoding="utf-8") as fh:
        return {tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()}


def check_graph(kg, label_triples: set[tuple[str, str, str]]) -> list[str]:
    """The loaded graph holds exactly the generated triples."""
    loaded = {
        (kg.entity_labels[h], kg.relation_labels[r], kg.entity_labels[t])
        for h, r, t in kg.edges
    }
    if loaded != label_triples or len(kg.edges) != len(label_triples):
        return [f"loaded {len(kg.edges)} edges, generated {len(label_triples)}"]
    return []


def check_split(kg, split, fraction: float) -> list[str]:
    problems = []
    expected = int(np.floor(fraction * len(kg.edges) + 0.5))
    if len(split.removed_edges) != expected:
        problems.append(f"{len(split.removed_edges)} removed edges, expected {expected}")
    if split.train_edges | split.removed_edges != set(kg.edges):
        problems.append("kept and removed edges do not cover the graph")
    if split.train_edges & split.removed_edges:
        problems.append("kept and removed edges overlap")
    return problems


def check_instances(instances, index: EdgeIndex, removed, max_targets: int) -> list[str]:
    """Answer sets, witnesses, negatives and split rule of every instance."""
    problems = []
    for n, inst in enumerate(instances):
        q = inst.query
        where = f"instance {n} ({q.template})"
        if tuple(q.shape.edges) != TEMPLATE_EDGES[q.template]:
            problems.append(f"{where}: template edges differ")
            continue
        strict = index.propagate(q.template, q.anchors, q.relations, relaxed=False)
        if set(inst.targets) != strict:
            problems.append(f"{where}: {len(inst.targets)} targets, propagation gives {len(strict)}")
        if not 1 <= len(inst.targets) <= max_targets:
            problems.append(f"{where}: {len(inst.targets)} targets outside 1..{max_targets}")
        if len(inst.witness_edges) != len(q.relations) or not all(
            e in index.edges for e in inst.witness_edges
        ):
            problems.append(f"{where}: witness edges missing from the graph")
        if inst.targets & set(inst.negatives) or inst.targets & set(inst.hard_negatives):
            problems.append(f"{where}: negatives overlap the targets")
        if inst.hard_negatives:
            relaxed = index.propagate(q.template, q.anchors, q.relations, relaxed=True)
            if not set(inst.hard_negatives) <= relaxed:
                problems.append(f"{where}: hard negatives outside the relaxed answers")
        touched = any(e in removed for e in inst.witness_edges)
        if (inst.split == "train") == touched:
            problems.append(f"{where}: split {inst.split} but removed edge touched={touched}")
    return problems


def entity_bounds(ps) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of every closed entity box."""
    table = ps.entity_embeddings.data
    d = ps.dim
    center = table[:, :d]
    offset = np.maximum(table[:, d:], 0.0)
    return center - offset, center + offset


def overlap_mask(box, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Entities whose closed box meets the query box, from the corners."""
    q_lower = box.center - box.offset
    q_upper = box.center + box.offset
    return np.all((lower <= q_upper) & (q_lower <= upper), axis=1)


def mask_problems(answer, expected: np.ndarray) -> list[str]:
    """An answer set against the expected entity mask."""
    got = np.zeros(expected.size, dtype=bool)
    got[list(answer)] = True
    if len(answer) != int(got.sum()) or not np.array_equal(got, expected):
        return [f"{len(answer)} entities, recomputed {int(expected.sum())}"]
    return []


def distances(box, ps, alpha: float) -> np.ndarray:
    """Outside plus alpha-weighted inside distance to every entity."""
    table = ps.entity_embeddings.data
    d = ps.dim
    delta = np.abs(table[:, :d] - box.center)
    span = np.maximum(table[:, d:], 0.0) + box.offset
    return np.maximum(delta - span, 0.0).sum(axis=1) + alpha * np.minimum(delta, span).sum(axis=1)


def mann_whitney_wins(pos: np.ndarray, neg: np.ndarray) -> float:
    """Pairs with the answer strictly closer, ties worth one half, by sorting."""
    ordered = np.sort(neg)
    right = np.searchsorted(ordered, pos, side="right")
    left = np.searchsorted(ordered, pos, side="left")
    return float((ordered.size - right).sum() + 0.5 * (right - left).sum())


def rates(counts: dict[str, int]) -> dict[str, float]:
    """Precision, recall and F1 from confusion counts (F1 as 2tp / (2tp + fp + fn))."""
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    return {
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
        "f1": 2 * tp / (2 * tp + fp + fn) if tp else 0.0,
    }


def check_report(report, boxes, instances, ps, full_ranking: bool, alpha: float) -> list[str]:
    """Confusion counts, precision, recall, F1 and pairwise of an evaluation report.

    ``boxes`` are the query boxes ``encode`` returns for ``instances``.
    Every count and rate is recomputed here, overall and per template.
    """
    problems = []
    n = ps.num_entities
    lower, upper = entity_bounds(ps)
    counts: dict[str, dict[str, int]] = {}
    wins = 0.0
    pairs = 0
    for box, inst in zip(boxes, instances):
        predicted = overlap_mask(box, lower, upper)
        truth = np.zeros(n, dtype=bool)
        truth[sorted(inst.targets)] = True
        for key in ("overall", inst.query.template):
            row = counts.setdefault(key, dict.fromkeys(("tp", "fp", "fn", "tn"), 0))
            row["tp"] += int(np.sum(predicted & truth))
            row["fp"] += int(np.sum(predicted & ~truth))
            row["fn"] += int(np.sum(~predicted & truth))
            row["tn"] += int(np.sum(~predicted & ~truth))
        dist = distances(box, ps, alpha)
        if full_ranking:
            neg = dist[~truth]
        else:
            neg = dist[list(inst.negatives) + list(inst.hard_negatives)]
        if neg.size:
            pos = dist[sorted(inst.targets)]
            wins += mann_whitney_wins(pos, neg)
            pairs += pos.size * neg.size
    overall = report.overall
    if sum(counts["overall"].values()) != n * len(instances):
        problems.append(f"recomputed counts sum to {sum(counts['overall'].values())},"
                        f" not {n * len(instances)}")
    rows = {"overall": overall}
    rows.update((name, row) for name, row in report.templates.items() if row["queries"])
    if rows.keys() != counts.keys():
        problems.append(f"report rows {sorted(rows)}, templates {sorted(counts)}")
    for key in rows.keys() & counts.keys():
        row, own = rows[key], counts[key]
        if {k: row["confusion"][k] for k in own} != own:
            problems.append(f"{key}: confusion {row['confusion']} against recomputed {own}")
        for metric, value in rates(own).items():
            if abs(row[metric] - value) > 1e-12:
                problems.append(f"{key}: {metric} {row[metric]} against recomputed {value}")
    if pairs != overall["pairs"]:
        problems.append(f"{overall['pairs']} pairs, recomputed {pairs}")
    elif pairs and abs(overall["pairwise"] - 100.0 * wins / pairs) > 1e-9:
        problems.append(f"pairwise {overall['pairwise']} against rank count {100.0 * wins / pairs}")
    return problems


def gradient_problems(loss_fn, coordinates, h: float = 1e-6, rtol: float = 1e-5) -> list[str]:
    """``backward`` against central differences on chosen coordinates.

    ``loss_fn`` rebuilds the loss from the current parameter arrays;
    ``coordinates`` lists (label, tensor, row, col).  Each coordinate is
    restored exactly after probing.
    """
    for _, tensor, _, _ in coordinates:
        tensor.zero_grad()
    loss_fn().backward()
    problems = []
    for label, tensor, row, col in coordinates:
        analytic = 0.0 if tensor.grad is None else float(tensor.grad[row, col])
        saved = tensor.data[row, col]
        tensor.data[row, col] = saved + h
        up = loss_fn().item()
        tensor.data[row, col] = saved - h
        down = loss_fn().item()
        tensor.data[row, col] = saved
        numeric = (up - down) / (2 * h)
        if abs(analytic - numeric) > rtol * max(1.0, abs(analytic), abs(numeric)):
            problems.append(f"{label}[{row},{col}]: backward {analytic}, differences {numeric}")
    return problems


def same_tensors(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> list[str]:
    """Names whose arrays differ in shape or in any byte."""
    if a.keys() != b.keys():
        return [f"tensor names differ: {sorted(a.keys() ^ b.keys())}"]
    return [
        f"{name} differs"
        for name in a
        if a[name].shape != b[name].shape or a[name].tobytes() != b[name].tobytes()
    ]
