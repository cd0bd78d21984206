"""Relational message passing that turns a query graph into a box.

Query nodes start from learned vectors: anchors copy the embedding of
their bound entity, variables and the target copy a per-entity-type
embedding (with an untyped fallback row).  Each message-passing step
updates every node from itself and its neighbors with per-relation,
per-direction weight matrices; inverse edges are included so information
reaches the target regardless of edge orientation.  A final aggregation
(sum, max, target read-out, or a shared per-node MLP) produces one raw
2d vector that is split into the center and clamped offset of the query
box.

Node states hold one row per query, so :func:`encode_many` runs queries
of one template through the same code as :func:`encode` runs one.  Every
product is formed row by row, so a row's bits do not depend on the other
queries in the batch.

All state lives in a :class:`ParameterStore` of named tensors so the
optimizer and the checkpoint format can enumerate every parameter.  The
store checks that its tensors have the shapes its hyperparameters call
for; where their values live is the optimizer's business
(:class:`autodiff.AdamState` packs them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor2
from .boxes import Box, materialize, split_raw_box
from .graphs import KnowledgeGraph
from .queries import TEMPLATES, QueryGraph, QueryTemplate

AGGREGATIONS = ("sum", "max", "tm", "mlp")


class ConfigurationError(ValueError):
    """Model configuration inconsistent with the requested computation."""


@dataclass
class ParameterStore:
    """Named parameter tensors plus the hyperparameters that shape them.

    Building a store checks :func:`shape_problems` and that every tensor
    the hyperparameters call for is there with its shape (tables ``2*dim``
    wide with the counted rows), and raises :class:`ConfigurationError`
    naming the key of the first broken rule (``dim: ...``).
    """

    dim: int
    layers: int
    aggregation: str
    num_entities: int
    num_relations: int
    num_types: int  # named types; the table holds one extra untyped row
    tensors: dict[str, Tensor2] = field(repr=False)
    _relation_weights: dict[tuple[int, str], tuple[Tensor2, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        problems = shape_problems(self.dim, self.layers, self.aggregation)
        if problems:
            raise ConfigurationError("; ".join(problems))
        for name, shape in _tensor_shapes(
            self.dim, self.layers, self.aggregation,
            self.num_entities, self.num_relations, self.num_types,
        ).items():
            tensor = self.tensors.get(name)
            if tensor is None:
                raise ConfigurationError(f"tensors: lacks the tensor {name!r}")
            if tensor.shape != shape:
                key = _ROWS_KEY.get(name, "dim") if tensor.cols == shape[1] else "dim"
                raise ConfigurationError(
                    f"{key}: {name} is {tensor.rows}x{tensor.cols}, but {key}"
                    f" {getattr(self, key)} calls for {shape[0]}x{shape[1]}"
                )
        self._relation_weights = {
            (layer, direction): tuple(
                self.tensors[f"msg{layer}_rel{r}_{direction}"]
                for r in range(self.num_relations)
            )
            for layer in range(1, self.layers + 1)
            for direction in ("fwd", "inv")
        }

    def names(self) -> list[str]:
        return list(self.tensors)

    def parameters(self) -> list[Tensor2]:
        return list(self.tensors.values())

    def __getitem__(self, name: str) -> Tensor2:
        return self.tensors[name]

    @property
    def entity_embeddings(self) -> Tensor2:
        return self.tensors["entity_embeddings"]

    @property
    def type_embeddings(self) -> Tensor2:
        return self.tensors["type_embeddings"]

    def self_weight(self, layer: int) -> Tensor2:
        return self.tensors[f"msg{layer}_self"]

    def relation_weight(self, layer: int, relation: int, direction: str) -> Tensor2:
        return self.tensors[f"msg{layer}_rel{relation}_{direction}"]

    def relation_weights(self, layer: int, direction: str) -> tuple[Tensor2, ...]:
        """One layer's weights for ``direction``, indexed by relation id."""
        return self._relation_weights[layer, direction]

    def _entity_rows(self, rows) -> tuple[np.ndarray, np.ndarray]:
        table = self.entity_embeddings.data[rows]  # views of raw centers and offsets
        return table[..., : self.dim], table[..., self.dim :]

    def entity_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """(centers, clamped offsets) of all entity boxes, as fresh arrays."""
        centers, offsets = self._entity_rows(slice(None))
        return centers.copy(), np.maximum(offsets, 0.0)

    def entity_box(self, entity: int) -> Box:
        return materialize(*self._entity_rows(entity))

    def zero_grads(self) -> None:
        """Zero the gradient rows that each tensor marks (see :class:`Tensor2`)."""
        ad.zero_grads(self.tensors.values())


def shape_problems(dim: int, layers: int, aggregation: str) -> list[str]:
    """The broken rules of a store's shape, each as ``key: rule``."""
    return [
        f"{key}: {rule}"
        for key, bad, rule in (
            ("aggregation", aggregation not in AGGREGATIONS,
             f"must be one of {'/'.join(AGGREGATIONS)}"),
            ("dim", dim < 1, "must be >= 1"),
            ("layers", layers < 1, "must be >= 1"),
        )
        if bad
    ]


# the store field that counts a table's rows; other tensors follow dim
_ROWS_KEY = {"entity_embeddings": "num_entities", "type_embeddings": "num_types"}


def _tensor_shapes(dim: int, layers: int, aggregation: str, num_entities: int,
                   num_relations: int, num_types: int) -> dict[str, tuple[int, int]]:
    """The shape of every tensor a store holds, in store order."""
    width = 2 * dim
    shapes = {"entity_embeddings": (num_entities, width), "type_embeddings": (num_types + 1, width)}
    for layer in range(1, layers + 1):
        shapes[f"msg{layer}_self"] = (width, width)
        for r in range(num_relations):
            for direction in ("fwd", "inv"):
                shapes[f"msg{layer}_rel{r}_{direction}"] = (width, width)
    if aggregation == "mlp":
        shapes.update(mlp_w1=(width, width), mlp_b1=(1, width),
                      mlp_w2=(width, width), mlp_b2=(1, width))
    return shapes


def init_parameters(
    kg: KnowledgeGraph,
    dim: int = 32,
    layers: int = 3,
    seed: int = 0,
    aggregation: str = "sum",
) -> ParameterStore:
    """Fresh parameters: centers ~ U(0,10), raw offsets ~ N(3,1), message
    and MLP weights Glorot-uniform.  Deterministic per seed."""
    problems = shape_problems(dim, layers, aggregation)
    if problems:
        raise ConfigurationError("; ".join(problems))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0B0E]))

    def embedding_table(rows: int) -> Tensor2:
        centers = rng.uniform(0.0, 10.0, size=(rows, dim))
        offsets = rng.normal(3.0, 1.0, size=(rows, dim))
        return Tensor2(np.concatenate([centers, offsets], axis=1), requires_grad=True)

    def glorot(rows: int, cols: int) -> Tensor2:
        limit = np.sqrt(6.0 / (rows + cols))
        return Tensor2(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)

    tensors: dict[str, Tensor2] = {}
    for name, (rows, cols) in _tensor_shapes(
        dim, layers, aggregation, kg.num_entities, kg.num_relations, kg.num_types
    ).items():
        if name.endswith("_embeddings"):
            tensors[name] = embedding_table(rows)
        elif name.startswith("mlp_b"):
            tensors[name] = Tensor2(np.zeros((rows, cols)), requires_grad=True)
        else:
            tensors[name] = glorot(rows, cols)
    return ParameterStore(
        dim=dim,
        layers=layers,
        aggregation=aggregation,
        num_entities=kg.num_entities,
        num_relations=kg.num_relations,
        num_types=kg.num_types,
        tensors=tensors,
    )


def node_features(queries: Sequence[QueryGraph], ps: ParameterStore) -> list[Tensor2]:
    """Initial node states, one row per query: entity rows for anchors,
    type rows otherwise.  The queries share one template."""
    tpl = queries[0].shape
    untyped = ps.num_types
    bound = dict(zip(tpl.anchor_nodes, zip(*(q.anchors for q in queries))))
    states = []
    for node in range(tpl.num_nodes):
        if node in bound:
            states.append(ad.gather_rows(ps.entity_embeddings, bound[node]))
        else:
            hints = [
                untyped if q.var_types is None else min(q.var_types[node], untyped)
                for q in queries
            ]
            states.append(ad.gather_rows(ps.type_embeddings, hints))
    return states


# One message into a node: (source node, relation slot, direction, the
# slots of the node's other messages in that direction).  Messages whose
# relation ids are equal share a mean, so the count is 1 plus the peers
# that carry the same relation id.
_Message = tuple[int, int, str, tuple[int, ...]]


def _message_plan(tpl: QueryTemplate) -> tuple[tuple[_Message, ...], ...]:
    """Per node, its incoming messages in edge order, inverse edges included."""
    incoming: list[list[tuple[int, int, str]]] = [[] for _ in range(tpl.num_nodes)]
    for slot, (s, d) in enumerate(tpl.edges):
        incoming[d].append((s, slot, "fwd"))
        incoming[s].append((d, slot, "inv"))
    return tuple(
        tuple(
            (src, slot, direction, tuple(
                other for _, other, way in entries
                if way == direction and other != slot
            ))
            for src, slot, direction in entries
        )
        for entries in incoming
    )


_MESSAGE_PLANS = {name: _message_plan(tpl) for name, tpl in TEMPLATES.items()}

# The messages of same-template queries, per node: (source node, direction,
# one relation id per query, one 1/count per query).
QueryMessages = list[list[tuple[int, str, Sequence[int], Sequence[float]]]]


def query_messages(queries: Sequence[QueryGraph]) -> QueryMessages:
    """Per node, the incoming messages of same-template queries, with each
    query's relation ids and mean scales; every layer reuses them."""
    relations = [q.relations for q in queries]
    columns = list(zip(*relations))  # per edge slot, one relation id per query
    ones = [1.0] * len(queries)
    plan: QueryMessages = []
    for messages in _MESSAGE_PLANS[queries[0].template]:
        incoming = []
        for src, slot, direction, peers in messages:
            scale = ones
            if peers:
                scale = [
                    1.0 / (1 + sum(rels[p] == rels[slot] for p in peers))
                    for rels in relations
                ]
            incoming.append((src, direction, columns[slot], scale))
        plan.append(incoming)
    return plan


def message_pass(
    states: list[Tensor2 | None],
    messages: QueryMessages,
    ps: ParameterStore,
    layer: int,
    last: bool,
    nodes: Sequence[int],
) -> list[Tensor2 | None]:
    """One update step of ``nodes`` over the query graph, inverse edges included.

    Each node combines a self-loop message with mean-normalized messages
    per (relation, direction).  The last layer stays linear so raw centers
    and offsets can take any sign.  States hold one row per query, and
    ``messages`` (from :func:`query_messages`) give each row its own
    query's relations.  The states of nodes not in ``nodes`` come back None.
    """
    if not 1 <= layer <= ps.layers:
        raise ConfigurationError(f"layer {layer} outside 1..{ps.layers}")
    out: list[Tensor2 | None] = [None] * len(messages)
    for node in nodes:
        acc = ad.matmul(states[node], ps.self_weight(layer))
        for src, direction, ids, scale in messages[node]:
            acc = acc + ad.gathered_matmul(
                states[src], ps.relation_weights(layer, direction), ids, scale
            )
        out[node] = acc if last else ad.relu(acc)
    return out


def _target_rings(tpl: QueryTemplate) -> tuple[tuple[int, ...], ...]:
    """Entry k: the nodes within k hops of the target over both edge
    directions, ascending; the last entry holds every node."""
    hops = [0 if n == tpl.target_node else tpl.num_nodes for n in range(tpl.num_nodes)]
    for _ in range(tpl.num_nodes):  # relax every edge both ways until settled
        for s, d in tpl.edges:
            hops[s] = min(hops[s], hops[d] + 1)
            hops[d] = min(hops[d], hops[s] + 1)
    return tuple(
        tuple(n for n in range(tpl.num_nodes) if hops[n] <= k)
        for k in range(max(hops) + 1)
    )


# Under the target read-out only the target's final state is read, so a
# step with k steps after it updates only the nodes within k hops of the
# target (its dependency cone); no later step reads the others.
_TARGET_RINGS = {name: _target_rings(tpl) for name, tpl in TEMPLATES.items()}


def aggregate(
    states: list[Tensor2],
    method: str,
    q: QueryGraph,
    ps: ParameterStore,
) -> Tensor2:
    """Reduce node states to one raw 2d vector per row; ``q`` is any query
    of the states' template."""
    if method == "sum":
        total = states[0]
        for s in states[1:]:
            total = total + s
        return total
    if method == "max":
        best = states[0]
        for s in states[1:]:
            best = ad.maximum(best, s)
        return best
    if method == "tm":
        return states[q.shape.target_node]
    if method == "mlp":
        total = None
        for s in states:
            hidden = ad.relu(ad.affine(s, ps["mlp_w1"], ps["mlp_b1"]))
            mapped = ad.affine(hidden, ps["mlp_w2"], ps["mlp_b2"])
            total = mapped if total is None else total + mapped
        return total
    raise ConfigurationError(f"unknown aggregation: {method!r}")


@dataclass
class QueryEncoding:
    """One query's box as differentiable 1 x d tensors: the center and the
    clamped offset.  :attr:`box` copies them out as plain arrays."""

    center: Tensor2
    offset: Tensor2

    @property
    def box(self) -> Box:
        return Box(self.center.data[0].copy(), self.offset.data[0].copy())


def _encode_rows(
    queries: Sequence[QueryGraph],
    ps: ParameterStore,
    method: str | None,
) -> Tensor2:
    """Raw 2d box vectors, one row per query."""
    method = method or ps.aggregation
    if method not in AGGREGATIONS:
        raise ConfigurationError(f"unknown aggregation: {method!r}")
    if method == "mlp" and "mlp_w1" not in ps.tensors:
        raise ConfigurationError("store was initialized without MLP weights")
    first_query = queries[0]
    steps = first_query.shape.diameter if method == "tm" else ps.layers
    if steps > ps.layers:
        raise ConfigurationError(
            f"tm aggregation needs {steps} steps for {first_query.template} "
            f"but store has {ps.layers} layers"
        )
    states = node_features(queries, ps)
    messages = query_messages(queries)
    rings = _TARGET_RINGS[first_query.template]
    every_node = range(len(states))
    # Shallow queries run the *deepest* layers so that each layer keeps a
    # fixed role (the final layer is always the linear read-out) no matter
    # how many steps a particular query needs.
    for layer in range(ps.layers - steps + 1, ps.layers + 1):
        after = ps.layers - layer  # steps still to come
        nodes = rings[min(after, len(rings) - 1)] if method == "tm" else every_node
        states = message_pass(states, messages, ps, layer, after == 0, nodes)
    return aggregate(states, method, first_query, ps)


def encode(
    q: QueryGraph,
    ps: ParameterStore,
    method: str | None = None,
) -> QueryEncoding:
    """Full pipeline: features -> message passing -> aggregate -> box.

    The target read-out (``tm``) runs ``q.shape.diameter`` steps, the last
    ones of the store, so a store with fewer layers is a configuration
    error.  Other aggregations run all ``ps.layers`` steps.
    """
    return QueryEncoding(*split_raw_box(_encode_rows([q], ps, method)))


def encode_many(
    queries: Sequence[QueryGraph],
    ps: ParameterStore,
    method: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Boxes of same-template queries from one pass: B x d (centers, offsets).

    Row b holds the bits of ``encode(queries[b], ps, method).box``, with
    offsets clamped.  Nothing is recorded for backward.
    """
    queries = list(queries)
    if not queries:
        raise ValueError("encode_many needs at least one query")
    template = queries[0].template
    mixed = next((q.template for q in queries if q.template != template), None)
    if mixed is not None:
        raise ConfigurationError(
            f"encode_many needs queries of one template, got {template} and {mixed}"
        )
    with ad.no_grad():
        center, offset = split_raw_box(_encode_rows(queries, ps, method))
    return center.data, offset.data
