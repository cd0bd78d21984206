"""Conjunctive queries as DAGs plus an exact executor.

A query is a small directed acyclic graph with one target node, anchor
nodes bound to concrete entities, and existential variable nodes in
between.  Edges are directed toward the target and labeled with relation
ids: the edge (s, r, d) asserts the predicate r(s, d).  Seven fixed shapes
are supported, from single-hop chains to three-way intersections.

Every shape is an in-tree, so one forward pass of entity sets from the
anchors to the target answers it exactly, over the graph's adjacency
indices and never with a learned score: intersecting the sets where edges
meet gives the ground-truth answers, uniting them gives the relaxed ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable

from .graphs import KnowledgeGraph


class ArityError(ValueError):
    """Anchor or relation count does not match the template."""


class UnsupportedTemplateError(ValueError):
    """Operation requires an intersection but the query is a pure chain."""


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class QueryTemplate:
    """One of the seven query shapes.

    ``roles`` assigns anchor/variable/target to node indices; ``edges``
    lists (src, dst) node pairs directed toward the target.  Relation slots
    are ordered like ``edges``.

    The shape must be an in-tree: every node but the one target has exactly
    one outgoing edge, the anchors are exactly the nodes without an incoming
    edge, and every edge into a node is listed before that node's outgoing
    edge.  The shape facts below are worked out once, at construction.
    """

    name: str
    roles: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    anchor_nodes: tuple[int, ...] = _derived()
    target_node: int = _derived()
    has_intersection: bool = _derived()
    diameter: int = _derived()  # longest anchor-to-target path, in edges
    topo_order: tuple[int, ...] = _derived()

    def __post_init__(self):
        fan_in = [0] * len(self.roles)
        fan_out = [0] * len(self.roles)
        depth = [0] * len(self.roles)
        for s, d in self.edges:
            fan_out[s] += 1
            if fan_out[d]:  # a self-loop fails here too
                raise ValueError(
                    f"template {self.name}: an edge into node {d} is listed "
                    "after its outgoing edge"
                )
            fan_in[d] += 1
            depth[d] = max(depth[d], depth[s] + 1)
        if self.roles.count("target") != 1 or fan_out != [
            int(r != "target") for r in self.roles
        ]:
            raise ValueError(
                f"template {self.name} is not an in-tree: every node but the "
                "one target needs exactly one outgoing edge"
            )
        if [r == "anchor" for r in self.roles] != [c == 0 for c in fan_in]:
            raise ValueError(
                f"template {self.name}: the anchors must be exactly the nodes "
                "without an incoming edge"
            )
        anchors = tuple(n for n, c in enumerate(fan_in) if c == 0)
        # a node is ready once the last of its incoming edges is listed
        last_in = {d: i for i, (_, d) in enumerate(self.edges)}
        target = self.roles.index("target")
        for name, value in (
            ("anchor_nodes", anchors),
            ("target_node", target),
            ("has_intersection", max(fan_in) >= 2),
            ("diameter", depth[target]),
            ("topo_order", anchors + tuple(sorted(last_in, key=last_in.get))),
        ):
            object.__setattr__(self, name, value)

    @property
    def num_nodes(self) -> int:
        return len(self.roles)

    @property
    def num_anchors(self) -> int:
        return len(self.anchor_nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


TEMPLATES: dict[str, QueryTemplate] = {
    t.name: t
    for t in [
        QueryTemplate("1-chain", ("anchor", "target"), ((0, 1),)),
        QueryTemplate("2-chain", ("anchor", "variable", "target"), ((0, 1), (1, 2))),
        QueryTemplate(
            "3-chain",
            ("anchor", "variable", "variable", "target"),
            ((0, 1), (1, 2), (2, 3)),
        ),
        QueryTemplate("2-inter", ("anchor", "anchor", "target"), ((0, 2), (1, 2))),
        QueryTemplate(
            "3-inter",
            ("anchor", "anchor", "anchor", "target"),
            ((0, 3), (1, 3), (2, 3)),
        ),
        # one direct edge to the target plus a 2-chain branch
        QueryTemplate(
            "3-inter-chain",
            ("anchor", "anchor", "variable", "target"),
            ((0, 3), (1, 2), (2, 3)),
        ),
        # a 2-way intersection on a variable, then one hop to the target
        QueryTemplate(
            "3-chain-inter",
            ("anchor", "anchor", "variable", "target"),
            ((0, 2), (1, 2), (2, 3)),
        ),
    ]
}

TEMPLATE_NAMES: tuple[str, ...] = tuple(TEMPLATES)


@dataclass(frozen=True)
class QueryGraph:
    """A template instantiated with concrete anchors and relations.

    ``var_types`` optionally carries an entity-type hint per node (anchors
    included, for uniform indexing); hints initialize variable and target
    node states in the encoder and are recorded by the sampler from the
    witness assignment that produced the query.
    """

    template: str
    anchors: tuple[int, ...]
    relations: tuple[int, ...]
    var_types: tuple[int, ...] | None = None

    def __post_init__(self):
        tpl = TEMPLATES.get(self.template)
        if tpl is None:
            raise ValueError(f"unknown template: {self.template!r}")
        if len(self.anchors) != tpl.num_anchors:
            raise ArityError(
                f"{self.template} takes {tpl.num_anchors} anchors, got {len(self.anchors)}"
            )
        if len(self.relations) != tpl.num_edges:
            raise ArityError(
                f"{self.template} takes {tpl.num_edges} relations, got {len(self.relations)}"
            )
        if self.var_types is not None and len(self.var_types) != tpl.num_nodes:
            raise ArityError("var_types must give one entry per template node")

    @property
    def shape(self) -> QueryTemplate:
        return TEMPLATES[self.template]

    def edge_list(self) -> list[tuple[int, int, int]]:
        """Edges as (src node, relation id, dst node)."""
        return [
            (s, r, d) for (s, d), r in zip(self.shape.edges, self.relations)
        ]

    def node_bindings(self) -> dict[int, int]:
        """Anchor node index -> bound entity id."""
        return dict(zip(self.shape.anchor_nodes, self.anchors))


def instantiate(
    template: str | QueryTemplate,
    anchors: Iterable[int],
    relations: Iterable[int],
    var_types: Iterable[int] | None = None,
) -> QueryGraph:
    """Build a QueryGraph, checking anchor/relation arity."""
    name = template.name if isinstance(template, QueryTemplate) else template
    return QueryGraph(
        template=name,
        anchors=tuple(anchors),
        relations=tuple(relations),
        var_types=None if var_types is None else tuple(var_types),
    )


def _check_ids(kg: KnowledgeGraph, q: QueryGraph) -> None:
    for a in q.anchors:
        if not 0 <= a < kg.num_entities:
            raise KeyError(f"unknown entity id: {a}")
    for r in q.relations:
        if not 0 <= r < kg.num_relations:
            raise KeyError(f"unknown relation id: {r}")


def _propagate(kg: KnowledgeGraph, q: QueryGraph, relaxed: bool) -> frozenset[int]:
    """Entity sets carried from the anchors to the target, in edge order.

    Each edge maps its source's set through the graph's out-adjacency; where
    several edges meet at a node, their sets are intersected, or united when
    ``relaxed``.  Exact because the template is an in-tree whose edges into
    a node are listed before the node's outgoing edge.
    """
    tpl = q.shape
    sets: dict[int, set[int]] = {n: {a} for n, a in zip(tpl.anchor_nodes, q.anchors)}
    for (s, d), r in zip(tpl.edges, q.relations):
        reach: set[int] = set()
        for v in sets[s]:
            reach.update(kg.out_index.get((v, r), ()))
        if d not in sets:
            sets[d] = reach
        elif relaxed:
            sets[d] |= reach
        else:
            sets[d] &= reach
    return frozenset(sets[tpl.target_node])


def execute(kg: KnowledgeGraph, q: QueryGraph) -> frozenset[int]:
    """All entities the target variable can bind to.

    Variables may bind to any entity, including anchors or each other
    (plain conjunctive semantics).  Unknown entity or relation ids raise
    ``KeyError``.
    """
    _check_ids(kg, q)
    return _propagate(kg, q, relaxed=False)


def execute_by_enumeration(kg: KnowledgeGraph, q: QueryGraph) -> frozenset[int]:
    """Reference oracle: try every full assignment of the free nodes.

    Exponential in the node count; only sensible on small graphs.  Kept
    deliberately independent of :func:`execute` so the two can be checked
    against each other.
    """
    _check_ids(kg, q)
    tpl = q.shape
    edges = q.edge_list()
    bound = q.node_bindings()
    free = [n for n in range(tpl.num_nodes) if n not in bound]
    target = tpl.target_node
    results: set[int] = set()
    for values in itertools.product(range(kg.num_entities), repeat=len(free)):
        assignment = dict(bound)
        assignment.update(zip(free, values))
        if all(
            (assignment[s], r, assignment[d]) in kg.edge_set for s, r, d in edges
        ):
            results.add(assignment[target])
    return frozenset(results)


def execute_relaxed(kg: KnowledgeGraph, q: QueryGraph) -> frozenset[int]:
    """Answers when every intersection is weakened to a disjunction.

    At each node with fan-in >= 2, satisfying any single incoming branch is
    enough.  Defined only for templates that contain an intersection; the
    difference ``execute_relaxed - execute`` is the hard-negative pool.
    """
    _check_ids(kg, q)
    if not q.shape.has_intersection:
        raise UnsupportedTemplateError(
            f"{q.template} has no intersection node to relax"
        )
    return _propagate(kg, q, relaxed=True)


@dataclass(frozen=True)
class QueryInstance:
    """A sampled query with its answer set and negative samples.

    ``targets`` is the answer set retrieved from the full graph.
    ``witness_edges`` records the concrete edges drawn while sampling the
    query; the split rule and the split-integrity checks depend on them.
    They are not part of the serialized form.
    """

    query: QueryGraph
    targets: frozenset[int]
    negatives: tuple[int, ...]
    hard_negatives: tuple[int, ...]
    split: str
    witness_edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if not self.targets:
            raise ValueError("a query instance must have at least one target")
        if self.targets & set(self.negatives):
            raise ValueError("negatives overlap the target set")
        if self.targets & set(self.hard_negatives):
            raise ValueError("hard negatives overlap the target set")
        if self.split not in ("train", "val", "test"):
            raise ValueError(f"unknown split: {self.split!r}")


# --- serialization ----------------------------------------------------------
#
# One JSON object per line in dataset files.  Entities and relations are
# stored as labels, so files remain meaningful independent of id order.


def query_to_dict(q: QueryGraph, kg: KnowledgeGraph) -> dict:
    obj = {
        "template": q.template,
        "anchors": [kg.entity_labels[a] for a in q.anchors],
        "relations": [kg.relation_labels[r] for r in q.relations],
    }
    if q.var_types is not None:
        untyped = kg.untyped_type_id
        obj["node_types"] = [
            None if t == untyped else kg.type_labels[t] for t in q.var_types
        ]
    return obj


def query_from_dict(obj: dict, kg: KnowledgeGraph) -> QueryGraph:
    var_types = None
    if obj.get("node_types") is not None:
        type_ids = {s: i for i, s in enumerate(kg.type_labels)}
        var_types = tuple(
            kg.untyped_type_id if t is None else type_ids[t]
            for t in obj["node_types"]
        )
    return QueryGraph(
        template=obj["template"],
        anchors=tuple(kg.entity_id(a) for a in obj["anchors"]),
        relations=tuple(kg.relation_id(r) for r in obj["relations"]),
        var_types=var_types,
    )


def instance_to_dict(inst: QueryInstance, kg: KnowledgeGraph) -> dict:
    obj = query_to_dict(inst.query, kg)
    obj["targets"] = sorted(kg.entity_labels[t] for t in inst.targets)
    obj["negatives"] = [kg.entity_labels[n] for n in inst.negatives]
    obj["hard_negatives"] = [kg.entity_labels[n] for n in inst.hard_negatives]
    obj["split"] = inst.split
    return obj


def instance_from_dict(obj: dict, kg: KnowledgeGraph) -> QueryInstance:
    return QueryInstance(
        query=query_from_dict(obj, kg),
        targets=frozenset(kg.entity_id(t) for t in obj["targets"]),
        negatives=tuple(kg.entity_id(n) for n in obj["negatives"]),
        hard_negatives=tuple(kg.entity_id(n) for n in obj["hard_negatives"]),
        split=obj["split"],
    )


def instance_to_json(inst: QueryInstance, kg: KnowledgeGraph) -> str:
    return json.dumps(instance_to_dict(inst, kg), sort_keys=True)


def instance_from_json(line: str, kg: KnowledgeGraph) -> QueryInstance:
    return instance_from_dict(json.loads(line), kg)
