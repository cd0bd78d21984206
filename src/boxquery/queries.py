"""Conjunctive queries as DAGs plus an exact (brute-force) executor.

A query is a small directed acyclic graph with one target node, anchor
nodes bound to concrete entities, and existential variable nodes in
between.  Edges are directed toward the target and labeled with relation
ids: the edge (s, r, d) asserts the predicate r(s, d).  Seven fixed shapes
are supported, from single-hop chains to three-way intersections.

Execution is exhaustive search over the graph's adjacency indices, never a
learned score, so the result is the ground-truth answer set of the query
on the given graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable

from .graphs import KnowledgeGraph


class ArityError(ValueError):
    """Anchor or relation count does not match the template."""


class UnsupportedTemplateError(ValueError):
    """Operation requires an intersection but the query is a pure chain."""


@dataclass(frozen=True)
class QueryTemplate:
    """One of the seven query shapes.

    ``roles`` assigns anchor/variable/target to node indices; ``edges``
    lists (src, dst) node pairs directed toward the target.  Relation slots
    are ordered like ``edges``.
    """

    name: str
    roles: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.roles)

    @property
    def anchor_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r == "anchor")

    @property
    def target_node(self) -> int:
        return self.roles.index("target")

    @property
    def num_anchors(self) -> int:
        return len(self.anchor_nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def has_intersection(self) -> bool:
        fan_in = [0] * self.num_nodes
        for _, d in self.edges:
            fan_in[d] += 1
        return any(c >= 2 for c in fan_in)

    @property
    def diameter(self) -> int:
        """Longest anchor-to-target path length, in edges."""
        depth = [0] * self.num_nodes
        for s, d in self.edges:  # edges are listed in topological order
            depth[d] = max(depth[d], depth[s] + 1)
        return depth[self.target_node]


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


def execute(kg: KnowledgeGraph, q: QueryGraph) -> frozenset[int]:
    """All entities the target variable can bind to, by backtracking.

    Nodes are assigned in topological order from the anchors; each new
    node's candidates come from intersecting the adjacency lists of its
    already-assigned neighbors.  Variables may bind to any entity,
    including anchors or each other (plain conjunctive semantics).
    """
    _check_ids(kg, q)
    tpl = q.shape
    edges = q.edge_list()
    assignment: dict[int, int] = dict(q.node_bindings())
    # topological order guarantees every new node touches an assigned one
    order = [n for n in _topo_order(tpl) if n not in assignment]
    target = tpl.target_node
    results: set[int] = set()

    def consistent_candidates(node: int) -> set[int] | None:
        cands: set[int] | None = None
        for s, r, d in edges:
            if d == node and s in assignment:
                step = set(kg.out_index.get((assignment[s], r), ()))
            elif s == node and d in assignment:
                step = set(kg.in_index.get((assignment[d], r), ()))
            else:
                continue
            cands = step if cands is None else cands & step
            if not cands:
                return set()
        return cands

    def backtrack(i: int) -> None:
        if i == len(order):
            results.add(assignment[target])
            return
        node = order[i]
        cands = consistent_candidates(node)
        if cands is None:
            # disconnected node; cannot happen for the seven templates
            cands = set(range(kg.num_entities))
        for value in cands:
            assignment[node] = value
            backtrack(i + 1)
            del assignment[node]

    backtrack(0)
    return frozenset(results)


def _topo_order(tpl: QueryTemplate) -> list[int]:
    fan_in = [0] * tpl.num_nodes
    for _, d in tpl.edges:
        fan_in[d] += 1
    order = [n for n in range(tpl.num_nodes) if fan_in[n] == 0]
    placed = set(order)
    while len(order) < tpl.num_nodes:
        for s, d in tpl.edges:
            if s in placed and d not in placed:
                ready = all(x in placed for x, y in tpl.edges if y == d)
                if ready:
                    order.append(d)
                    placed.add(d)
    return order


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
    tpl = q.shape
    if not tpl.has_intersection:
        raise UnsupportedTemplateError(
            f"{q.template} has no intersection node to relax"
        )
    edges = q.edge_list()
    bound = q.node_bindings()
    # The seven templates are in-trees (every node has at most one outgoing
    # edge), so forward set propagation from the anchors is exact.
    for node in range(tpl.num_nodes):
        if sum(1 for s, _ in tpl.edges if s == node) > 1:
            raise UnsupportedTemplateError("relaxed execution requires an in-tree")
    possible: dict[int, set[int]] = {n: {v} for n, v in bound.items()}
    for node in _topo_order(tpl):
        if node in possible:
            continue
        branches = []
        for s, r, d in edges:
            if d != node:
                continue
            reach: set[int] = set()
            for v in possible[s]:
                reach.update(kg.out_index.get((v, r), ()))
            branches.append(reach)
        union: set[int] = set()
        for b in branches:
            union.update(b)
        possible[node] = union
    return frozenset(possible[tpl.target_node])


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
