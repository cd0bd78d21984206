import numpy as np
import pytest

from boxquery.graphs import build_graph
from boxquery.queries import (
    TEMPLATE_NAMES,
    TEMPLATES,
    ArityError,
    QueryTemplate,
    UnsupportedTemplateError,
    execute,
    execute_by_enumeration,
    execute_relaxed,
    instance_from_json,
    instance_to_json,
    instantiate,
    QueryInstance,
)
from boxquery.synthetic import random_graph


def q_works_topic_project(kg):
    """Projects P with a topic T related to P where Alice and Bob both work on T."""
    return instantiate(
        "3-chain-inter",
        [kg.entity_id("Alice"), kg.entity_id("Bob")],
        [
            kg.relation_id("works_on"),
            kg.relation_id("works_on"),
            kg.relation_id("related"),
        ],
    )


DIAMETERS = {
    "1-chain": 1,
    "2-chain": 2,
    "3-chain": 3,
    "2-inter": 1,
    "3-inter": 1,
    "3-inter-chain": 2,
    "3-chain-inter": 2,
}

INTERSECTION_TEMPLATES = ("2-inter", "3-inter", "3-inter-chain", "3-chain-inter")


def kahn_order(tpl):
    """Nodes in topological order: sources first, then each node once all
    of its predecessors are placed, scanning the edges in listed order."""
    fan_in = [0] * tpl.num_nodes
    for _, d in tpl.edges:
        fan_in[d] += 1
    order = [n for n in range(tpl.num_nodes) if fan_in[n] == 0]
    placed = set(order)
    while len(order) < tpl.num_nodes:
        for s, d in tpl.edges:
            if s in placed and d not in placed:
                if all(x in placed for x, y in tpl.edges if y == d):
                    order.append(d)
                    placed.add(d)
    return tuple(order)


class TestTemplates:
    def test_seven_shapes(self):
        assert len(TEMPLATES) == 7
        for tpl in TEMPLATES.values():
            assert tpl.roles.count("target") == 1
            assert tpl.num_anchors >= 1

    def test_acyclic_and_connected(self):
        for tpl in TEMPLATES.values():
            # edges point from lower depth to higher depth, target reachable
            touched = set()
            for s, d in tpl.edges:
                assert s != d
                touched.update((s, d))
            assert touched == set(range(tpl.num_nodes))

    @pytest.mark.parametrize("name,expected", list(DIAMETERS.items()))
    def test_diameter(self, name, expected, kg_t):
        tpl = TEMPLATES[name]
        anchors = [kg_t.entity_id("Alice")] * tpl.num_anchors
        rels = [kg_t.relation_id("works_on")] * tpl.num_edges
        assert instantiate(name, anchors, rels).shape.diameter == expected

    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_shape_facts_match_recomputation(self, name):
        tpl = TEMPLATES[name]
        fan_in = [0] * tpl.num_nodes
        depth = [0] * tpl.num_nodes
        for s, d in tpl.edges:
            fan_in[d] += 1
            depth[d] = max(depth[d], depth[s] + 1)
        assert tpl.anchor_nodes == tuple(
            i for i, r in enumerate(tpl.roles) if r == "anchor"
        )
        assert tpl.target_node == tpl.roles.index("target")
        assert tpl.has_intersection == any(c >= 2 for c in fan_in)
        assert tpl.diameter == depth[tpl.target_node] == DIAMETERS[name]
        assert tpl.topo_order == kahn_order(tpl)

    @pytest.mark.parametrize(
        "name,roles,edges",
        [
            # node 0 has two outgoing edges
            ("fork", ("anchor", "variable", "target"), ((0, 1), (0, 2), (1, 2))),
            # the edge into node 1 comes after node 1's outgoing edge
            ("late", ("anchor", "variable", "target"), ((1, 2), (0, 1))),
            # an anchor with an incoming edge
            ("fed", ("anchor", "anchor", "target"), ((0, 1), (1, 2))),
        ],
    )
    def test_invariant_violations_rejected(self, name, roles, edges):
        with pytest.raises(ValueError, match=name):
            QueryTemplate(name, roles, edges)

    def test_arity_mismatch(self, kg_t):
        with pytest.raises(ArityError):
            instantiate("2-inter", [kg_t.entity_id("Alice")], [0, 0])
        with pytest.raises(ArityError):
            instantiate("1-chain", [0], [0, 1])

    def test_instantiate_shapes(self, kg_t):
        q = instantiate("2-inter", [0, 1], [0, 0])
        assert q.shape.num_anchors == 2
        assert len(q.edge_list()) == 2
        q = instantiate("1-chain", [kg_t.entity_id("Alice")], [kg_t.relation_id("works_on")])
        assert q.edge_list() == [(0, kg_t.relation_id("works_on"), 1)]


class TestExecute:
    def test_two_anchor_chain_intersection(self, kg_t):
        q = q_works_topic_project(kg_t)
        assert execute(kg_t, q) == {kg_t.entity_id("P1"), kg_t.entity_id("P2")}

    def test_1chain(self, kg_t):
        q = instantiate(
            "1-chain", [kg_t.entity_id("Alice")], [kg_t.relation_id("works_on")]
        )
        assert execute(kg_t, q) == {kg_t.entity_id("T1")}

    def test_1chain_no_answers(self, kg_t):
        q = instantiate(
            "1-chain", [kg_t.entity_id("P1")], [kg_t.relation_id("works_on")]
        )
        assert execute(kg_t, q) == frozenset()

    def test_unknown_ids_rejected(self, kg_t):
        with pytest.raises(KeyError):
            execute(kg_t, instantiate("1-chain", [999], [0]))
        with pytest.raises(KeyError):
            execute(kg_t, instantiate("1-chain", [0], [999]))

    def test_monotone_under_edge_addition(self, kg_t):
        q = instantiate(
            "2-chain",
            [kg_t.entity_id("Alice")],
            [kg_t.relation_id("works_on"), kg_t.relation_id("related")],
        )
        before = execute(kg_t, q)
        triples = [
            (kg_t.entity_labels[h], kg_t.relation_labels[r], kg_t.entity_labels[t])
            for h, r, t in kg_t.edges
        ]
        bigger = build_graph(triples + [("Alice", "works_on", "T2")], None)
        q2 = instantiate(
            "2-chain",
            [bigger.entity_id("Alice")],
            [bigger.relation_id("works_on"), bigger.relation_id("related")],
        )
        after = {bigger.entity_labels[t] for t in execute(bigger, q2)}
        assert {kg_t.entity_labels[t] for t in before} <= after


class TestRelaxed:
    def test_relaxed_superset(self, kg_t):
        q = q_works_topic_project(kg_t)
        relaxed = execute_relaxed(kg_t, q)
        assert relaxed == {
            kg_t.entity_id("P1"),
            kg_t.entity_id("P2"),
            kg_t.entity_id("P3"),
        }

    def test_hard_negative_pool(self, kg_t):
        q = q_works_topic_project(kg_t)
        pool = execute_relaxed(kg_t, q) - execute(kg_t, q)
        assert pool == {kg_t.entity_id("P3")}

    def test_relaxed_on_chain_rejected(self, kg_t):
        q = instantiate(
            "1-chain", [kg_t.entity_id("Alice")], [kg_t.relation_id("works_on")]
        )
        with pytest.raises(UnsupportedTemplateError):
            execute_relaxed(kg_t, q)

    def test_strict_subset_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            kg = random_graph(rng, 20, 3, 60)
            for name in ("2-inter", "3-inter", "3-inter-chain", "3-chain-inter"):
                tpl = TEMPLATES[name]
                q = instantiate(
                    name,
                    rng.integers(0, kg.num_entities, size=tpl.num_anchors),
                    rng.integers(0, kg.num_relations, size=tpl.num_edges),
                )
                assert execute(kg, q) <= execute_relaxed(kg, q)


    def test_union_of_anchor_chains(self):
        """On an in-tree the relaxed answers are the union, over anchors, of
        the chain query along each anchor's path to the target."""
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(5, 20))
            kg = random_graph(rng, n, int(rng.integers(1, 4)), 4 * n)
            for name in INTERSECTION_TEMPLATES:
                tpl = TEMPLATES[name]
                q = instantiate(
                    name,
                    rng.integers(0, kg.num_entities, size=tpl.num_anchors),
                    rng.integers(0, kg.num_relations, size=tpl.num_edges),
                )
                out_edge = {s: (d, r) for (s, d), r in zip(tpl.edges, q.relations)}
                union: set[int] = set()
                for node, anchor in zip(tpl.anchor_nodes, q.anchors):
                    relations = []
                    while node != tpl.target_node:
                        node, r = out_edge[node]
                        relations.append(r)
                    chain = instantiate(f"{len(relations)}-chain", [anchor], relations)
                    union |= execute_by_enumeration(kg, chain)
                assert execute_relaxed(kg, q) == union, (name, q.anchors, q.relations)


class TestOracleAgreement:
    """execute() against blind cross-product enumeration, small graphs."""

    def test_all_templates_random_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(15):
            n = int(rng.integers(5, 25))
            kg = random_graph(rng, n, int(rng.integers(1, 4)), 4 * n)
            for name in TEMPLATE_NAMES:
                tpl = TEMPLATES[name]
                q = instantiate(
                    name,
                    rng.integers(0, kg.num_entities, size=tpl.num_anchors),
                    rng.integers(0, kg.num_relations, size=tpl.num_edges),
                )
                assert execute(kg, q) == execute_by_enumeration(kg, q), (
                    name,
                    q.anchors,
                    q.relations,
                )


class TestInstanceSerialization:
    def test_roundtrip(self, kg_t):
        q = q_works_topic_project(kg_t)
        inst = QueryInstance(
            query=q,
            targets=execute(kg_t, q),
            negatives=(kg_t.entity_id("Alice"), kg_t.entity_id("T2")),
            hard_negatives=(kg_t.entity_id("P3"),),
            split="train",
            witness_edges=(kg_t.edges[0],),
        )
        line = instance_to_json(inst, kg_t)
        back = instance_from_json(line, kg_t)
        assert back.query == inst.query
        assert back.targets == inst.targets
        assert back.negatives == inst.negatives
        assert back.hard_negatives == inst.hard_negatives
        assert back.split == inst.split
        # witness edges are sampling metadata, not part of the wire format
        assert back.witness_edges == ()
        assert instance_to_json(back, kg_t) == line

    def test_type_hints_roundtrip(self, kg_t):
        q = instantiate(
            "1-chain",
            [kg_t.entity_id("Alice")],
            [kg_t.relation_id("works_on")],
            var_types=[
                kg_t.entity_types[kg_t.entity_id("Alice")],
                kg_t.entity_types[kg_t.entity_id("T1")],
            ],
        )
        inst = QueryInstance(
            query=q,
            targets=frozenset({kg_t.entity_id("T1")}),
            negatives=(),
            hard_negatives=(),
            split="test",
        )
        back = instance_from_json(instance_to_json(inst, kg_t), kg_t)
        assert back.query.var_types == q.var_types

    def test_invariants_enforced(self, kg_t):
        q = instantiate("1-chain", [0], [0])
        with pytest.raises(ValueError):
            QueryInstance(q, frozenset(), (), (), "train")
        with pytest.raises(ValueError):
            QueryInstance(q, frozenset({1}), (1,), (), "train")
        with pytest.raises(ValueError):
            QueryInstance(q, frozenset({1}), (), (), "nope")
