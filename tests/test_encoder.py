"""Tests for the message-passing box encoder."""

from dataclasses import replace

import numpy as np
import pytest

from boxquery import autodiff as ad
from boxquery import encoder
from boxquery.boxes import box_distance_t
from boxquery.encoder import (
    AGGREGATIONS,
    ConfigurationError,
    aggregate,
    encode,
    encode_many,
    init_parameters,
    message_pass,
    node_features,
    query_messages,
)
from boxquery.queries import TEMPLATES, instantiate
from boxquery.sampling import SamplerConfig, generate_datasets, split_edges
from boxquery.synthetic import hub_graph, random_graph, toy_collaboration_graph
from boxquery.training import TrainConfig, train


@pytest.fixture(scope="module")
def kg():
    return toy_collaboration_graph()


@pytest.fixture()
def store(kg):
    return init_parameters(kg, dim=4, layers=3, seed=11)


class TestInit:
    def test_table_shapes(self, kg, store):
        assert store.entity_embeddings.shape == (kg.num_entities, 8)
        # one extra row for untyped nodes
        assert store.type_embeddings.shape == (kg.num_types + 1, 8)

    def test_weight_names_cover_layers_relations_directions(self, kg, store):
        names = set(store.names())
        for layer in (1, 2, 3):
            assert f"msg{layer}_self" in names
            for r in range(kg.num_relations):
                assert f"msg{layer}_rel{r}_fwd" in names
                assert f"msg{layer}_rel{r}_inv" in names
        expected = 2 + 3 * (1 + 2 * kg.num_relations)
        assert len(names) == expected

    def test_mlp_weights_only_when_requested(self, kg):
        plain = init_parameters(kg, dim=4, layers=2, seed=0, aggregation="sum")
        withmlp = init_parameters(kg, dim=4, layers=2, seed=0, aggregation="mlp")
        assert "mlp_w1" not in plain.tensors
        assert {"mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"} <= set(withmlp.names())

    def test_center_and_offset_init_statistics(self):
        rng = np.random.default_rng(3)
        big = random_graph(rng, n_entities=2500, n_relations=3, n_edges=5000)
        ps = init_parameters(big, dim=8, layers=1, seed=5)
        table = ps.entity_embeddings.data
        centers, offsets = table[:, :8], table[:, 8:]
        n = centers.size
        # U(0, 10) has mean 5 and sd sqrt(100/12); N(3, 1) has mean 3, sd 1
        assert abs(centers.mean() - 5.0) < 3 * np.sqrt(100 / 12) / np.sqrt(n)
        assert abs(offsets.mean() - 3.0) < 3 * 1.0 / np.sqrt(n)
        assert centers.min() >= 0.0 and centers.max() <= 10.0

    def test_deterministic_per_seed(self, kg):
        a = init_parameters(kg, dim=4, layers=2, seed=9)
        b = init_parameters(kg, dim=4, layers=2, seed=9)
        c = init_parameters(kg, dim=4, layers=2, seed=10)
        for name in a.names():
            np.testing.assert_array_equal(a[name].data, b[name].data)
        assert not np.array_equal(a["msg1_self"].data, c["msg1_self"].data)

    @pytest.mark.parametrize(
        "kwargs",
        [{"dim": 0}, {"layers": 0}, {"aggregation": "median"}],
    )
    def test_rejects_bad_config(self, kg, kwargs):
        (key,) = kwargs
        with pytest.raises(ConfigurationError, match=f"^{key}: "):
            init_parameters(kg, seed=0, **kwargs)

    # the toy graph has 7 entities, 3 named types and 2 relations; the
    # store is dim 4 (8-wide tables) with 3 layers
    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"dim": 3}, r"^dim: entity_embeddings is 7x8, but dim 3 calls for 7x6$"),
            ({"num_entities": 8}, r"^num_entities: entity_embeddings is 7x8, but num_entities 8"),
            ({"num_types": 2}, r"^num_types: type_embeddings is 4x8, but num_types 2 calls for 3x8"),
            ({"layers": 4}, r"^tensors: lacks the tensor 'msg4_self'$"),
            ({"num_relations": 3}, r"^tensors: lacks the tensor 'msg1_rel2_fwd'$"),
            ({"aggregation": "mlp"}, r"^tensors: lacks the tensor 'mlp_w1'$"),
            ({"layers": 0}, r"^layers: must be >= 1$"),
            ({"aggregation": "median"}, r"^aggregation: must be one of"),
        ],
        ids=["dim", "num_entities", "num_types", "layers", "num_relations", "mlp",
             "no_layers", "median"],
    )
    def test_store_rejects_a_shape_its_tensors_contradict(self, store, change, problem):
        with pytest.raises(ConfigurationError, match=problem):
            replace(store, **change)

    def test_entity_boxes_clamp_offsets(self, kg, store):
        store.entity_embeddings.data[0, 4:] = -1.0
        centers, offsets = store.entity_boxes()
        assert offsets.min() >= 0.0
        np.testing.assert_array_equal(centers[0], store.entity_embeddings.data[0, :4])
        box = store.entity_box(0)
        np.testing.assert_array_equal(box.offset, np.zeros(4))


class TestNodeFeatures:
    def test_anchor_nodes_copy_entity_rows(self, kg, store):
        alice = kg.entity_id("Alice")
        q = instantiate("1-chain", [alice], [kg.relation_id("works_on")])
        states = node_features([q], store)
        np.testing.assert_array_equal(states[0].data[0], store.entity_embeddings.data[alice])

    def test_untyped_fallback_for_variables(self, kg, store):
        q = instantiate("1-chain", [0], [0])
        states = node_features([q], store)
        np.testing.assert_array_equal(
            states[1].data[0], store.type_embeddings.data[kg.num_types]
        )

    def test_type_hint_selects_type_row(self, kg, store):
        person = kg.type_labels.index("person")
        topic = kg.type_labels.index("topic")
        q = instantiate("1-chain", [0], [0], var_types=[person, topic])
        states = node_features([q], store)
        np.testing.assert_array_equal(states[1].data[0], store.type_embeddings.data[topic])


class TestMessagePass:
    def test_shapes_preserved(self, kg, store):
        q = instantiate("3-inter-chain", [0, 1], [0, 1, 0])
        states = node_features([q], store)
        out = message_pass(states, query_messages([q]), store, 1, False, range(4))
        assert len(out) == 4
        assert all(s.shape == (1, 8) for s in out)

    def test_hidden_layers_are_nonnegative(self, kg, store):
        q = instantiate("2-chain", [0], [0, 1])
        states = message_pass(
            node_features([q], store), query_messages([q]), store, 1, False, range(3)
        )
        assert all(s.data.min() >= 0.0 for s in states)

    def test_last_layer_is_linear(self, kg):
        # with ReLU the all-negative self weight would be clipped to zero
        ps = init_parameters(kg, dim=2, layers=1, seed=0)
        ps["msg1_self"].data[:] = -np.eye(4)
        q = instantiate("1-chain", [0], [0])
        states = node_features([q], ps)
        out = message_pass(states, query_messages([q]), ps, 1, True, range(2))
        assert out[1].data.min() < 0.0

    def test_layer_index_bounds(self, kg, store):
        q = instantiate("1-chain", [0], [0])
        states = node_features([q], store)
        with pytest.raises(ConfigurationError):
            message_pass(states, query_messages([q]), store, 4, False, range(2))
        with pytest.raises(ConfigurationError):
            message_pass(states, query_messages([q]), store, 0, False, range(2))

    def test_fan_in_messages_are_mean_normalized(self, kg):
        # two anchors sending over the same relation must average, not add:
        # doubling into a shared target with identical states equals one message
        ps = init_parameters(kg, dim=3, layers=1, seed=2)
        same = instantiate("2-inter", [0, 0], [1, 1])
        single = instantiate("1-chain", [0], [1])
        s2 = message_pass(
            node_features([same], ps), query_messages([same]), ps, 1, True, range(3)
        )
        s1 = message_pass(
            node_features([single], ps), query_messages([single]), ps, 1, True, range(2)
        )
        np.testing.assert_allclose(
            s2[same.shape.target_node].data, s1[1].data, rtol=1e-12
        )

    def test_planned_messages_match_per_call_lists_bitwise(self):
        # the message lists and mean counts built on every call, as before
        # the per-template plan; repeated relation ids share a count
        def per_call(states, q, ps, layer, last):
            incoming = [[] for _ in range(q.shape.num_nodes)]
            for s, r, d in q.edge_list():
                incoming[d].append((s, r, "fwd"))
                incoming[s].append((d, r, "inv"))
            out = []
            for node, entries in enumerate(incoming):
                acc = ad.matmul(states[node], ps.self_weight(layer))
                counts = {}
                for _, r, way in entries:
                    counts[(r, way)] = counts.get((r, way), 0) + 1
                for src, r, way in entries:
                    msg = ad.matmul(states[src], ps.relation_weight(layer, r, way))
                    acc = acc + msg * (1.0 / counts[(r, way)])
                out.append(acc if last else ad.relu(acc))
            return out

        kg = random_graph(np.random.default_rng(0), n_entities=12, n_relations=3, n_edges=30)
        ps = init_parameters(kg, dim=3, layers=2, seed=4)
        rng = np.random.default_rng(1)
        for name, tpl in TEMPLATES.items():
            for trial in range(6):
                # half the trials draw every relation id the same
                rels = [1] * tpl.num_edges if trial % 2 else rng.integers(0, 3, tpl.num_edges).tolist()
                q = instantiate(name, rng.integers(0, 12, tpl.num_anchors).tolist(), rels)
                for last in (False, True):
                    states = node_features([q], ps)
                    got = message_pass(
                        states, query_messages([q]), ps, 2, last, range(tpl.num_nodes)
                    )
                    want = per_call(states, q, ps, 2, last)
                    assert [t.data.tobytes() for t in got] == [t.data.tobytes() for t in want]


class TestAggregate:
    def _states(self, values):
        return [ad.tensor(np.array([v], dtype=float)) for v in values]

    def test_sum_and_max(self, kg, store):
        q = instantiate("2-inter", [0, 1], [0, 1])
        states = self._states([[1.0, -2.0], [3.0, 1.0], [0.0, 0.5]])
        total = aggregate(states, "sum", q, store)
        best = aggregate(states, "max", q, store)
        np.testing.assert_allclose(total.data, [[4.0, -0.5]])
        np.testing.assert_allclose(best.data, [[3.0, 1.0]])

    def test_tm_reads_target_state(self, kg, store):
        q = instantiate("2-inter", [0, 1], [0, 1])
        states = self._states([[1.0, 0.0], [2.0, 0.0], [7.0, 8.0]])
        np.testing.assert_allclose(aggregate(states, "tm", q, store).data, [[7.0, 8.0]])

    def test_unknown_method(self, kg, store):
        q = instantiate("1-chain", [0], [0])
        with pytest.raises(ConfigurationError):
            aggregate(self._states([[1.0], [2.0]]), "median", q, store)


class TestEncode:
    @pytest.mark.parametrize("method", AGGREGATIONS)
    @pytest.mark.parametrize(
        "template,anchors,relations",
        [
            ("1-chain", [0], [0]),
            ("2-chain", [0], [0, 1]),
            ("3-chain", [0], [0, 1, 0]),
            ("2-inter", [0, 1], [0, 1]),
            ("3-inter", [0, 1, 2], [0, 1, 0]),
            ("3-inter-chain", [0, 1], [0, 1, 0]),
            ("3-chain-inter", [0, 1], [0, 1, 0]),
        ],
    )
    def test_every_template_and_aggregation_yields_a_box(
        self, kg, method, template, anchors, relations
    ):
        ps = init_parameters(kg, dim=4, layers=3, seed=1, aggregation=method)
        enc = encode(instantiate(template, anchors, relations), ps, method)
        assert enc.box.dim == 4
        assert enc.box.offset.min() >= 0.0
        assert enc.center.shape == (1, 4) and enc.offset.shape == (1, 4)
        np.testing.assert_array_equal(enc.box.center, enc.center.data[0])

    def test_encode_is_deterministic(self, kg, store):
        q = instantiate("2-inter", [0, 1], [0, 1])
        a = encode(q, store, "sum")
        b = encode(q, store, "sum")
        np.testing.assert_array_equal(a.box.center, b.box.center)
        np.testing.assert_array_equal(a.box.offset, b.box.offset)

    def test_symmetric_intersection_ignores_anchor_order(self, kg, store):
        ab = encode(instantiate("2-inter", [0, 1], [1, 1]), store, "sum")
        ba = encode(instantiate("2-inter", [1, 0], [1, 1]), store, "sum")
        np.testing.assert_allclose(ab.box.center, ba.box.center, rtol=1e-12)
        np.testing.assert_allclose(ab.box.offset, ba.box.offset, rtol=1e-12)

    def test_tm_runs_query_diameter_steps(self, kg):
        ps = init_parameters(kg, dim=3, layers=3, seed=4)
        chain3 = instantiate("3-chain", [0], [0, 1, 0])
        inter = instantiate("2-inter", [0, 1], [0, 1])
        assert encode(chain3, ps, "tm").box.dim == 3
        assert encode(inter, ps, "tm").box.dim == 3

    def test_tm_needs_enough_layers(self, kg):
        shallow = init_parameters(kg, dim=3, layers=2, seed=4)
        q = instantiate("3-chain", [0], [0, 1, 0])
        with pytest.raises(ConfigurationError):
            encode(q, shallow, "tm")

    def test_mlp_needs_mlp_weights(self, kg, store):
        q = instantiate("1-chain", [0], [0])
        with pytest.raises(ConfigurationError):
            encode(q, store, "mlp")


class TestGradients:
    @pytest.mark.parametrize("method", AGGREGATIONS)
    def test_finite_difference_through_full_encode(self, kg, method):
        ps = init_parameters(kg, dim=4, layers=3, seed=23, aggregation=method)
        q = instantiate("3-chain-inter", [0, 1], [0, 1, 1])
        entity_rows = [2, 5]

        def run():
            enc = encode(q, ps, method)
            rows = ad.gather_rows(ps.entity_embeddings, entity_rows)
            e_center = ad.slice_cols(rows, 0, 4)
            e_offset = ad.relu(ad.slice_cols(rows, 4, 8))
            dist = box_distance_t(enc.center, enc.offset, e_center, e_offset, alpha=0.02)
            return ad.mean_all(dist)

        err = ad.finite_diff_check(run, ps.parameters())
        assert err < 1e-4, f"{method}: max relative gradient error {err}"


class TestEncodeMany:
    """The batched encode against one query at a time, bit for bit."""

    @staticmethod
    def _queries(name, kg, rng, count=6):
        """Queries of one template: the first repeats one relation id on
        every edge (the 1/count path of intersections), half carry type
        hints, some of them past the table's last type."""
        tpl = TEMPLATES[name]
        queries = []
        for i in range(count):
            rels = [1] * tpl.num_edges if i == 0 else rng.integers(
                0, kg.num_relations, tpl.num_edges).tolist()
            types = None if i % 2 else rng.integers(0, kg.num_types + 2, tpl.num_nodes).tolist()
            anchors = rng.integers(0, kg.num_entities, tpl.num_anchors).tolist()
            queries.append(instantiate(name, anchors, rels, var_types=types))
        return queries

    @pytest.mark.parametrize("dim", [4, 32])
    @pytest.mark.parametrize("method", AGGREGATIONS)
    def test_rows_match_encode_bitwise(self, method, dim):
        kg = random_graph(np.random.default_rng(5), n_entities=30, n_relations=3,
                          n_edges=80, n_types=2)
        ps = init_parameters(kg, dim=dim, layers=3, seed=2, aggregation=method)
        rng = np.random.default_rng(dim)
        for name in TEMPLATES:
            queries = self._queries(name, kg, rng)
            centers, offsets = encode_many(queries, ps)
            assert centers.shape == offsets.shape == (len(queries), dim)
            for q, center, offset in zip(queries, centers, offsets):
                box = encode(q, ps).box
                assert center.tobytes() == box.center.tobytes(), (name, q)
                assert offset.tobytes() == box.offset.tobytes(), (name, q)

    def test_records_no_graph(self, kg, store):
        queries = [instantiate("2-chain", [a], [0, 1]) for a in range(3)]
        centers, offsets = encode_many(queries, store)
        assert isinstance(centers, np.ndarray) and isinstance(offsets, np.ndarray)
        assert encode(queries[0], store).center._parents  # recording again after

    def test_rejects_mixed_templates_and_empty_lists(self, kg, store):
        mixed = [instantiate("1-chain", [0], [0]), instantiate("2-chain", [0], [0, 1])]
        with pytest.raises(ConfigurationError, match="one template"):
            encode_many(mixed, store)
        with pytest.raises(ValueError):
            encode_many([], store)


class TestTargetCone:
    """Under ``tm`` a step updates only the nodes its later steps read."""

    # per template, the nodes each tm step updates in a 3-layer store
    CONES = {
        "1-chain": [[1]],
        "2-chain": [[1, 2], [2]],
        "3-chain": [[1, 2, 3], [2, 3], [3]],
        "2-inter": [[2]],
        "3-inter": [[3]],
        "3-inter-chain": [[0, 2, 3], [3]],
        "3-chain-inter": [[2, 3], [3]],
    }

    @staticmethod
    def full_update(monkeypatch):
        """Make every tm step update every node, as before the cone."""
        for name, tpl in TEMPLATES.items():
            monkeypatch.setitem(encoder._TARGET_RINGS, name, (tuple(range(tpl.num_nodes)),))

    @staticmethod
    def queries(name, rng, count=5):
        tpl = TEMPLATES[name]
        out = []
        for i in range(count):
            # every other query repeats one relation id on all its edges
            rels = [2] * tpl.num_edges if i % 2 else rng.integers(0, 3, tpl.num_edges).tolist()
            out.append(instantiate(name, rng.integers(0, 12, tpl.num_anchors).tolist(), rels))
        return out

    def test_encode_and_encode_many_keep_their_bits(self, monkeypatch):
        kg = random_graph(np.random.default_rng(0), n_entities=12, n_relations=3, n_edges=30)
        ps = init_parameters(kg, dim=3, layers=3, seed=4, aggregation="tm")
        rng = np.random.default_rng(1)
        batches = {name: self.queries(name, rng) for name in TEMPLATES}

        def run():
            boxes = {name: [encode(q, ps).box for q in qs] for name, qs in batches.items()}
            single = {name: [(b.center.tobytes(), b.offset.tobytes()) for b in bs]
                      for name, bs in boxes.items()}
            many = {name: [a.tobytes() for a in encode_many(qs, ps)]
                    for name, qs in batches.items()}
            return single, many

        cone = run()
        with monkeypatch.context() as m:
            self.full_update(m)
            full = run()
        assert cone == full

    def test_training_keeps_its_bits(self, monkeypatch):
        kg = hub_graph(np.random.default_rng(3), n_entities=300, n_relations=3)
        split = split_edges(kg, 0.10, seed=3)
        cfg = SamplerConfig(quotas={name: 8 for name in TEMPLATES}, seed=3)
        instances, _ = generate_datasets(kg, split, cfg)
        assert {inst.query.template for inst in instances} == set(TEMPLATES)
        assert any(len(set(inst.query.relations)) < len(inst.query.relations)
                   for inst in instances)
        datasets = {"train": instances, "val": [], "test": []}
        tc = TrainConfig(aggregation="tm", dim=4, layers=3, max_steps=50, seed=0)
        cone = train(kg, datasets, tc)
        with monkeypatch.context() as m:
            self.full_update(m)
            full = train(kg, datasets, tc)
        assert cone.steps == full.steps == 50
        assert [p.data.tobytes() for p in cone.ps.parameters()] == [
            p.data.tobytes() for p in full.ps.parameters()
        ]
        assert [row.train_loss for row in cone.history] == [row.train_loss for row in full.history]

    def _updated_nodes(self, monkeypatch, aggregation):
        kg = random_graph(np.random.default_rng(0), n_entities=12, n_relations=3, n_edges=30)
        ps = init_parameters(kg, dim=3, layers=3, seed=4, aggregation=aggregation)
        rng = np.random.default_rng(2)
        updated = {}
        real = encoder.message_pass

        def spy(*args):
            out = real(*args)
            updated[current].append([node for node, s in enumerate(out) if s is not None])
            return out

        monkeypatch.setattr(encoder, "message_pass", spy)
        for current in TEMPLATES:
            updated[current] = []
            encode_many(self.queries(current, rng, count=2), ps)
        return updated

    def test_nodes_outside_the_cone_are_not_computed(self, monkeypatch):
        assert self._updated_nodes(monkeypatch, "tm") == self.CONES

    def test_other_aggregations_update_every_node(self, monkeypatch):
        for aggregation in ("sum", "max", "mlp"):
            updated = self._updated_nodes(monkeypatch, aggregation)
            assert updated == {name: [list(range(tpl.num_nodes))] * 3
                               for name, tpl in TEMPLATES.items()}
