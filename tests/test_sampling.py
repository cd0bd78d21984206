"""Tests for edge splits, query sampling, and negative sampling."""

import logging

import numpy as np
import pytest

from boxquery.queries import (
    TEMPLATES,
    QueryInstance,
    execute,
    execute_relaxed,
    instantiate,
)
from boxquery.sampling import (
    EdgeSplit,
    Rejection,
    SamplerConfig,
    assign_split,
    generate_datasets,
    load_datasets,
    sample_negatives,
    sample_query,
    split_edges,
    write_datasets,
)
from boxquery.synthetic import hub_graph, toy_collaboration_graph


@pytest.fixture(scope="module")
def kg():
    return toy_collaboration_graph()


@pytest.fixture(scope="module")
def hub():
    return hub_graph(np.random.default_rng(7), n_entities=300, n_relations=4)


def sample_until_accepted(kg, template, split, cfg, rng, tries=500):
    for _ in range(tries):
        out = sample_query(kg, template, split, cfg, rng)
        if isinstance(out, QueryInstance):
            return out
    raise AssertionError(f"no {template} accepted in {tries} tries")


class TestSplitEdges:
    def test_six_edges_at_ten_percent_marks_one(self, kg):
        split = split_edges(kg, fraction=0.10, seed=0)
        assert len(split.removed_edges) == 1  # round(0.6) rounds half up
        assert len(split.train_edges) == 5

    def test_partition_of_edge_set(self, kg):
        split = split_edges(kg, fraction=0.25, seed=3)
        assert split.train_edges | split.removed_edges == kg.edge_set
        assert not split.train_edges & split.removed_edges

    def test_deterministic_per_seed(self, hub):
        a = split_edges(hub, 0.10, seed=5)
        b = split_edges(hub, 0.10, seed=5)
        c = split_edges(hub, 0.10, seed=6)
        assert a.removed_edges == b.removed_edges
        assert a.removed_edges != c.removed_edges

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
    def test_fraction_out_of_range(self, kg, fraction):
        with pytest.raises(ValueError):
            split_edges(kg, fraction=fraction)

    def test_overlapping_sets_rejected(self, kg):
        e = kg.edges[0]
        with pytest.raises(ValueError):
            EdgeSplit(frozenset([e]), frozenset([e]), rng_seed=0)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.max_targets == 100
        assert cfg.negatives_per_query == 10
        assert cfg.hard_negative_fraction == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_targets": 0},
            {"negatives_per_query": -1},
            {"hard_negative_fraction": 1.5},
            {"val_fraction": -0.1},
            {"quotas": {"4-chain": 3}},
            {"quotas": {"1-chain": -1}},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestSampleQuery:
    def test_accepted_one_chain_is_consistent(self, kg):
        split = split_edges(kg, 0.10, seed=1)
        cfg = SamplerConfig()
        rng = np.random.default_rng(0)
        inst = sample_until_accepted(kg, "1-chain", split, cfg, rng)
        assert inst.query.template == "1-chain"
        assert inst.targets == execute(kg, inst.query)
        assert all(e in kg.edge_set for e in inst.witness_edges)
        # the witness tail answers its own query
        assert inst.witness_edges[0][2] in inst.targets

    def test_two_inter_on_toy_graph_always_lands_on_shared_topic(self, kg):
        # T1 is the only entity with two distinct incoming edges, so every
        # accepted 2-inter query must ask for it via both people
        split = split_edges(kg, 0.10, seed=1)
        cfg = SamplerConfig()
        rng = np.random.default_rng(3)
        t1 = kg.entity_id("T1")
        people = {kg.entity_id("Alice"), kg.entity_id("Bob")}
        for _ in range(5):
            inst = sample_until_accepted(kg, "2-inter", split, cfg, rng)
            assert inst.targets == frozenset([t1])
            assert set(inst.query.anchors) == people

    def test_oversize_answer_sets_are_rejected(self, kg):
        split = split_edges(kg, 0.10, seed=1)
        cfg = SamplerConfig(max_targets=1)
        rng = np.random.default_rng(5)
        reasons = set()
        for _ in range(200):
            out = sample_query(kg, "1-chain", split, cfg, rng)
            if isinstance(out, Rejection):
                reasons.add(out.reason)
            else:
                assert len(out.targets) <= 1
        assert "oversize" in reasons

    def test_dead_end_walks_are_rejected_as_disconnected(self):
        from boxquery.graphs import build_graph

        single = build_graph([("a", "r", "b")])
        split = split_edges(single, 0.5, seed=0)
        out = sample_query(
            single, "2-chain", split, SamplerConfig(), np.random.default_rng(0)
        )
        assert isinstance(out, Rejection)
        assert out.reason == "disconnected"

    def test_witness_types_recorded_for_all_nodes(self, kg):
        split = split_edges(kg, 0.10, seed=1)
        rng = np.random.default_rng(11)
        inst = sample_until_accepted(kg, "2-inter", split, SamplerConfig(), rng)
        person = kg.type_labels.index("person")
        topic = kg.type_labels.index("topic")
        assert inst.query.var_types == (person, person, topic)

    def test_shared_node_never_reuses_a_concrete_edge(self, hub):
        split = split_edges(hub, 0.10, seed=2)
        cfg = SamplerConfig()
        rng = np.random.default_rng(9)
        for _ in range(20):
            inst = sample_until_accepted(hub, "3-inter", split, cfg, rng)
            assert len(set(inst.witness_edges)) == 3


class TestAssignSplit:
    def _instance(self, kg, witness):
        q = instantiate("1-chain", [witness[0][0]], [witness[0][1]])
        return QueryInstance(
            query=q,
            targets=frozenset([witness[0][2]]),
            negatives=(),
            hard_negatives=(),
            split="train",
            witness_edges=witness,
        )

    def test_clean_queries_train(self, kg):
        split = EdgeSplit(kg.edge_set, frozenset(), rng_seed=0)
        inst = self._instance(kg, (kg.edges[0],))
        assert assign_split(inst.witness_edges, split, np.random.default_rng(0)) == "train"

    def test_removed_edge_goes_to_val_or_test(self, kg):
        marked = kg.edges[0]
        split = EdgeSplit(kg.edge_set - {marked}, frozenset([marked]), rng_seed=0)
        inst = self._instance(kg, (marked,))
        rng = np.random.default_rng(0)
        edges = inst.witness_edges
        always_val = {assign_split(edges, split, rng, val_fraction=1.0) for _ in range(10)}
        always_test = {assign_split(edges, split, rng, val_fraction=0.0) for _ in range(10)}
        assert always_val == {"val"}
        assert always_test == {"test"}

    def test_val_share_is_about_ten_percent(self, kg):
        marked = kg.edges[0]
        split = EdgeSplit(kg.edge_set - {marked}, frozenset([marked]), rng_seed=0)
        inst = self._instance(kg, (marked,))
        rng = np.random.default_rng(42)
        draws = [assign_split(inst.witness_edges, split, rng) for _ in range(2000)]
        share = draws.count("val") / len(draws)
        assert 0.07 < share < 0.13


class TestSampleNegatives:
    def _target_query_instance(self, kg):
        alice, bob = kg.entity_id("Alice"), kg.entity_id("Bob")
        works, related = kg.relation_id("works_on"), kg.relation_id("related")
        q = instantiate("3-chain-inter", [alice, bob], [works, works, related])
        return QueryInstance(
            query=q,
            targets=execute(kg, q),
            negatives=(),
            hard_negatives=(),
            split="train",
        )

    def test_hard_pool_is_relaxed_minus_strict(self, kg, caplog):
        inst = self._target_query_instance(kg)
        cfg = SamplerConfig(negatives_per_query=10, hard_negative_fraction=0.5)
        with caplog.at_level(logging.WARNING):
            uniform, hard = sample_negatives(kg, inst, cfg, np.random.default_rng(0))
        assert hard == (kg.entity_id("P3"),)
        # only Alice, Bob, T1, T2 remain as candidate negatives
        assert set(uniform) == {
            kg.entity_id(n) for n in ("Alice", "Bob", "T1", "T2")
        }
        assert "non-answers" in caplog.text

    def test_chain_queries_have_no_hard_negatives(self, kg):
        q = instantiate("1-chain", [kg.entity_id("Alice")], [kg.relation_id("works_on")])
        inst = QueryInstance(q, execute(kg, q), (), (), "train")
        uniform, hard = sample_negatives(
            kg, inst, SamplerConfig(negatives_per_query=3), np.random.default_rng(1)
        )
        assert hard == ()
        assert len(uniform) == 3

    def test_negatives_never_contain_targets(self, hub):
        split = split_edges(hub, 0.10, seed=0)
        cfg = SamplerConfig()
        rng = np.random.default_rng(2)
        for template in ("1-chain", "2-inter", "3-chain-inter"):
            inst = sample_until_accepted(hub, template, split, cfg, rng)
            uniform, hard = sample_negatives(hub, inst, cfg, rng)
            assert not (set(uniform) | set(hard)) & inst.targets
            assert len(uniform) + len(hard) == cfg.negatives_per_query

    def test_zero_budget(self, kg):
        inst = self._target_query_instance(kg)
        uniform, hard = sample_negatives(
            kg, inst, SamplerConfig(negatives_per_query=0), np.random.default_rng(0)
        )
        assert uniform == () and hard == ()

    def test_typed_mode_prefers_target_type(self, kg):
        q = instantiate(
            "1-chain",
            [kg.entity_id("Alice")],
            [kg.relation_id("works_on")],
            var_types=[
                kg.type_labels.index("person"),
                kg.type_labels.index("topic"),
            ],
        )
        inst = QueryInstance(q, execute(kg, q), (), (), "train")
        cfg = SamplerConfig(negatives_per_query=1, typed_negatives=True)
        uniform, _ = sample_negatives(kg, inst, cfg, np.random.default_rng(0))
        # T2 is the only other topic, so a budget of one must pick it
        assert uniform == (kg.entity_id("T2"),)

    def test_draws_match_list_based_pools(self, hub):
        # reference: the pools as Python lists over range(N), drawn the same way
        def reference(inst, cfg, rng):
            def draw(pool, count):
                if count <= 0 or not pool:
                    return []
                picked = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
                return [pool[i] for i in picked]

            total, hard = cfg.negatives_per_query, []
            if TEMPLATES[inst.query.template].has_intersection:
                relaxed = execute_relaxed(hub, inst.query)
                want = int(np.floor(cfg.hard_negative_fraction * total + 0.5))
                hard = draw(sorted(relaxed - inst.targets), want)
            excluded = inst.targets | set(hard)
            pool = [e for e in range(hub.num_entities) if e not in excluded]
            if not cfg.typed_negatives:
                return tuple(draw(pool, total - len(hard))), tuple(hard)
            target_type = inst.query.var_types[inst.query.shape.target_node]
            preferred = [e for e in pool if hub.entity_types[e] == target_type]
            rest = [e for e in pool if hub.entity_types[e] != target_type]
            uniform = draw(preferred, total - len(hard))
            uniform += draw(rest, total - len(hard) - len(uniform))
            return tuple(uniform), tuple(hard)

        split = split_edges(hub, 0.10, seed=3)
        rng = np.random.default_rng(9)
        for typed in (False, True):
            cfg = SamplerConfig(negatives_per_query=90, typed_negatives=typed)
            for template in ("1-chain", "2-inter", "3-inter-chain"):
                inst = sample_until_accepted(hub, template, split, cfg, rng)
                state = rng.bit_generator.state
                drawn = sample_negatives(hub, inst, cfg, rng)
                rng.bit_generator.state = state
                assert drawn == reference(inst, cfg, rng)
                assert all(type(e) is int for e in drawn[0] + drawn[1])

    def test_hard_draw_respects_fraction(self, hub):
        split = split_edges(hub, 0.10, seed=0)
        cfg = SamplerConfig(negatives_per_query=10, hard_negative_fraction=0.3)
        rng = np.random.default_rng(8)
        seen = []
        for _ in range(10):
            inst = sample_until_accepted(hub, "2-inter", split, cfg, rng)
            _, hard = sample_negatives(hub, inst, cfg, rng)
            seen.append(len(hard))
            assert len(hard) <= 3
        assert max(seen) == 3  # pool is large enough somewhere


GEN_QUOTAS = {"1-chain": 25, "2-chain": 15, "2-inter": 10, "3-chain-inter": 10}


@pytest.fixture(scope="module")
def generated(hub):
    split = split_edges(hub, 0.10, seed=4)
    cfg = SamplerConfig(quotas=GEN_QUOTAS, seed=4)
    instances, manifest = generate_datasets(hub, split, cfg)
    return split, instances, manifest


class TestGenerateDatasets:
    QUOTAS = GEN_QUOTAS

    def test_quotas_met(self, generated):
        _, instances, _ = generated
        by_template = {}
        for inst in instances:
            by_template[inst.query.template] = by_template.get(inst.query.template, 0) + 1
        assert by_template == self.QUOTAS

    def test_target_cap_respected(self, generated):
        _, instances, _ = generated
        assert all(1 <= len(i.targets) <= 100 for i in instances)

    def test_split_soundness(self, generated):
        split, instances, _ = generated
        for inst in instances:
            touched = any(e in split.removed_edges for e in inst.witness_edges)
            if inst.split == "train":
                assert not touched
            else:
                assert touched

    def test_manifest_reports_counts_and_rule(self, generated):
        _, instances, manifest = generated
        total = sum(
            n for per_split in manifest["counts"].values() for n in per_split.values()
        )
        assert total == len(instances)
        assert manifest["config"]["quotas"] == self.QUOTAS
        assert set(manifest["rejections"]) == set(self.QUOTAS)
        assert "disjunction" in manifest["hard_negative_rule"]
        for per_split in manifest["mean_targets"].values():
            for value in per_split.values():
                assert value >= 1.0

    def test_per_template_streams_are_independent(self, hub):
        split = split_edges(hub, 0.10, seed=4)
        a, _ = generate_datasets(
            hub, split, SamplerConfig(quotas={"1-chain": 5, "2-inter": 5}, seed=4)
        )
        b, _ = generate_datasets(
            hub, split, SamplerConfig(quotas={"1-chain": 2, "2-inter": 5}, seed=4)
        )
        inter_a = [i for i in a if i.query.template == "2-inter"]
        inter_b = [i for i in b if i.query.template == "2-inter"]
        assert inter_a == inter_b

    def test_round_trip_and_byte_determinism(self, hub, tmp_path):
        split = split_edges(hub, 0.10, seed=4)
        cfg = SamplerConfig(quotas={"1-chain": 8, "2-inter": 4}, seed=9)
        for d in ("one", "two"):
            instances, manifest = generate_datasets(hub, split, cfg)
            write_datasets(tmp_path / d, hub, instances, manifest)
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()
        loaded = load_datasets(tmp_path / "one", hub)
        instances, _ = generate_datasets(hub, split, cfg)
        by_split = {"train": [], "val": [], "test": []}
        for inst in instances:
            by_split[inst.split].append(inst)
        for split_name, insts in by_split.items():
            slim = [
                QueryInstance(
                    i.query, i.targets, i.negatives, i.hard_negatives, i.split
                )
                for i in insts
            ]
            assert loaded[split_name] == slim

    def test_unmet_quota_warns_instead_of_failing(self, kg, caplog):
        # the toy graph has no 3-step paths at all
        split = split_edges(kg, 0.10, seed=0)
        cfg = SamplerConfig(quotas={"3-chain": 2}, seed=0)
        with caplog.at_level(logging.WARNING):
            instances, manifest = generate_datasets(kg, split, cfg)
        assert instances == []
        assert "quota" in caplog.text
        assert manifest["rejections"]["3-chain"]["disconnected"] > 0

    def test_missing_dataset_file_raises(self, hub, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_datasets(tmp_path, hub)
