"""Tests for classification metrics, pairwise ranking, and reports."""

import numpy as np
import pytest

from boxquery.boxes import distance_outside, random_box
from boxquery.encoder import init_parameters
from boxquery.evaluation import (
    ConfusionMatrix,
    classify,
    classify_box,
    confusion,
    emit_report,
    evaluate,
    _pair_wins,
    load_report,
    pairwise_accuracy,
)
from boxquery.queries import TEMPLATE_NAMES, execute, instantiate
from boxquery.sampling import SamplerConfig, generate_datasets, split_edges
from boxquery.synthetic import hub_graph, toy_collaboration_graph


@pytest.fixture(scope="module")
def kg():
    return toy_collaboration_graph()


class TestConfusion:
    def test_hand_example(self):
        c = confusion({0, 1}, {1, 2}, universe=5)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 2)

    def test_perfect_prediction(self):
        c = confusion({3, 4}, {3, 4}, universe=6)
        assert c.fp == 0 and c.fn == 0 and c.tp == 2 and c.tn == 4

    def test_empty_prediction(self):
        c = confusion(set(), {1, 2, 3}, universe=5)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 3, 2)

    def test_counts_partition_universe(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            universe = int(rng.integers(1, 40))
            predicted = set(rng.integers(0, universe, size=10).tolist())
            truth = set(rng.integers(0, universe, size=10).tolist())
            assert confusion(predicted, truth, universe).total == universe

    def test_out_of_universe_id_rejected(self):
        with pytest.raises(ValueError):
            confusion({7}, {1}, universe=5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1)

    def test_rates(self):
        c = ConfusionMatrix(tp=1, fp=1, fn=1, tn=2)
        assert c.precision == 0.5 and c.recall == 0.5 and c.f1 == 0.5
        skew = ConfusionMatrix(tp=2, fp=0, fn=2, tn=0)
        # harmonic mean of precision 1.0 and recall 0.5
        assert abs(skew.f1 - 2 / 3) < 1e-12
        assert ConfusionMatrix().precision == 0.0
        assert ConfusionMatrix().f1 == 0.0

    def test_accumulation(self):
        total = ConfusionMatrix(1, 2, 3, 4) + ConfusionMatrix(10, 20, 30, 40)
        assert (total.tp, total.fp, total.fn, total.tn) == (11, 22, 33, 44)


class TestClassifyBox:
    def test_overlap_decides_membership(self):
        # entity v against three query boxes: inside A, touching B, outside C
        v_center, v_offset = np.array([0.0]), np.array([0.5])
        queries = {
            "A": (np.array([0.4]), np.array([0.2])),
            "B": (np.array([1.0]), np.array([0.5])),
            "C": (np.array([2.0]), np.array([0.4])),
        }
        verdict = {
            name: bool(
                classify_box(c, o, v_center[None, :], v_offset[None, :])[0]
            )
            for name, (c, o) in queries.items()
        }
        assert verdict == {"A": True, "B": True, "C": False}

    def test_matches_zero_outside_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = random_box(rng, dim=3)
            b = random_box(rng, dim=3)
            mask = classify_box(
                a.center, a.offset, b.center[None, :], b.offset[None, :]
            )[0]
            assert bool(mask) == (distance_outside(a, b) == 0.0)


class TestClassify:
    def test_far_point_query_predicts_nothing(self, kg):
        ps = init_parameters(kg, dim=2, layers=1, seed=0)
        table = ps.entity_embeddings.data
        table[:, :2] = 0.0
        table[:, 2:] = 1.0
        q = instantiate("1-chain", [0], [0])
        # plant the encoder output far away by zeroing every weight except
        # a bias-free self map; easier: check against hand-built stores via
        # the mask directly
        far = classify_box(
            np.array([100.0, 100.0]), np.array([0.0, 0.0]), table[:, :2], table[:, 2:]
        )
        assert not far.any()

    def test_all_inclusive_query_predicts_everything(self, kg):
        ps = init_parameters(kg, dim=2, layers=1, seed=0)
        centers, offsets = ps.entity_boxes()
        hull = classify_box(
            np.zeros(2), np.full(2, 1e6), centers, offsets
        )
        assert hull.all()

    def test_classify_agrees_with_manual_scan(self, kg):
        ps = init_parameters(kg, dim=3, layers=2, seed=7)
        q = instantiate("2-inter", [0, 1], [0, 1])
        predicted = classify(ps, q, "sum")
        centers, offsets = ps.entity_boxes()
        from boxquery.encoder import encode

        enc = encode(q, ps, "sum")
        manual = {
            e
            for e in range(kg.num_entities)
            if np.all(np.abs(centers[e] - enc.box.center) <= offsets[e] + enc.box.offset)
        }
        assert predicted == manual


class TestPairwiseAccuracy:
    def test_hand_example(self):
        assert pairwise_accuracy([1.0, 3.0], [2.0, 4.0]) == 75.0

    def test_perfect_ordering(self):
        assert pairwise_accuracy([0.1, 0.2], [5.0, 9.0]) == 100.0

    def test_single_tie_scores_half(self):
        assert pairwise_accuracy([2.0], [2.0]) == 50.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.normal(size=6).tolist()
            b = rng.normal(size=4).tolist()
            assert pairwise_accuracy(a, b) + pairwise_accuracy(b, a) == pytest.approx(100.0)

    def test_positive_scaling_invariance(self):
        a = [0.5, 1.5, 2.0]
        b = [1.0, 1.5, 4.0]
        assert pairwise_accuracy(a, b) == pairwise_accuracy(
            [3.7 * x for x in a], [3.7 * x for x in b]
        )

    def test_sort_count_matches_comparison_matrix(self):
        # half-integer draws from a few values give many ties; some trials
        # put NaN on both sides
        rng = np.random.default_rng(5)
        for trial in range(60):
            pos = rng.integers(0, 6, size=rng.integers(1, 9)) / 2.0
            neg = rng.integers(0, 6, size=rng.integers(1, 40)) / 2.0
            if trial % 4 == 0:
                pos[0] = neg[-1] = np.nan
            closer = (pos[:, None] < neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            assert _pair_wins(pos, neg) == float(closer) + 0.5 * float(ties)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            pairwise_accuracy([], [1.0])
        with pytest.raises(ValueError):
            pairwise_accuracy([1.0], [])


@pytest.fixture(scope="module")
def hub_eval_data():
    hub = hub_graph(np.random.default_rng(3), n_entities=250, n_relations=4)
    split = split_edges(hub, 0.10, seed=1)
    cfg = SamplerConfig(
        quotas={"1-chain": 40, "2-chain": 20, "2-inter": 20}, seed=1
    )
    instances, manifest = generate_datasets(hub, split, cfg)
    return hub, instances, manifest


class TestEvaluate:
    def test_report_always_has_all_seven_template_rows(self, hub_eval_data):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        report = evaluate(ps, instances, method="sum")
        assert list(report.templates) == list(TEMPLATE_NAMES)
        assert report.templates["3-inter"]["queries"] == 0
        assert report.templates["3-inter"]["pairwise"] is None

    def test_empty_split_rejected(self, hub_eval_data):
        hub, _, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        with pytest.raises(ValueError):
            evaluate(ps, [])

    def test_unknown_mode_rejected(self, hub_eval_data):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        with pytest.raises(ValueError):
            evaluate(ps, instances, mode="fancy")

    def test_confusion_partitions_universe_per_query(self, hub_eval_data):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        report = evaluate(ps, instances, mode="classification")
        for name in TEMPLATE_NAMES:
            row = report.templates[name]
            conf = row["confusion"]
            assert sum(conf.values()) == hub.num_entities * row["queries"]
        assert report.overall["pairwise"] is None
        assert "confusion" in report.overall

    def test_ranking_mode_uses_stored_negatives(self, hub_eval_data):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        report = evaluate(ps, instances, mode="ranking")
        for inst in instances:
            row = report.templates[inst.query.template]
            assert row["confusion"] is None
        one_chain = [i for i in instances if i.query.template == "1-chain"]
        pairs = sum(
            len(i.targets) * (len(i.negatives) + len(i.hard_negatives))
            for i in one_chain
        )
        assert report.templates["1-chain"]["pairs"] == pairs
        assert report.templates["1-chain"]["mean_negative_pool"] == pytest.approx(
            sum(len(i.negatives) + len(i.hard_negatives) for i in one_chain)
            / len(one_chain)
        )

    def test_full_ranking_flag_scans_all_non_answers(self, hub_eval_data):
        hub, instances, _ = hub_eval_data
        some = [i for i in instances if i.query.template == "1-chain"][:3]
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        report = evaluate(ps, some, mode="ranking", full_ranking=True)
        pairs = sum(
            len(i.targets) * (hub.num_entities - len(i.targets)) for i in some
        )
        assert report.templates["1-chain"]["pairs"] == pairs

    def test_random_init_ranks_near_chance(self, hub_eval_data):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=8, layers=2, seed=13)
        report = evaluate(ps, instances, mode="ranking")
        assert 35.0 < report.overall["pairwise"] < 65.0

    def test_manifest_hash_recorded(self, hub_eval_data):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        report = evaluate(ps, instances[:5], manifest_hash="abc123")
        assert report.manifest_hash == "abc123"

    def test_truth_is_the_stored_target_set(self, hub_eval_data):
        # force a degenerate model that predicts everything, so fn = 0 and
        # tp recovers exactly the stored full-graph answer sets
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=2, layers=1, seed=0)
        ps.entity_embeddings.data[:, 2:] = 1e9
        some = instances[:4]
        report = evaluate(ps, some, mode="classification")
        tp = sum(
            report.templates[n]["confusion"]["tp"] for n in TEMPLATE_NAMES
        )
        assert tp == sum(len(i.targets) for i in some)
        fn = sum(
            report.templates[n]["confusion"]["fn"] for n in TEMPLATE_NAMES
        )
        assert fn == 0
        for inst in some:
            assert inst.targets == execute(hub, inst.query)


class TestReports:
    def test_json_round_trip_is_byte_identical(self, hub_eval_data, tmp_path):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        report = evaluate(ps, instances, manifest_hash="deadbeef")
        first = tmp_path / "report.json"
        second = tmp_path / "again.json"
        emit_report(report, first, "json")
        emit_report(load_report(first), second, "json")
        assert first.read_bytes() == second.read_bytes()

    def test_csv_has_one_row_per_template_metric(self, hub_eval_data, tmp_path):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        report = evaluate(ps, instances)
        path = emit_report(report, tmp_path / "report.csv", "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "template,metric,value"
        # 7 plain metrics + 4 confusion cells per template
        assert len(lines) == 1 + len(TEMPLATE_NAMES) * 11

    def test_unknown_format_rejected(self, hub_eval_data, tmp_path):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        report = evaluate(ps, instances[:2])
        with pytest.raises(ValueError):
            emit_report(report, tmp_path / "report.xml", "xml")
