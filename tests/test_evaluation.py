"""Tests for classification metrics, pairwise ranking, and reports."""

import numpy as np
import pytest

from boxquery import autodiff as ad
from boxquery.boxes import DEFAULT_ALPHA, overlaps, separation
from boxquery.encoder import AGGREGATIONS, encode, init_parameters
from boxquery.evaluation import (
    ConfusionMatrix,
    TemplateMetrics,
    classify,
    confusion,
    emit_report,
    evaluate,
    _pair_wins,
    load_report,
    pairwise_accuracy,
)
from boxquery.queries import TEMPLATE_NAMES, QueryInstance, execute, instantiate
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
        far = overlaps(*separation(
            np.array([100.0, 100.0]), np.array([0.0, 0.0]), table[:, :2], table[:, 2:]
        ))
        assert not far.any()

    def test_all_inclusive_query_predicts_everything(self, kg):
        ps = init_parameters(kg, dim=2, layers=1, seed=0)
        centers, offsets = ps.entity_boxes()
        hull = overlaps(*separation(np.zeros(2), np.full(2, 1e6), centers, offsets))
        assert hull.all()

    def test_classify_agrees_with_manual_scan(self, kg):
        ps = init_parameters(kg, dim=3, layers=2, seed=7)
        q = instantiate("2-inter", [0, 1], [0, 1])
        predicted = classify(ps, q, "sum")
        centers, offsets = ps.entity_boxes()
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


def _with_ids(inst, slot, bad):
    """``inst`` with one id of ``slot`` replaced by ``bad``."""
    q = inst.query
    if slot == "anchor":
        q = instantiate(q.template, (bad,) + q.anchors[1:], q.relations)
    elif slot == "relation":
        q = instantiate(q.template, q.anchors, (bad,) + q.relations[1:])
    return QueryInstance(
        q,
        frozenset({bad}) if slot == "target" else inst.targets,
        (bad,) if slot == "negative" else inst.negatives,
        (bad,) if slot == "hard negative" else inst.hard_negatives,
        inst.split,
    )


class TestUnknownIds:
    """Every id ``evaluate`` and ``classify`` read is checked against the store."""

    @pytest.mark.parametrize("mode", ["classification", "ranking", "both"])
    @pytest.mark.parametrize(
        "slot", ["anchor", "target", "negative", "hard negative", "relation"]
    )
    def test_evaluate_rejects_each_kind(self, hub_eval_data, mode, slot):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        kind, count = (
            ("relation", hub.num_relations) if slot == "relation" else ("entity", hub.num_entities)
        )
        for bad in (-1, count):
            rogue = _with_ids(instances[0], slot, bad)
            message = rf"{kind} ids outside universe of size {count}: \[{bad}\]"
            with pytest.raises(ValueError, match=message):
                evaluate(ps, instances[:3] + [rogue], mode=mode, full_ranking=True)

    @pytest.mark.parametrize("slot", ["anchor", "relation"])
    def test_classify_rejects_anchor_and_relation(self, hub_eval_data, slot):
        hub, instances, _ = hub_eval_data
        ps = init_parameters(hub, dim=4, layers=2, seed=0)
        kind, count = (
            ("relation", hub.num_relations) if slot == "relation" else ("entity", hub.num_entities)
        )
        for bad in (-1, count):
            with pytest.raises(ValueError, match=rf"{kind} ids outside universe"):
                classify(ps, _with_ids(instances[0], slot, bad).query)


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


# ---------------------------------------------------------------------------
# the inference path against the tape-based, set-based form it replaced


def _reference_report(ps, instances, mode, full_ranking, alpha=DEFAULT_ALPHA):
    """``evaluate`` as written before: a tape encode per query, Python sets
    for the confusion counts, and distances over gathered rows."""
    want_cls = mode in ("classification", "both")
    want_rank = mode in ("ranking", "both")
    centers, offsets = ps.entity_boxes()
    universe = ps.num_entities

    def gathered_distances(box, ids):
        rows = np.asarray(ids, dtype=int)
        delta = np.abs(centers[rows] - box.center)
        span = offsets[rows] + box.offset
        outside = np.maximum(delta - span, 0.0).sum(axis=1)
        inside = np.minimum(delta, span).sum(axis=1)
        return outside + alpha * inside

    per_template = {name: TemplateMetrics() for name in TEMPLATE_NAMES}
    if want_cls:
        for name in TEMPLATE_NAMES:
            per_template[name].confusion = ConfusionMatrix()
    for inst in instances:
        metrics = per_template[inst.query.template]
        metrics.queries += 1
        box = encode(inst.query, ps).box
        truth = set(inst.targets)
        if want_cls:
            mask = np.all(np.abs(centers - box.center) <= offsets + box.offset, axis=1)
            predicted = {int(i) for i in np.nonzero(mask)[0]}
            for e in predicted | truth:
                if not 0 <= e < universe:
                    raise ValueError(f"entity id {e} outside universe")
            tp = len(predicted & truth)
            fp = len(predicted - truth)
            fn = len(truth - predicted)
            metrics.confusion = metrics.confusion + ConfusionMatrix(
                tp, fp, fn, universe - tp - fp - fn
            )
        if want_rank:
            if full_ranking:
                neg_ids = [e for e in range(universe) if e not in truth]
            else:
                neg_ids = list(inst.negatives) + list(inst.hard_negatives)
            metrics.negative_pool += len(neg_ids)
            if neg_ids:
                pos = gathered_distances(box, sorted(truth))
                neg = gathered_distances(box, neg_ids)
                metrics.pair_wins += float(
                    (pos[:, None] < neg[None, :]).sum()
                ) + 0.5 * float((pos[:, None] == neg[None, :]).sum())
                metrics.pairs += pos.size * neg.size

    overall_conf, wins, pairs = ConfusionMatrix(), 0.0, 0
    for m in per_template.values():
        if m.confusion is not None:
            overall_conf = overall_conf + m.confusion
        wins += m.pair_wins
        pairs += m.pairs
    overall: dict = {"queries": len(instances)}
    if want_cls:
        c = overall_conf
        overall["confusion"] = {"tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn}
        overall["precision"] = c.precision
        overall["recall"] = c.recall
        overall["f1"] = c.f1
    overall["pairwise"] = 100.0 * wins / pairs if pairs else None
    overall["pairs"] = pairs
    return {
        "method": ps.aggregation,
        "mode": mode,
        "alpha": alpha,
        "full_ranking": full_ranking,
        "manifest_hash": None,
        "templates": {n: per_template[n].to_dict() for n in TEMPLATE_NAMES},
        "overall": overall,
    }


def _touching_offset(gap: float, q_offset: float) -> float:
    """The entity offset ``o`` with ``o + q_offset == gap`` exactly."""
    o = gap - q_offset
    while o + q_offset > gap:
        o = np.nextafter(o, -np.inf)
    while o + q_offset < gap:
        o = np.nextafter(o, np.inf)
    assert o + q_offset == gap
    return o


class TestInferenceMatchesReference:
    @pytest.fixture(scope="class", params=AGGREGATIONS)
    def seven(self, request):
        """A hub graph and queries of all seven templates, a model of each
        aggregation at dim 4 (so the overlap words are padded), and two
        entity boxes next to the first query's box: one touching it exactly
        on a face, one a float step short of it."""
        hub = hub_graph(np.random.default_rng(3), n_entities=300, n_relations=4)
        split = split_edges(hub, 0.10, seed=1)
        cfg = SamplerConfig(quotas={name: 6 for name in TEMPLATE_NAMES}, seed=1)
        instances, _ = generate_datasets(hub, split, cfg)
        ps = init_parameters(hub, dim=4, layers=3, seed=0, aggregation=request.param)
        q = instances[0].query
        box = encode(q, ps).box
        touch, short = [e for e in range(hub.num_entities) if e not in q.anchors][:2]
        table = ps.entity_embeddings.data
        for e in (touch, short):
            table[e, :4] = box.center
            table[e, 4:] = 1e6  # overlap in every other dimension
            table[e, 0] = box.center[0] + box.offset[0] + 3.0  # clear of the box
        gap = abs(table[touch, 0] - box.center[0])
        table[touch, 4] = _touching_offset(gap, box.offset[0])
        table[short, 4] = table[touch, 4]
        while table[short, 4] + box.offset[0] == gap:  # the sum a float step short
            table[short, 4] = np.nextafter(table[short, 4], -np.inf)
        again = encode(q, ps).box  # the edited rows are not the query's anchors
        assert (again.center.tobytes(), again.offset.tobytes()) == (
            box.center.tobytes(), box.offset.tobytes())
        return hub, instances, ps, touch, short

    def test_classify_answers_match_the_geometry(self, seven):
        hub, instances, ps, touch, short = seven
        centers, offsets = ps.entity_boxes()
        for inst in instances:
            box = encode(inst.query, ps).box
            mask = np.all(np.abs(centers - box.center) <= offsets + box.offset, axis=1)
            answer = classify(ps, inst.query)
            assert answer == {int(i) for i in np.nonzero(mask)[0]}
            assert all(type(e) is int for e in answer)
        first = classify(ps, instances[0].query)
        assert touch in first and short not in first

    @pytest.mark.parametrize("full_ranking", [False, True])
    @pytest.mark.parametrize("mode", ["classification", "ranking", "both"])
    def test_reports_are_identical(self, seven, mode, full_ranking):
        _, instances, ps, _, _ = seven
        report = evaluate(ps, instances, mode=mode, full_ranking=full_ranking)
        assert report.to_dict() == _reference_report(ps, instances, mode, full_ranking)

    def test_encode_leaves_no_tape_during_evaluation(self, seven, monkeypatch):
        _, instances, ps, _, _ = seven
        made, batches = [], []
        result = ad.Tensor2._result
        encode_many = evaluate.__globals__["encode_many"]

        def spy_result(data, parents, vjp):
            out = result(data, parents, vjp)
            made.append(out._parents)
            return out

        def spy_encode_many(queries, store, method=None):
            batches.append([q.template for q in queries])
            return encode_many(queries, store, method)

        monkeypatch.setattr(ad.Tensor2, "_result", staticmethod(spy_result))
        monkeypatch.setattr("boxquery.evaluation.encode_many", spy_encode_many)
        evaluate(ps, instances[:9], mode="both")
        classify(ps, instances[0].query)
        assert made and not any(made)
        # one encode per template, its queries in instance order
        templates = [inst.query.template for inst in instances[:9]]
        assert sorted(b[0] for b in batches) == sorted(set(templates))
        assert [t for b in batches for t in b] == sorted(templates, key=templates.index)
        assert encode(instances[0].query, ps).center._parents  # a tape outside

    @pytest.mark.parametrize("mode", ["classification", "ranking", "both"])
    def test_target_outside_universe_rejected(self, seven, mode):
        hub, instances, ps, _, _ = seven
        inst = instances[0]
        for bad in (hub.num_entities, -1):
            rogue = QueryInstance(inst.query, frozenset({bad}), (), (), "test")
            with pytest.raises(ValueError, match="outside universe"):
                evaluate(ps, [rogue], mode=mode)
        with pytest.raises(ValueError, match="outside universe"):
            confusion({0}, {hub.num_entities}, hub.num_entities)
