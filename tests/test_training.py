"""Tests for the loss, the training loop, and checkpointing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from boxquery import autodiff as ad
from boxquery.autodiff import AdamState, adam_step
from boxquery.encoder import AGGREGATIONS, init_parameters
from boxquery.queries import QueryInstance, execute, instantiate
from boxquery.sampling import SamplerConfig, generate_datasets, split_edges
from boxquery.synthetic import clustered_graph, toy_collaboration_graph
from boxquery import training
from boxquery.training import (
    CheckpointError,
    LogRow,
    NonFiniteLossError,
    TrainConfig,
    instance_loss,
    load_checkpoint,
    loss_terms,
    save_checkpoint,
    train,
    write_training_log,
)


@pytest.fixture(scope="module")
def kg():
    return toy_collaboration_graph()


@pytest.fixture(scope="module")
def toy_datasets(kg):
    split = split_edges(kg, 0.10, seed=0)
    cfg = SamplerConfig(quotas={"1-chain": 6, "2-inter": 4}, seed=0)
    instances, _ = generate_datasets(kg, split, cfg)
    by_split = {"train": [], "val": [], "test": []}
    for inst in instances:
        by_split[inst.split].append(inst)
    # make sure train and val are populated regardless of the random split
    if not by_split["val"]:
        by_split["val"] = by_split["train"][-2:]
        by_split["train"] = by_split["train"][:-2]
    return by_split


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.gamma == 1.0
        assert cfg.alpha == 0.02
        assert cfg.lr == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"alpha": -0.5},
            {"lr": 0.0},
            {"max_steps": 0},
            {"eval_every": 0},
            {"patience": 0},
            {"aggregation": "avg"},
            {"dim": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_every_broken_rule_is_named_by_its_key(self):
        with pytest.raises(ValueError) as caught:
            TrainConfig(gamma=-1.0, lr=0.0, dim=0, layers=0)
        assert str(caught.value).split("; ") == [
            "gamma: must be positive",
            "lr: must be positive",
            "dim: must be >= 1",
            "layers: must be >= 1",
        ]


def rows(*values):
    """A tensor with one row per list of coordinates."""
    return ad.tensor(np.array(values, dtype=float))


class TestLoss:
    def test_positive_at_zero_distance_no_negatives(self):
        center, offset = rows([0.0, 0.0]), rows([1.0, 1.0])
        value = loss_terms(center, offset, center, offset, gamma=1.0).item()
        assert value == pytest.approx(0.31326168751822286, abs=1e-10)

    def test_both_sides_at_the_margin(self):
        q, zero, at_margin = rows([0.0]), rows([0.0]), rows([1.0])
        value = loss_terms(q, zero, at_margin, zero, at_margin, zero, gamma=1.0).item()
        assert value == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_distant_negatives_vanish(self):
        q, zero, far = rows([0.0]), rows([0.0]), rows([1e9])
        value = loss_terms(q, zero, q, zero, far, zero, gamma=1.0).item()
        assert value == pytest.approx(0.31326168751822286, abs=1e-9)

    def test_empty_positives_rejected(self):
        q, none = rows([0.0]), ad.tensor(np.zeros((0, 1)))
        with pytest.raises(ValueError):
            loss_terms(q, q, none, none, q, q)

    def test_finite_for_finite_inputs(self):
        q_c, q_o = rows([1e8]), rows([5.0])
        other_c, other_o = rows([-1e8]), rows([2.0])
        assert np.isfinite(loss_terms(q_c, q_o, other_c, other_o, other_c, other_o).item())

    def test_closer_positives_never_hurt(self):
        q, zero, neg = rows([0.0]), rows([0.0]), rows([3.0])
        distances = [4.0, 2.0, 1.0, 0.5, 0.0]
        values = [
            loss_terms(q, zero, rows([c]), zero, neg, zero).item() for c in distances
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_closer_negatives_never_help(self):
        q, zero = rows([0.0]), rows([0.0])
        distances = [4.0, 2.0, 1.0, 0.5]
        values = [
            loss_terms(q, zero, q, zero, rows([c]), zero).item() for c in distances
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestInstanceLoss:
    @pytest.mark.parametrize("method", AGGREGATIONS)
    def test_finite_difference_per_aggregator(self, kg, method):
        ps = init_parameters(kg, dim=4, layers=3, seed=31, aggregation=method)
        alice, bob = kg.entity_id("Alice"), kg.entity_id("Bob")
        works, related = kg.relation_id("works_on"), kg.relation_id("related")
        q = instantiate("3-chain-inter", [alice, bob], [works, works, related])
        inst = QueryInstance(
            q,
            execute(kg, q),
            negatives=(kg.entity_id("T2"),),
            hard_negatives=(kg.entity_id("P3"),),
            split="train",
        )

        def run():
            return instance_loss(ps, inst, method)

        err = ad.finite_diff_check(run, ps.parameters())
        assert err < 1e-4, f"{method}: max relative gradient error {err}"

    def test_descends_on_a_fixed_batch(self, kg):
        ps = init_parameters(kg, dim=4, layers=2, seed=3)
        q = instantiate("1-chain", [kg.entity_id("Alice")], [kg.relation_id("works_on")])
        inst = QueryInstance(
            q, execute(kg, q), (kg.entity_id("P3"),), (), "train"
        )
        adam = AdamState(ps.parameters(), lr=0.01)
        first = instance_loss(ps, inst).item()
        value = first
        for _ in range(60):
            total = instance_loss(ps, inst)
            ps.zero_grads()
            total.backward()
            adam_step(ps.parameters(), None, adam)
            value = total.item()
        assert value < first


class TestTrainLoop:
    def test_loss_goes_down_on_repeated_query(self, kg):
        split = split_edges(kg, 0.10, seed=0)
        q = instantiate("1-chain", [kg.entity_id("Alice")], [kg.relation_id("works_on")])
        inst = QueryInstance(
            q, execute(kg, q), (kg.entity_id("P1"), kg.entity_id("P3")), (), "train"
        )
        cfg = TrainConfig(max_steps=200, eval_every=1000, dim=4, layers=2, seed=1)
        result = train(kg, {"train": [inst]}, cfg)
        assert result.steps == 200
        assert result.history[-1].train_loss < result.history[0].train_loss

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_loss_stops_before_the_update(self, kg, toy_datasets, monkeypatch, bad):
        calls = {"loss": 0, "adam": 0}
        real_loss, real_adam = training.instance_loss, training.adam_step

        def poisoned_loss(*args):
            calls["loss"] += 1
            total = real_loss(*args)
            return total * bad if calls["loss"] == 3 else total

        def counted_adam(*args):
            calls["adam"] += 1
            return real_adam(*args)

        monkeypatch.setattr(training, "instance_loss", poisoned_loss)
        monkeypatch.setattr(training, "adam_step", counted_adam)
        cfg = TrainConfig(max_steps=10, eval_every=100, dim=3, layers=2, seed=0)
        with pytest.raises(NonFiniteLossError, match=r"at step 3 on a (1-chain|2-inter) query"):
            train(kg, toy_datasets, cfg)
        assert calls == {"loss": 3, "adam": 2}

    def test_constant_metric_stops_after_patience(self, kg, toy_datasets, monkeypatch):
        monkeypatch.setattr(
            "boxquery.training._val_metric", lambda *a, **k: (50.0, None)
        )
        cfg = TrainConfig(
            max_steps=100, eval_every=10, patience=1, dim=3, layers=2, seed=0
        )
        result = train(kg, toy_datasets, cfg)
        assert result.steps == 20  # second evaluation triggers the stop
        assert result.best_step == 10

    def test_deterministic_given_seed(self, kg, toy_datasets):
        cfg = TrainConfig(max_steps=30, eval_every=10, dim=3, layers=2, seed=5)
        a = train(kg, toy_datasets, cfg)
        b = train(kg, toy_datasets, cfg)
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]
        for name in a.ps.names():
            np.testing.assert_array_equal(a.ps[name].data, b.ps[name].data)

    def test_validation_every_step_leaves_training_unchanged(self, kg, toy_datasets):
        # validation encodes without a tape; training after it must still
        # record one, so the losses match a run that never validates
        cfg = TrainConfig(max_steps=30, eval_every=1, patience=1000, dim=3, layers=2, seed=5)
        a = train(kg, toy_datasets, cfg)
        b = train(kg, toy_datasets, cfg)
        assert all(r.val_pairwise is not None for r in a.history)
        for name in a.ps.names():
            assert a.ps[name].data.tobytes() == b.ps[name].data.tobytes()
        unvalidated = train(kg, toy_datasets, replace(cfg, eval_every=10_000))
        assert [r.train_loss for r in a.history] == [
            r.train_loss for r in unvalidated.history
        ]
        assert ad.relu(a.ps.entity_embeddings)._parents  # a tape after training

    def test_empty_train_split_rejected(self, kg):
        with pytest.raises(ValueError):
            train(kg, {"train": []}, TrainConfig(max_steps=5))

    def test_unknown_ids_rejected_before_training(self, kg):
        q = instantiate("1-chain", [0], [0])
        rogue = QueryInstance(q, frozenset([999]), (), (), "train")
        with pytest.raises(ValueError, match="entity ids"):
            train(kg, {"train": [rogue]}, TrainConfig(max_steps=5, dim=2))

    def test_runs_to_max_steps_without_validation(self, kg):
        q = instantiate("1-chain", [kg.entity_id("Alice")], [kg.relation_id("works_on")])
        inst = QueryInstance(q, execute(kg, q), (), (), "train")
        cfg = TrainConfig(max_steps=25, eval_every=10, dim=2, layers=1, seed=0)
        result = train(kg, {"train": [inst]}, cfg)
        assert result.steps == 25
        assert all(r.val_pairwise is None for r in result.history)
        assert result.best_step is None

    def test_best_parameters_are_restored(self, kg, toy_datasets):
        cfg = TrainConfig(
            max_steps=40, eval_every=5, patience=100, dim=3, layers=2, seed=2
        )
        result = train(kg, toy_datasets, cfg)
        evals = [r for r in result.history if r.val_pairwise is not None]
        assert evals, "expected at least one evaluation"
        assert result.best_metric == max(r.val_pairwise for r in evals)


class TestCheckpoints:
    def _store_and_adam(self, kg):
        ps = init_parameters(kg, dim=3, layers=2, seed=8)
        adam = AdamState(ps.parameters(), lr=0.01)
        # make the optimizer state non-trivial
        for p in ps.parameters():
            p.grad = np.ones_like(p.data)
        adam_step(ps.parameters(), None, adam)
        return ps, adam

    def test_save_load_save_is_byte_identical(self, kg, tmp_path):
        ps, adam = self._store_and_adam(kg)
        rng = np.random.default_rng(4)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(ps, adam, first, step=17, rng=rng)
        ps2, adam2, step, rng_state = load_checkpoint(first)
        assert step == 17
        rng2 = np.random.default_rng()
        rng2.bit_generator.state = rng_state
        save_checkpoint(ps2, adam2, second, step=step, rng=rng2)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_restores_everything(self, kg, tmp_path):
        ps, adam = self._store_and_adam(kg)
        path = save_checkpoint(ps, adam, tmp_path / "c.ckpt", step=3)
        ps2, adam2, step, rng_state = load_checkpoint(path)
        assert rng_state is None
        assert (ps2.dim, ps2.layers, ps2.aggregation) == (3, 2, "sum")
        for name in ps.names():
            np.testing.assert_array_equal(ps[name].data, ps2[name].data)
        assert adam2.t == adam.t
        for a, b in zip(adam.m, adam2.m):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(adam.v, adam2.v):
            np.testing.assert_array_equal(a, b)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_wrong_version(self, kg, tmp_path):
        ps, adam = self._store_and_adam(kg)
        path = save_checkpoint(ps, adam, tmp_path / "v.ckpt")
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field sits right after the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_rejects_dim_mismatch(self, kg, tmp_path):
        ps, adam = self._store_and_adam(kg)
        path = save_checkpoint(ps, adam, tmp_path / "d.ckpt")
        with pytest.raises(CheckpointError, match="dim"):
            load_checkpoint(path, dim=32)

    def test_rejects_aggregation_mismatch(self, kg, tmp_path):
        ps, adam = self._store_and_adam(kg)
        path = save_checkpoint(ps, adam, tmp_path / "m.ckpt")
        with pytest.raises(CheckpointError, match="aggregation"):
            load_checkpoint(path, aggregation="tm")

    @pytest.mark.parametrize("key", ["dim", "tensors", "adam", "step", "adam.t"])
    def test_header_without_a_key_names_it(self, kg, tmp_path, key):
        ps, adam = self._store_and_adam(kg)
        raw = save_checkpoint(ps, adam, tmp_path / "k.ckpt").read_bytes()
        length = int.from_bytes(raw[12:20], "little")  # after magic and version
        header = json.loads(raw[20 : 20 + length])
        if "." in key:
            outer, inner = key.split(".")
            del header[outer][inner]
        else:
            del header[key]
        blob = json.dumps(header).encode()
        path = tmp_path / "lacking.ckpt"
        path.write_bytes(raw[:12] + len(blob).to_bytes(8, "little") + blob + raw[20 + length :])
        with pytest.raises(CheckpointError, match=repr(key)):
            load_checkpoint(path)

    def test_missing_relation_tensor_is_named(self, kg, tmp_path):
        ps, adam = self._store_and_adam(kg)
        raw = save_checkpoint(ps, adam, tmp_path / "r.ckpt").read_bytes()
        length = int.from_bytes(raw[12:20], "little")
        header = json.loads(raw[20 : 20 + length])
        index = [name for name, _, _ in header["tensors"]].index("msg1_rel0_fwd")
        header["tensors"][index][0] = "renamed"
        blob = json.dumps(header).encode()
        path = tmp_path / "renamed.ckpt"
        path.write_bytes(raw[:12] + len(blob).to_bytes(8, "little") + blob + raw[20 + length :])
        with pytest.raises(CheckpointError, match="'msg1_rel0_fwd'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field", ["num_entities", "num_relations", "num_types", "layers", "lr"]
    )
    def test_resume_rejects_a_mismatch_naming_the_field(self, kg, tmp_path, field):
        q = instantiate("1-chain", [kg.entity_id("Alice")], [kg.relation_id("works_on")])
        insts = [QueryInstance(q, execute(kg, q), (kg.entity_id("P3"),), (), "train")]
        cfg = TrainConfig(max_steps=2, eval_every=1000, dim=2, layers=1, seed=6)
        ckpt = tmp_path / "saved.ckpt"
        train(kg, {"train": insts}, cfg, checkpoint_path=ckpt)
        other_kg, other_cfg = kg, replace(cfg, max_steps=4)
        if field == "num_entities":
            other_kg = replace(kg, entity_labels=kg.entity_labels + ("Carol",),
                               entity_types=kg.entity_types + (kg.untyped_type_id,))
        elif field == "num_relations":
            other_kg = replace(kg, relation_labels=kg.relation_labels + ("cites",))
        elif field == "num_types":
            other_kg = replace(kg, type_labels=kg.type_labels + ("venue",))
        elif field == "layers":
            other_cfg = replace(other_cfg, layers=2)
        else:
            other_cfg = replace(other_cfg, lr=0.02)
        with pytest.raises(CheckpointError, match=field):
            train(other_kg, {"train": insts}, other_cfg, resume_from=ckpt)

    def test_rejects_truncated_file(self, kg, tmp_path):
        ps, adam = self._store_and_adam(kg)
        path = save_checkpoint(ps, adam, tmp_path / "t.ckpt")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointError, match="truncated|trailing"):
            load_checkpoint(path)

    def test_resume_continues_the_step_counter(self, kg, tmp_path):
        q = instantiate("1-chain", [kg.entity_id("Alice")], [kg.relation_id("works_on")])
        insts = [
            QueryInstance(q, execute(kg, q), (kg.entity_id("P3"),), (), "train")
            for _ in range(5)
        ]
        ckpt = tmp_path / "resume.ckpt"
        cfg5 = TrainConfig(max_steps=5, eval_every=1000, dim=2, layers=1, seed=6)
        train(kg, {"train": insts}, cfg5, checkpoint_path=ckpt)
        cfg10 = TrainConfig(max_steps=10, eval_every=1000, dim=2, layers=1, seed=6)
        resumed = train(kg, {"train": insts}, cfg10, resume_from=ckpt)
        assert [r.step for r in resumed.history] == [6, 7, 8, 9, 10]

        straight = train(kg, {"train": insts}, cfg10)
        for name in straight.ps.names():
            np.testing.assert_allclose(
                resumed.ps[name].data, straight.ps[name].data, rtol=1e-12
            )


class TestPackedTrainingStep:
    """The packed, row-sparse, fused step against the dense per-tensor one."""

    STEPS = 50
    LR = 0.05

    @pytest.fixture(scope="class")
    def packed_case(self):
        kg = clustered_graph(np.random.default_rng(1), n_entities=80, n_relations=3)
        split = split_edges(kg, 0.10, seed=1)
        cfg = SamplerConfig(
            quotas={"1-chain": 20, "2-chain": 20, "2-inter": 20},
            negatives_per_query=6,
            seed=1,
        )
        drawn, _ = generate_datasets(kg, split, cfg)
        steps, shared = [], 0
        for i, inst in enumerate(drawn[: self.STEPS]):
            anchor = inst.query.anchors[0]
            if i % 2 == 0:  # repeated ids inside one gather
                inst = replace(inst, negatives=inst.negatives + inst.negatives[:2])
            elif anchor not in inst.targets:  # an anchor's row is a negative's too
                inst = replace(inst, negatives=inst.negatives + (anchor,))
                shared += 1
            steps.append(inst)
        assert shared >= 10
        assert {inst.query.template for inst in steps} == {
            "1-chain", "2-chain", "2-inter"
        }
        return kg, steps

    def _store(self, kg):
        return init_parameters(kg, dim=6, layers=2, seed=4, aggregation="tm")

    def _train(self, ps, steps):
        adam = AdamState(ps.parameters(), lr=self.LR)
        for inst in steps:
            total = instance_loss(ps, inst, "tm")
            ps.zero_grads()
            total.backward()
            adam_step(ps.parameters(), None, adam)
        return adam

    def test_matches_dense_per_tensor_reference_bitwise(self, packed_case, dense_gather):
        kg, steps = packed_case
        ps = self._store(kg)
        adam = self._train(ps, steps)

        ref = self._store(kg)
        params = ref.parameters()
        m = [np.zeros_like(p.data) for p in params]
        v = [np.zeros_like(p.data) for p in params]
        b1, b2, lr, eps = 0.9, 0.999, self.LR, 1e-8
        with dense_gather():
            for t, inst in enumerate(steps, start=1):
                total = instance_loss(ref, inst, "tm")
                for p in params:
                    p.grad = np.zeros_like(p.data)
                total.backward()
                for p, m_t, v_t in zip(params, m, v):
                    g = p.grad
                    m_t *= b1
                    m_t += (1 - b1) * g
                    v_t *= b2
                    v_t += (1 - b2) * g * g
                    m_hat = m_t / (1 - b1**t)
                    v_hat = v_t / (1 - b2**t)
                    p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)

        assert adam.t == len(steps)
        for i, name in enumerate(ps.names()):
            assert ps[name].data.tobytes() == ref[name].data.tobytes(), name
            assert adam.m[i].tobytes() == m[i].tobytes(), name
            assert adam.v[i].tobytes() == v[i].tobytes(), name

    def test_explicit_grads_match_the_packed_path_bitwise(self, packed_case):
        kg, steps = packed_case
        ps = self._store(kg)
        adam = self._train(ps, steps)
        ref = self._store(kg)
        ref_adam = AdamState(ref.parameters(), lr=self.LR)
        for inst in steps:
            total = instance_loss(ref, inst, "tm")
            ref.zero_grads()
            total.backward()
            grads = [p.grad.copy() for p in ref.parameters()]
            adam_step(ref.parameters(), grads, ref_adam)
        assert ps.data.tobytes() == ref.data.tobytes()
        assert adam.m_flat.tobytes() == ref_adam.m_flat.tobytes()
        assert adam.v_flat.tobytes() == ref_adam.v_flat.tobytes()

    def test_zero_grads_clears_dense_and_row_sparse_gradients(self, packed_case):
        kg, steps = packed_case
        ps = self._store(kg)
        ps.zero_grads()
        for inst in steps[:3]:  # row-sparse tables, dense weights
            instance_loss(ps, inst, "tm").backward()
        ad.sum_all(ps.type_embeddings * 1.0).backward()  # a dense table adjoint
        marks = [p.grad_rows for p in ps.parameters()]
        assert isinstance(marks[0], list) and len(marks[0]) == 3
        assert marks[1] is ad.ANY_ROW and None in marks
        assert ps.grad.any()
        ps.zero_grads()
        assert ps.grad.tobytes() == bytes(ps.grad.nbytes)
        assert all(p.grad_rows is None for p in ps.parameters())

    def test_resume_mid_run_is_bitwise(self, packed_case, tmp_path):
        kg, steps = packed_case
        datasets = {"train": steps}
        cfg = TrainConfig(aggregation="tm", dim=6, layers=2, seed=4, lr=self.LR,
                          max_steps=2 * len(steps), eval_every=10**6)
        whole = tmp_path / "whole.ckpt"
        train(kg, datasets, cfg, checkpoint_path=whole)
        half = tmp_path / "half.ckpt"  # an epoch boundary
        train(kg, datasets, replace(cfg, max_steps=len(steps)), checkpoint_path=half)
        _, adam, _, _ = load_checkpoint(half)
        moving = [bool(m.any()) for m in adam.m]
        assert any(moving) and not all(moving)  # live tensors and never-touched ones
        resumed = tmp_path / "resumed.ckpt"
        train(kg, datasets, cfg, resume_from=half, checkpoint_path=resumed)
        assert resumed.read_bytes() == whole.read_bytes()

    def test_store_is_packed_and_checkpoint_round_trips(self, packed_case, tmp_path):
        kg, steps = packed_case
        ps = self._store(kg)
        adam = self._train(ps, steps[:5])
        first = save_checkpoint(ps, adam, tmp_path / "a.ckpt", step=5)
        ps2, adam2, step, _ = load_checkpoint(first)
        second = save_checkpoint(ps2, adam2, tmp_path / "b.ckpt", step=step)
        assert first.read_bytes() == second.read_bytes()

        for store, state in ((ps, adam), (ps2, adam2)):
            start = store.data.__array_interface__["data"][0]
            offset = 0
            for p, m in zip(store.parameters(), state.m):
                assert p.data.base is store.data and p.grad.base is store.grad
                assert m.base is state.m_flat
                assert p.data.__array_interface__["data"][0] == start + offset
                offset += p.data.nbytes
            assert offset == store.data.nbytes


class TestTrainingLog:
    def test_csv_layout(self, tmp_path):
        history = [
            LogRow(step=1, train_loss=0.75),
            LogRow(
                step=2,
                train_loss=0.5,
                val_pairwise=61.25,
                val_by_template={"1-chain": 60.0},
            ),
        ]
        path = write_training_log(history, tmp_path / "log.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("step,train_loss,val_pairwise,val_1-chain")
        assert lines[1].startswith("1,0.75,,")
        assert lines[2].startswith("2,0.5,61.25,60.0")
