"""Tests for the command-line front end."""

import json
from dataclasses import fields

import numpy as np
import pytest

from boxquery.cli import (
    ConfigError,
    RunConfig,
    dispatch,
    load_config,
    validate_config,
)
from boxquery.graphs import save_graph
from boxquery.queries import TEMPLATE_NAMES
from boxquery.synthetic import hub_graph, toy_collaboration_graph


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy")
    kg = toy_collaboration_graph()
    save_graph(kg, base / "graph.tsv", base / "types.tsv")
    return base / "graph.tsv", base / "types.tsv"


@pytest.fixture(scope="module")
def hub_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("hub")
    kg = hub_graph(np.random.default_rng(2), n_entities=120, n_relations=3)
    save_graph(kg, base / "graph.tsv", base / "types.tsv")
    return base / "graph.tsv", base / "types.tsv"


def write_config(path, graph, types, out, **extra):
    quotas = extra.pop("quotas", {})
    lines = [
        f"graph_path = {graph}",
        f"types_path = {types}",
        f"out_dir = {out}",
        "# zero every quota, then enable selected templates",
    ]
    lines += [f"quota_{name} = {quotas.get(name, 0)}" for name in TEMPLATE_NAMES]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestConfig:
    def test_load_config_parses_types_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "graph_path = g.tsv\n"
            "gamma = 0.5\n"
            "dim=16\n"
            "quota_2-inter = 7\n"
            "typed_negatives = true\n"
            "\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.graph_path == "g.tsv"
        assert cfg.gamma == 0.5
        assert cfg.dim == 16
        assert cfg.quotas["2-inter"] == 7
        assert cfg.typed_negatives is True

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dim = 8\nwibble = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            load_config(path)

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dim = tiny\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="dim"):
            load_config(path)

    def test_quota_for_unknown_template_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("quota_9-chain = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="9-chain"):
            load_config(path)

    def test_defaults_are_valid(self, toy_files):
        graph, types = toy_files
        cfg = RunConfig(graph_path=str(graph), types_path=str(types))
        assert validate_config(cfg, needs_graph=True) == []

    def test_negative_gamma_violation_message(self):
        cfg = RunConfig(gamma=-1.0)
        problems = validate_config(cfg)
        assert "gamma: must be positive" in problems

    # one bad value for every key that has a rule
    BAD_VALUES = {
        "graph_path": None,
        "types_path": "/nope/types.tsv",
        "format": "csv",
        "split_fraction": 1.0,
        "val_fraction": 1.5,
        "max_targets": 0,
        "negatives_per_query": -1,
        "hard_negative_fraction": -0.1,
        "quotas": {"1-chain": -1},
        "dim": 0,
        "layers": 0,
        "aggregation": "avg",
        "gamma": 0.0,
        "alpha": -0.5,
        "lr": -1.0,
        "max_steps": 0,
        "eval_every": 0,
        "patience": 0,
    }
    FREE_KEYS = {"out_dir", "typed_negatives", "seed"}

    def test_every_key_is_covered(self):
        keys = {f.name for f in fields(RunConfig)}
        assert keys == set(self.BAD_VALUES) | self.FREE_KEYS

    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    def test_bad_value_is_named_by_its_key(self, key, toy_files):
        graph, types = toy_files
        cfg = RunConfig(graph_path=str(graph), types_path=str(types))
        setattr(cfg, key, self.BAD_VALUES[key])
        problems = validate_config(cfg, needs_graph=True)
        assert len(problems) == 1 and problems[0].startswith(f"{key}:")

    def test_two_bad_values_are_both_reported(self):
        problems = validate_config(RunConfig(max_targets=0, gamma=-1.0, lr=0.0))
        assert problems == [
            "max_targets: must be >= 1",
            "gamma: must be positive",
            "lr: must be positive",
        ]

    def test_tm_layer_policy_violation(self):
        cfg = RunConfig(aggregation="tm", layers=2)
        problems = validate_config(cfg)
        assert any("layers" in p for p in problems)
        # with only shallow templates enabled the same depth is fine
        cfg.quotas = {"1-chain": 10, "2-inter": 10}
        assert validate_config(cfg) == []

    def test_missing_graph_path_named(self):
        problems = validate_config(RunConfig(), needs_graph=True)
        assert any("graph_path" in p for p in problems)


class TestStats:
    def test_prints_table_counts(self, toy_files, capsys):
        graph, types = toy_files
        code = dispatch(["stats", "--graph", str(graph), "--types", str(types)])
        out = capsys.readouterr().out
        assert code == 0
        assert "entities: 7" in out
        assert "relation types: 2" in out
        assert "edges: 6" in out
        assert "entity types: 3" in out

    def test_json_side_output(self, toy_files, tmp_path, capsys):
        graph, types = toy_files
        target = tmp_path / "stats.json"
        code = dispatch(
            ["stats", "--graph", str(graph), "--types", str(types), "--json", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        stats = json.loads(target.read_text())
        assert stats["entities"] == 7
        assert stats["degree_histogram"]

    def test_missing_graph_is_a_structured_error(self, capsys):
        code = dispatch(["stats"])
        err = capsys.readouterr().err
        assert code == 2
        assert "graph_path" in err

    def test_nonexistent_graph_path(self, capsys):
        code = dispatch(["stats", "--graph", "/nope/missing.tsv"])
        err = capsys.readouterr().err
        assert code == 2
        assert "graph_path" in err and "missing.tsv" in err

    def test_bad_set_override(self, toy_files, capsys):
        graph, _ = toy_files
        code = dispatch(["stats", "--graph", str(graph), "--set", "wibble=1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "wibble" in err


class TestSampleDeterminism:
    def test_same_seed_twice_writes_identical_files(self, hub_files, tmp_path, capsys):
        graph, types = hub_files
        for name in ("a", "b"):
            cfg = write_config(
                tmp_path / f"{name}.cfg",
                graph,
                types,
                tmp_path / name,
                quotas={"1-chain": 10, "2-inter": 5},
            )
            code = dispatch(["sample", "--config", str(cfg), "--seed", "7"])
            assert code == 0
        capsys.readouterr()
        for filename in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert (tmp_path / "a" / filename).read_bytes() == (
                tmp_path / "b" / filename
            ).read_bytes()


@pytest.fixture(scope="module")
def run_dir(hub_files, tmp_path_factory):
    graph, types = hub_files
    base = tmp_path_factory.mktemp("pipeline")
    out = base / "run"
    cfg = write_config(
        base / "run.cfg",
        graph,
        types,
        out,
        quotas={"1-chain": 15, "2-chain": 8, "2-inter": 8},
        dim=4,
        layers=2,
        max_steps=40,
        eval_every=10,
        patience=10,
        seed=3,
    )
    for command in ("split", "sample", "train"):
        assert dispatch([command, "--config", str(cfg)]) == 0
    return cfg, out


class TestPipeline:
    def test_split_artifacts(self, run_dir, capsys):
        _, out = run_dir
        capsys.readouterr()
        kept = (out / "edges_kept.tsv").read_text().strip().splitlines()
        removed = (out / "edges_removed.tsv").read_text().strip().splitlines()
        meta = json.loads((out / "split.json").read_text())
        assert meta["kept"] == len(kept)
        assert meta["removed"] == len(removed)
        assert not set(kept) & set(removed)

    def test_train_artifacts(self, run_dir, capsys):
        _, out = run_dir
        capsys.readouterr()
        assert (out / "checkpoint.ckpt").exists()
        log = (out / "training_log.csv").read_text().strip().splitlines()
        assert log[0].startswith("step,train_loss,val_pairwise")
        assert len(log) <= 41  # header + at most max_steps rows
        meta = json.loads((out / "train_meta.json").read_text())
        assert meta["steps"] <= 40

    def test_eval_writes_report(self, run_dir, capsys):
        cfg, out = run_dir
        assert dispatch(["eval", "--config", str(cfg), "--split", "test"]) == 0
        printed = capsys.readouterr().out
        assert "split: test" in printed
        report = json.loads((out / "report_test.json").read_text())
        assert set(report["templates"]) == set(TEMPLATE_NAMES)
        assert report["manifest_hash"]

    @pytest.mark.parametrize("key, value", [("dim", 8), ("layers", 3)])
    def test_eval_rejects_a_checkpoint_of_another_shape(self, run_dir, capsys, key, value):
        cfg, _ = run_dir
        code = dispatch(
            ["eval", "--config", str(cfg), "--set", f"{key}={value}", "--split", "test"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"has {key} " in err and f"expected {value}" in err

    def test_report_prints_table(self, run_dir, capsys):
        cfg, out = run_dir
        if not (out / "report_test.json").exists():
            assert dispatch(["eval", "--config", str(cfg), "--split", "test"]) == 0
        assert dispatch(["report", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "1-chain" in printed
        assert "pairwise" in printed

    def test_report_csv_conversion(self, run_dir, tmp_path, capsys):
        cfg, out = run_dir
        if not (out / "report_test.json").exists():
            assert dispatch(["eval", "--config", str(cfg), "--split", "test"]) == 0
        target = tmp_path / "converted.csv"
        code = dispatch(
            ["report", "--config", str(cfg), "--format", "csv", "--output", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        assert target.read_text().startswith("template,metric,value")

    def test_run_manifest_covers_commands_and_hashes(self, run_dir):
        _, out = run_dir
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert {"split", "sample", "train"} <= set(manifest)
        sample_entry = manifest["sample"]
        assert sample_entry["config"]["seed"] == 3
        assert all(len(h) == 64 for h in sample_entry["inputs"].values())
        assert "train.jsonl" in sample_entry["outputs"]

    def test_train_without_datasets_fails_cleanly(self, hub_files, tmp_path, capsys):
        graph, types = hub_files
        cfg = write_config(
            tmp_path / "fresh.cfg", graph, types, tmp_path / "fresh", dim=4
        )
        code = dispatch(["train", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "train.jsonl" in err
