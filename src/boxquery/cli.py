"""Command-line front end: stats, split, sample, train, eval, report.

One run lives in one directory.  Every artifact is a file (datasets,
checkpoint, logs, reports) and each artifact-producing subcommand
records its config snapshot and the content hashes of its inputs in
``run_manifest.json``, so a run can be reproduced byte for byte from
the manifest alone.  Configuration comes from a plain-text ``key =
value`` file, overridden by repeatable ``--set key=value`` flags and a
few named convenience flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, make_dataclass
from pathlib import Path

from .evaluation import MODES, emit_report, evaluate, load_report
from .graphs import KnowledgeGraph, graph_stats, load_graph, stats_json
from .queries import TEMPLATE_NAMES, TEMPLATES
from .sampling import (
    SamplerConfig,
    generate_datasets,
    load_datasets,
    split_edges,
    write_datasets,
)
from .training import (
    TrainConfig,
    checkpoint_fields,
    load_checkpoint,
    train,
    write_training_log,
)

_QUOTA_PREFIX = "quota_"
_FORMATS = ("tsv", "ntriples")


@dataclass
class _CliKeys:
    """The keys only the command line has; see :class:`RunConfig`."""

    graph_path: str | None = None
    types_path: str | None = None
    format: str = "tsv"
    out_dir: str = "run"
    split_fraction: float = 0.1

    def to_dict(self) -> dict:
        return asdict(self)

    def _subset(self, kind):
        return kind(**{f.name: getattr(self, f.name) for f in fields(kind)})

    def sampler_config(self) -> SamplerConfig:
        """The sampling keys as a :class:`SamplerConfig`, which checks them."""
        return self._subset(SamplerConfig)

    def train_config(self) -> TrainConfig:
        """The training keys as a :class:`TrainConfig`, which checks them."""
        return self._subset(TrainConfig)


# The library's quotas default to {}, which samples nothing, so a run from
# the command line samples 100 queries of every template unless told
# otherwise.  This is the one default the CLI sets itself.
_QUOTAS = field(default_factory=lambda: dict.fromkeys(TEMPLATE_NAMES, 100))

RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, _QUOTAS if f.name == "quotas"
         else field(default=f.default, default_factory=f.default_factory))
        for f in {
            f.name: f for kind in (SamplerConfig, TrainConfig) for f in fields(kind)
        }.values()  # seed is a field of both
    ],
    bases=(_CliKeys,),
    namespace={
        "__module__": __name__,
        "__doc__": """Everything a run needs, in one flat bag of keys.

    Besides the command line's own keys, every field of
    :class:`SamplerConfig` and :class:`TrainConfig` is a key, with that
    field's type and default; only ``quotas`` has a default of its own.
    """,
    },
)


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable configuration file."""


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


_PARSERS = {"bool": _parse_bool, "int": int, "float": float}


def _apply_key(cfg: RunConfig, key: str, value: str) -> None:
    if key.startswith(_QUOTA_PREFIX):
        template = key[len(_QUOTA_PREFIX) :]
        if template not in TEMPLATE_NAMES:
            raise ConfigError(f"unknown template in config key {key!r}")
        try:
            cfg.quotas[template] = int(value)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
        return
    by_name = {f.name: f for f in fields(RunConfig)}
    if key not in by_name or key == "quotas":
        raise ConfigError(f"unknown config key {key!r}")
    parse = _PARSERS.get(by_name[key].type, str)
    try:
        parsed = parse(value)
    except ValueError:
        raise ConfigError(f"{key}: could not parse {value!r}") from None
    setattr(cfg, key, parsed)


def load_config(path: str | Path) -> RunConfig:
    """Parse a ``key = value`` file; ``#`` starts a comment line."""
    cfg = RunConfig()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        try:
            _apply_key(cfg, key.strip(), value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg


def validate_config(cfg: RunConfig, needs_graph: bool = False) -> list[str]:
    """Collect every violation; an empty list means the config is usable."""
    problems: list[str] = []
    if needs_graph:
        if not cfg.graph_path:
            problems.append("graph_path: required but not set")
        elif not Path(cfg.graph_path).exists():
            problems.append(f"graph_path: file not found: {cfg.graph_path}")
        if cfg.types_path and not Path(cfg.types_path).exists():
            problems.append(f"types_path: file not found: {cfg.types_path}")
    if cfg.format not in _FORMATS:
        problems.append(f"format: must be one of {'/'.join(_FORMATS)}")
    if not 0.0 < cfg.split_fraction < 1.0:
        problems.append("split_fraction: must lie in (0, 1)")
    for build in (cfg.sampler_config, cfg.train_config):
        try:
            build()
        except ValueError as exc:
            problems.extend(str(exc).split("; "))
    if cfg.aggregation == "tm":
        needed = max(
            (
                TEMPLATES[name].diameter
                for name, quota in cfg.quotas.items()
                if quota > 0
            ),
            default=0,
        )
        if cfg.layers < needed:
            problems.append(
                f"layers: aggregation tm runs one step per hop and the widest "
                f"configured template needs {needed} layers, got {cfg.layers}"
            )
    return list(dict.fromkeys(problems))  # both dataclasses check seed


# --- plumbing ---------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_kg(cfg: RunConfig) -> KnowledgeGraph:
    return load_graph(cfg.graph_path, cfg.types_path, fmt=cfg.format)


def _update_run_manifest(
    cfg: RunConfig, command: str, inputs: list[Path], outputs: list[Path]
) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "run_manifest.json"
    data = {}
    if manifest_path.exists():
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
    data[command] = {
        "config": cfg.to_dict(),
        "inputs": {
            str(p): _sha256(p) for p in inputs if p is not None and p.exists()
        },
        "outputs": [p.name for p in outputs],
    }
    manifest_path.write_text(
        json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _input_paths(cfg: RunConfig) -> list[Path]:
    paths = [Path(cfg.graph_path)]
    if cfg.types_path:
        paths.append(Path(cfg.types_path))
    return paths


# --- subcommands ------------------------------------------------------------


def _cmd_stats(cfg: RunConfig, args: argparse.Namespace) -> int:
    kg = _load_kg(cfg)
    stats = graph_stats(kg)
    print(f"entities: {stats['entities']}")
    print(f"relation types: {stats['relation_types']}")
    print(f"edges: {stats['edges']}")
    print(f"entity types: {stats['entity_types']}")
    if args.json:
        Path(args.json).write_text(stats_json(kg) + "\n", encoding="utf-8")
    return 0


def _cmd_split(cfg: RunConfig, args: argparse.Namespace) -> int:
    kg = _load_kg(cfg)
    es = split_edges(kg, cfg.split_fraction, cfg.seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = {"kept": out / "edges_kept.tsv", "removed": out / "edges_removed.tsv"}
    membership = {"kept": es.train_edges, "removed": es.removed_edges}
    for kind, path in names.items():
        with path.open("w", encoding="utf-8") as fh:
            for h, r, t in kg.edges:
                if (h, r, t) in membership[kind]:
                    fh.write(
                        f"{kg.entity_labels[h]}\t{kg.relation_labels[r]}"
                        f"\t{kg.entity_labels[t]}\n"
                    )
    meta = out / "split.json"
    meta.write_text(
        json.dumps(
            {
                "fraction": cfg.split_fraction,
                "seed": cfg.seed,
                "kept": len(es.train_edges),
                "removed": len(es.removed_edges),
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    _update_run_manifest(cfg, "split", _input_paths(cfg), list(names.values()) + [meta])
    print(f"marked {len(es.removed_edges)} of {len(kg.edges)} edges for removal")
    return 0


def _cmd_sample(cfg: RunConfig, args: argparse.Namespace) -> int:
    kg = _load_kg(cfg)
    es = split_edges(kg, cfg.split_fraction, cfg.seed)
    instances, manifest = generate_datasets(kg, es, cfg.sampler_config())
    paths = write_datasets(cfg.out_dir, kg, instances, manifest)
    _update_run_manifest(cfg, "sample", _input_paths(cfg), list(paths.values()))
    by_split = {"train": 0, "val": 0, "test": 0}
    for inst in instances:
        by_split[inst.split] += 1
    for name in ("train", "val", "test"):
        print(f"{name}: {by_split[name]} queries")
    return 0


def _cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    kg = _load_kg(cfg)
    datasets = load_datasets(cfg.out_dir, kg)
    out = Path(cfg.out_dir)
    checkpoint = out / "checkpoint.ckpt"
    result = train(
        kg,
        datasets,
        cfg.train_config(),
        checkpoint_path=checkpoint,
        resume_from=args.resume,
    )
    log_path = write_training_log(result.history, out / "training_log.csv")
    meta = out / "train_meta.json"
    meta.write_text(
        json.dumps(
            {
                "steps": result.steps,
                "best_step": result.best_step,
                "best_val_pairwise": result.best_metric,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    dataset_inputs = [out / f"{s}.jsonl" for s in ("train", "val", "test")]
    _update_run_manifest(
        cfg,
        "train",
        _input_paths(cfg) + dataset_inputs,
        [checkpoint, log_path, meta],
    )
    if result.best_metric is not None:
        print(
            f"trained {result.steps} steps; best val pairwise "
            f"{result.best_metric:.2f}% at step {result.best_step}"
        )
    else:
        print(f"trained {result.steps} steps (no validation data)")
    return 0


def _cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    kg = _load_kg(cfg)
    datasets = load_datasets(cfg.out_dir, kg)
    out = Path(cfg.out_dir)
    checkpoint = out / "checkpoint.ckpt"
    ps, _, _, _ = load_checkpoint(checkpoint, **checkpoint_fields(kg, cfg.train_config()))
    manifest_path = out / "manifest.json"
    manifest_hash = _sha256(manifest_path) if manifest_path.exists() else None
    report = evaluate(
        ps,
        datasets[args.split],
        method=cfg.aggregation,
        mode=args.mode,
        alpha=cfg.alpha,
        manifest_hash=manifest_hash,
        full_ranking=args.full_ranking,
    )
    report_path = out / f"report_{args.split}.json"
    emit_report(report, report_path, "json")
    _update_run_manifest(
        cfg,
        "eval",
        _input_paths(cfg) + [checkpoint, out / f"{args.split}.jsonl"],
        [report_path],
    )
    print(f"split: {args.split}  aggregation: {report.method}")
    for name in TEMPLATE_NAMES:
        row = report.templates[name]
        if not row["queries"]:
            continue
        parts = [f"{name}: {row['queries']} queries"]
        if row["f1"] is not None:
            parts.append(f"f1 {row['f1']:.4f}")
        if row["pairwise"] is not None:
            parts.append(f"pairwise {row['pairwise']:.2f}%")
        print("  " + "  ".join(parts))
    return 0


def _cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    path = Path(args.input) if args.input else Path(cfg.out_dir) / "report_test.json"
    report = load_report(path)
    if args.format == "csv":
        target = Path(args.output) if args.output else path.with_suffix(".csv")
        emit_report(report, target, "csv")
        print(f"wrote {target}")
        return 0
    print(f"aggregation: {report.method}  mode: {report.mode}  alpha: {report.alpha}")
    header = f"{'template':16} {'queries':>8} {'prec':>8} {'recall':>8} {'f1':>8} {'pairwise':>9}"
    print(header)
    for name in TEMPLATE_NAMES:
        row = report.templates[name]

        def cell(value, pattern="{:.4f}"):
            return "-" if value is None else pattern.format(value)

        print(
            f"{name:16} {row['queries']:>8} {cell(row['precision']):>8}"
            f" {cell(row['recall']):>8} {cell(row['f1']):>8}"
            f" {cell(row['pairwise'], '{:.2f}%'):>9}"
        )
    overall = report.overall
    if overall.get("pairwise") is not None:
        print(f"overall pairwise: {overall['pairwise']:.2f}%")
    return 0


_HANDLERS = {
    "stats": _cmd_stats,
    "split": _cmd_split,
    "sample": _cmd_sample,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
}
_NEEDS_GRAPH = ("stats", "split", "sample", "train", "eval")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxquery",
        description="Answer conjunctive queries over knowledge graphs with box embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, graph_flags: bool = True) -> None:
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        if graph_flags:
            p.add_argument("--graph", help="graph triples file (graph_path)")
            p.add_argument("--types", help="entity type map file (types_path)")
            p.add_argument("--format", choices=_FORMATS, help="graph file format")
        p.add_argument("--out", help="run directory (out_dir)")
        p.add_argument("--seed", type=int, help="RNG seed")

    p_stats = sub.add_parser("stats", help="print entity/relation/edge counts")
    common(p_stats)
    p_stats.add_argument("--json", help="also write full stats as JSON here")

    common(sub.add_parser("split", help="mark edges for removal and write both sets"))
    common(sub.add_parser("sample", help="generate query datasets into the run directory"))

    p_train = sub.add_parser("train", help="train on the sampled datasets")
    common(p_train)
    p_train.add_argument("--resume", help="checkpoint file to resume from")

    p_eval = sub.add_parser("eval", help="evaluate a trained checkpoint")
    common(p_eval)
    p_eval.add_argument("--split", choices=("train", "val", "test"), default="test")
    p_eval.add_argument("--mode", choices=MODES, default="both")
    p_eval.add_argument(
        "--full-ranking",
        action="store_true",
        help="rank against every non-answer instead of the stored negatives",
    )

    p_report = sub.add_parser("report", help="pretty-print or convert a report")
    common(p_report, graph_flags=False)
    p_report.add_argument("--input", help="report JSON (default: out_dir/report_test.json)")
    p_report.add_argument("--format", choices=("text", "csv"), default="text")
    p_report.add_argument("--output", help="target file for csv output")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        _apply_key(cfg, key.strip(), value.strip())
    if getattr(args, "graph", None):
        cfg.graph_path = args.graph
    if getattr(args, "types", None):
        cfg.types_path = args.types
    if getattr(args, "format", None) and args.command != "report":
        cfg.format = args.format
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        problems = validate_config(cfg, needs_graph=args.command in _NEEDS_GRAPH)
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 2
        return _HANDLERS[args.command](cfg, args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
