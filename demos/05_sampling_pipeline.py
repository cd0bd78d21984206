"""From a raw graph to reproducible train/val/test query datasets.

The pipeline marks a fraction of edges as removed, samples queries
edge-first (the first edge drawn fixes the target), executes each query
for its answer set, attaches uniform and hard negatives, and routes every
query to a split by whether its witness edges touch the removed set.
Identical seeds give byte-identical datasets.
"""

import filecmp
import json
import tempfile
from pathlib import Path

import numpy as np

from boxquery.sampling import (
    SamplerConfig,
    generate_datasets,
    split_edges,
    write_datasets,
)
from boxquery.synthetic import hub_graph

kg = hub_graph(np.random.default_rng(8), n_entities=500)
print(f"synthetic graph: {kg.num_entities} entities, {len(kg.edges)} edges, "
      f"{kg.num_relations} relations")

print()
print("== edge marking ==")
split = split_edges(kg, fraction=0.10, seed=8)
print(f"kept {len(split.train_edges)}, removed {len(split.removed_edges)} "
      f"(10% rounded half-up)")

print()
print("== sampling ==")
cfg = SamplerConfig(
    quotas={"1-chain": 50, "2-chain": 30, "2-inter": 30, "3-chain-inter": 20},
    negatives_per_query=10,
    hard_negative_fraction=0.5,
    seed=8,
)
instances, manifest = generate_datasets(kg, split, cfg)
print("per-split counts:", json.dumps(manifest["counts"], sort_keys=True))
print("rejections:", json.dumps(manifest["rejections"], sort_keys=True))

held = next(i for i in instances if i.split != "train")
print()
print("== one held-out instance ==")
print(f"template {held.query.template}, split {held.split}")
print(f"answers: {len(held.targets)}, uniform negatives: {len(held.negatives)}, "
      f"hard negatives: {len(held.hard_negatives)}")
removed = set(split.removed_edges)
print("witness edges touching removed set:",
      sum(e in removed for e in held.witness_edges), "of", len(held.witness_edges))
print("(that overlap is exactly why it is held out)")

print()
print("== determinism ==")
with tempfile.TemporaryDirectory() as tmp:
    dirs = []
    for sub in ("first", "second"):
        out = Path(tmp) / sub
        redo, man = generate_datasets(kg, split, cfg)
        write_datasets(out, kg, redo, man)
        dirs.append(out)
    files = ["train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"]
    match, mismatch, _ = filecmp.cmpfiles(*dirs, files, shallow=False)
    print(f"regenerated twice: {len(match)}/{len(files)} files byte-identical")
    assert match == files, f"regenerated files differ: {mismatch}"
