"""Synthetic knowledge graphs for tests, demos, and desk-scale experiments.

Three generators with different purposes:

* :func:`toy_collaboration_graph` -- a seven-entity person/topic/project
  graph, small enough to verify query answers by hand.
* :func:`random_graph` -- unstructured noise graphs for oracle
  cross-checks.
* :func:`hub_graph` -- mid-size graphs whose chain queries fan out through
  high-degree nodes, mimicking the target-set growth seen on real KGs.
* :func:`clustered_graph` -- a planted-structure graph where query answers
  are concentrated in clusters, so an embedding model has something
  learnable to exploit.
"""

from __future__ import annotations

import numpy as np

from .graphs import KnowledgeGraph, build_graph


def toy_collaboration_graph() -> KnowledgeGraph:
    """Two people working on topics that are related to projects."""
    triples = [
        ("Alice", "works_on", "T1"),
        ("Bob", "works_on", "T1"),
        ("Bob", "works_on", "T2"),
        ("T1", "related", "P1"),
        ("T1", "related", "P2"),
        ("T2", "related", "P3"),
    ]
    types = {
        "Alice": "person",
        "Bob": "person",
        "T1": "topic",
        "T2": "topic",
        "P1": "project",
        "P2": "project",
        "P3": "project",
    }
    return build_graph(triples, types)


def random_graph(
    rng: np.random.Generator,
    n_entities: int,
    n_relations: int,
    n_edges: int,
    n_types: int = 0,
) -> KnowledgeGraph:
    """Uniform random triples; duplicates collapse, so edge count may be lower."""
    heads = rng.integers(0, n_entities, size=n_edges)
    rels = rng.integers(0, n_relations, size=n_edges)
    tails = rng.integers(0, n_entities, size=n_edges)
    triples = [
        (f"e{h}", f"r{r}", f"e{t}") for h, r, t in zip(heads, rels, tails)
    ]
    types = None
    if n_types > 0:
        types = {f"e{i}": f"type{i % n_types}" for i in range(n_entities)}
    return build_graph(triples, types)


def hub_graph(
    rng: np.random.Generator,
    n_entities: int = 2000,
    n_relations: int = 5,
    relation_prob: float = 0.4,
    mean_fanout: float = 2.5,
    n_types: int = 4,
) -> KnowledgeGraph:
    """Graph with per-node fan-out so chain answers multiply with length.

    Each (entity, relation) pair is active with probability
    ``relation_prob`` and then links to ``1 + Poisson(mean_fanout)``
    uniformly drawn tails.  One-hop answer sets stay small while two- and
    three-hop sets grow geometrically, which is the regime where a target
    cap matters.
    """
    triples = []
    for e in range(n_entities):
        for r in range(n_relations):
            if rng.random() >= relation_prob:
                continue
            k = 1 + rng.poisson(mean_fanout)
            for t in rng.integers(0, n_entities, size=k):
                triples.append((f"e{e}", f"r{r}", f"e{t}"))
    types = {f"e{i}": f"type{i % n_types}" for i in range(n_entities)}
    return build_graph(triples, types)


def clustered_graph(
    rng: np.random.Generator,
    n_entities: int = 200,
    n_relations: int = 5,
    n_clusters: int = 8,
    out_degree: int = 4,
    n_types: int = 4,
) -> KnowledgeGraph:
    """Planted cluster structure: relations map whole clusters to clusters.

    Entities are split into equal clusters.  For each relation, a fixed
    random permutation of clusters decides where its edges go: an edge for
    relation r starting in cluster c always ends in cluster sigma_r(c).
    Every (entity, relation) pair links to ``out_degree`` random members of
    the image cluster.  Answers to chain and intersection queries are then
    confined to single clusters, so entities of a cluster can profitably be
    embedded close together.
    """
    if n_entities % n_clusters:
        raise ValueError("n_entities must be divisible by n_clusters")
    size = n_entities // n_clusters
    members = [np.arange(c * size, (c + 1) * size) for c in range(n_clusters)]
    triples = []
    for r in range(n_relations):
        sigma = rng.permutation(n_clusters)
        for c in range(n_clusters):
            image = members[sigma[c]]
            for e in members[c]:
                tails = rng.choice(image, size=min(out_degree, len(image)), replace=False)
                for t in tails:
                    triples.append((f"e{e}", f"r{r}", f"e{t}"))
    types = {f"e{i}": f"type{(i // size) % n_types}" for i in range(n_entities)}
    return build_graph(triples, types)
