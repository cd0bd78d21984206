"""Tests for the synthetic graph generators."""

import numpy as np

from boxquery.graphs import build_graph
from boxquery.synthetic import clustered_graph


def test_clustered_graph_matches_list_based_loop():
    # reference: cluster members as Python lists, converted by every draw
    rng = np.random.default_rng(12)
    n_entities, n_relations, n_clusters, out_degree, n_types = 96, 3, 8, 4, 4
    size = n_entities // n_clusters
    members = [list(range(c * size, (c + 1) * size)) for c in range(n_clusters)]
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
    expected = build_graph(triples, types)

    kg = clustered_graph(
        np.random.default_rng(12), n_entities, n_relations, n_clusters, out_degree, n_types
    )
    assert kg.edges == expected.edges
    assert kg.entity_labels == expected.entity_labels
    assert kg.entity_types == expected.entity_types
