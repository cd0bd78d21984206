"""Build a small knowledge graph, inspect it, and round-trip it to disk.

The running example is a toy collaboration graph: two people work on
topics, topics relate to projects.  Every other demo reuses either this
graph or a larger synthetic one.
"""

import json
import tempfile
from pathlib import Path

from boxquery.graphs import build_graph, graph_stats, load_graph, neighbors, save_graph

triples = [
    ("Alice", "works_on", "T1"),
    ("Bob", "works_on", "T1"),
    ("Bob", "works_on", "T2"),
    ("T1", "related", "P1"),
    ("T1", "related", "P2"),
    ("T2", "related", "P2"),
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

kg = build_graph(triples, types)

print("== construction ==")
print(f"{kg.num_entities} entities, {kg.num_relations} relation types, "
      f"{len(kg.edges)} edges, {kg.num_types} entity types")
ids = {label: kg.entity_id(label) for label in kg.entity_labels}
print("entity ids are assigned in first-seen order:", ids)

print()
print("== stats ==")
print(json.dumps(graph_stats(kg), indent=2, sort_keys=True))

print()
print("== adjacency queries ==")
works_on = kg.relation_id("works_on")
bob = kg.entity_id("Bob")
out = neighbors(kg, bob, works_on, "out")
print("Bob works on:", sorted(kg.entity_labels[e] for e in out))
t1 = kg.entity_id("T1")
into = neighbors(kg, t1, works_on, "in")
print("T1 is worked on by:", sorted(kg.entity_labels[e] for e in into))

print()
print("== save / load round trip ==")
with tempfile.TemporaryDirectory() as tmp:
    triples_path = Path(tmp) / "graph.tsv"
    types_path = Path(tmp) / "types.tsv"
    save_graph(kg, triples_path, types_path)
    print("TSV on disk:")
    print(triples_path.read_text(), end="")
    again = load_graph(triples_path, types_path)
    same = again.edges == kg.edges
    print("reloaded edges match:", same)
    assert same, "the reloaded graph's edges differ from the saved ones"

    # the same loader accepts N-Triples, the native format of RDF dumps
    nt_path = Path(tmp) / "graph.nt"
    nt_path.write_text(
        "<http://ex.org/Alice> <http://ex.org/works_on> <http://ex.org/T1> .\n"
        '<http://ex.org/Alice> <http://ex.org/name> "Alice Smith" .\n'
    )
    rdf = load_graph(nt_path, fmt="ntriples")
    print("from N-Triples, literal statement skipped:")
    print("  entities:", list(rdf.entity_labels))
    print("  relations:", list(rdf.relation_labels))
