import logging

import numpy as np
import pytest

from boxquery.graphs import (
    GraphParseError,
    KnowledgeGraph,
    build_graph,
    graph_stats,
    load_graph,
    neighbors,
    save_graph,
)
from boxquery.synthetic import clustered_graph, hub_graph


def test_counts_on_tiny_tsv(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a\tr\tb\nb\ts\tc\n")
    kg = load_graph(p)
    assert kg.num_entities == 3
    assert kg.num_relations == 2
    assert len(kg.edges) == 2


def test_whitespace_tsv_accepted(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a r b\nb s c\n")
    kg = load_graph(p)
    assert kg.num_entities == 3


def test_malformed_line_reports_number(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a\tr\tb\na\tr\n")
    with pytest.raises(GraphParseError) as err:
        load_graph(p)
    assert err.value.line_number == 2


def test_duplicate_edges_collapse():
    kg = build_graph([("a", "r", "b"), ("a", "r", "b"), ("a", "r", "c")])
    assert len(kg.edges) == 2


def test_dense_first_seen_ids():
    kg = build_graph([("x", "r", "y"), ("z", "s", "x")])
    assert kg.entity_labels == ("x", "y", "z")
    assert kg.relation_labels == ("r", "s")


def test_ntriples_parsing(tmp_path):
    p = tmp_path / "g.nt"
    p.write_text(
        "<http://ex/a> <http://ex/r> <http://ex/b> .\n"
        "# a comment\n"
        '<http://ex/a> <http://ex/label> "a literal" .\n'
        "_:blank <http://ex/r> <http://ex/a> .\n"
    )
    kg = load_graph(p, fmt="ntriples")
    assert kg.num_entities == 3  # literal object line is skipped
    assert len(kg.edges) == 2
    assert "http://ex/a" in kg.entity_labels
    assert "_:blank" in kg.entity_labels


def test_ntriples_missing_dot(tmp_path):
    p = tmp_path / "g.nt"
    p.write_text("<http://ex/a> <http://ex/r> <http://ex/b>\n")
    with pytest.raises(GraphParseError):
        load_graph(p, fmt="ntriples")


def test_unknown_format(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a\tr\tb\n")
    with pytest.raises(ValueError):
        load_graph(p, fmt="xml")


def test_types_assignment(kg_t):
    person = kg_t.type_labels.index("person")
    topic = kg_t.type_labels.index("topic")
    assert kg_t.entity_types[kg_t.entity_id("Alice")] == person
    assert kg_t.entity_types[kg_t.entity_id("T2")] == topic
    assert kg_t.num_types == 3
    assert kg_t.untyped_type_id == 3


def test_untyped_fallback():
    kg = build_graph([("a", "r", "b")], types={"a": "thing"})
    assert kg.entity_types[kg.entity_id("a")] == 0
    assert kg.entity_types[kg.entity_id("b")] == kg.untyped_type_id


def test_dangling_type_entry_warns(caplog):
    with caplog.at_level(logging.WARNING):
        kg = build_graph([("a", "r", "b")], types={"ghost": "thing", "a": "thing"})
    assert "ghost" in caplog.text
    assert kg.num_entities == 2


def test_neighbors_on_toy_graph(kg_t):
    alice = kg_t.entity_id("Alice")
    t1 = kg_t.entity_id("T1")
    p1 = kg_t.entity_id("P1")
    works_on = kg_t.relation_id("works_on")
    assert neighbors(kg_t, alice, works_on, "out") == {t1}
    assert neighbors(kg_t, t1, works_on, "in") == {
        kg_t.entity_id("Alice"),
        kg_t.entity_id("Bob"),
    }
    assert neighbors(kg_t, p1, works_on, "out") == set()


def test_neighbors_unknown_id(kg_t):
    with pytest.raises(KeyError):
        neighbors(kg_t, 999, 0, "out")
    with pytest.raises(KeyError):
        neighbors(kg_t, 0, 999, "out")
    with pytest.raises(ValueError):
        neighbors(kg_t, 0, 0, "sideways")


def test_stats_empty_graph():
    kg = build_graph([])
    s = graph_stats(kg)
    assert s["entities"] == 0
    assert s["edges"] == 0
    assert s["relation_types"] == 0
    assert s["entity_types"] == 0


def test_stats_toy_graph(kg_t):
    s = graph_stats(kg_t)
    # Alice,Bob,T1,T2,P1,P2,P3
    assert s["entities"] == 7
    assert s["relation_types"] == 2
    assert s["edges"] == 6
    assert s["entity_types"] == 3
    assert sum(int(d) * c for d, c in s["degree_histogram"].items()) == 2 * 6


def test_edge_index_consistency(kg_t):
    for h, r, t in kg_t.edges:
        assert t in neighbors(kg_t, h, r, "out")
        assert h in neighbors(kg_t, t, r, "in")
    total = sum(
        len(tails) for tails in kg_t.out_index.values()
    )
    assert total == len(kg_t.edges)


def test_roundtrip_serialization(kg_t, tmp_path):
    tp = tmp_path / "g.tsv"
    yp = tmp_path / "t.tsv"
    save_graph(kg_t, tp, yp)
    kg2 = load_graph(tp, yp)
    assert kg2.entity_labels == kg_t.entity_labels
    assert kg2.relation_labels == kg_t.relation_labels
    assert kg2.edges == kg_t.edges
    assert kg2.entity_types == kg_t.entity_types
    # second round trip is byte-stable
    tp2 = tmp_path / "g2.tsv"
    save_graph(kg2, tp2)
    assert tp2.read_text() == tp.read_text()


# -- the streaming build against a list-based reference ----------------------


def reference_build(triples, types=None) -> KnowledgeGraph:
    """The build as it was before it streamed: collect every triple, then
    deduplicate and index in a second pass over a list."""
    triples = list(triples)
    entity_ids, relation_ids = {}, {}
    for h, r, t in triples:
        entity_ids.setdefault(h, len(entity_ids))
        relation_ids.setdefault(r, len(relation_ids))
        entity_ids.setdefault(t, len(entity_ids))
    edges, seen = [], set()
    for h, r, t in triples:
        edge = (entity_ids[h], relation_ids[r], entity_ids[t])
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    type_ids = {}
    if types:
        for label, type_label in types.items():
            if label not in entity_ids:
                logging.getLogger("boxquery.graphs").warning(
                    "type entry for unseen entity %r ignored", label)
            else:
                type_ids.setdefault(type_label, len(type_ids))
        entity_types = [len(type_ids)] * len(entity_ids)
        for label, type_label in types.items():
            if label in entity_ids:
                entity_types[entity_ids[label]] = type_ids[type_label]
    else:
        entity_types = [0] * len(entity_ids)
    out_index, in_edges = {}, {}
    for h, r, t in edges:
        out_index.setdefault((h, r), []).append(t)
        in_edges.setdefault(t, []).append((h, r))
    return KnowledgeGraph(
        entity_labels=tuple(entity_ids),
        relation_labels=tuple(relation_ids),
        type_labels=tuple(type_ids),
        entity_types=tuple(entity_types),
        edges=tuple(edges),
        edge_set=frozenset(edges),
        out_index={k: tuple(v) for k, v in out_index.items()},
        in_edges={k: tuple(v) for k, v in in_edges.items()},
    )


def assert_same_graph(got: KnowledgeGraph, want: KnowledgeGraph) -> None:
    assert got == want
    for index in ("out_index", "in_edges"):
        assert list(getattr(got, index)) == list(getattr(want, index)), index


DUPLICATED = [
    ("a", "r", "b"), ("b", "s", "c"), ("a", "r", "b"), ("c", "r", "a"),
    ("a", "r", "c"), ("b", "s", "c"), ("d", "s", "a"), ("a", "s", "b"),
]
TYPES = {"ghost": "thing", "c": "place", "a": "person", "phantom": "place", "d": "person"}


def test_streaming_build_matches_reference_with_duplicates_and_unseen_types(caplog):
    with caplog.at_level(logging.WARNING):
        want = reference_build(DUPLICATED, TYPES)
    expected_warnings = [r.getMessage() for r in caplog.records]
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        got = build_graph((triple for triple in DUPLICATED), TYPES)  # read once
    assert [r.getMessage() for r in caplog.records] == expected_warnings
    assert len(expected_warnings) == 2
    assert_same_graph(got, want)


def test_in_edges_share_the_out_index_pair_tuples():
    kg = build_graph(DUPLICATED)
    keys = {pair: pair for pair in kg.out_index}
    for pairs in kg.in_edges.values():
        for pair in pairs:
            assert pair is keys[pair]


def test_load_graph_matches_reference_on_ntriples_with_literals(tmp_path):
    p = tmp_path / "g.nt"
    p.write_text(
        "<http://ex/a> <http://ex/r> <http://ex/b> .\n"
        '<http://ex/a> <http://ex/label> "a literal" .\n'
        "_:blank <http://ex/r> <http://ex/a> .\n"
        "<http://ex/a> <http://ex/r> <http://ex/b> .\n"
        '<http://ex/b> <http://ex/name> "b" .\n'
        "<http://ex/b> <http://ex/s> _:blank .\n"
    )
    want = reference_build([
        ("http://ex/a", "http://ex/r", "http://ex/b"),
        ("_:blank", "http://ex/r", "http://ex/a"),
        ("http://ex/a", "http://ex/r", "http://ex/b"),
        ("http://ex/b", "http://ex/s", "_:blank"),
    ])
    assert_same_graph(load_graph(p, fmt="ntriples"), want)


@pytest.mark.parametrize("make", [
    lambda rng: clustered_graph(rng, n_entities=200, n_relations=5),
    lambda rng: hub_graph(rng, n_entities=300),
])
def test_load_graph_matches_reference_on_generated_graphs(make, tmp_path, caplog):
    kg = make(np.random.default_rng(3))
    save_graph(kg, tmp_path / "g.tsv", tmp_path / "t.tsv")
    lines = (tmp_path / "g.tsv").read_text().splitlines()
    # every edge twice, and a type for a label no triple names
    (tmp_path / "g.tsv").write_text("\n".join(lines + lines[::2]) + "\n")
    with (tmp_path / "t.tsv").open("a") as fh:
        fh.write("nobody\tperson\n")
    types = dict(line.split("\t") for line in (tmp_path / "t.tsv").read_text().splitlines())
    with caplog.at_level(logging.WARNING):
        want = reference_build([tuple(line.split("\t")) for line in lines], types)
        got = load_graph(tmp_path / "g.tsv", tmp_path / "t.tsv")
    assert_same_graph(got, want)
    assert len(got.edges) == len(kg.edges)
    assert caplog.text.count("nobody") == 2


@pytest.mark.parametrize("fmt, bad", [
    ("tsv", "c\tr\n"),
    ("ntriples", "<http://ex/c> <http://ex/r> <http://ex/a>\n"),
])
def test_malformed_line_number_after_duplicates_and_comments(tmp_path, fmt, bad):
    good = ("a\tr\tb\n" if fmt == "tsv"
            else "<http://ex/a> <http://ex/r> <http://ex/b> .\n")
    p = tmp_path / "g.txt"
    p.write_text(good + "# comment\n\n" + good + bad + good)
    with pytest.raises(GraphParseError) as err:
        load_graph(p, fmt=fmt)
    assert err.value.line_number == 5


def test_triples_error_comes_before_a_bad_types_file(tmp_path):
    triples = tmp_path / "g.tsv"
    triples.write_text("a\tr\tb\nb\tr\tc\nc\tr\n")
    types = tmp_path / "t.tsv"
    types.write_text("a\n")
    with pytest.raises(GraphParseError) as err:
        load_graph(triples, types)
    assert err.value.line_number == 3
    assert "expected 3 fields" in str(err.value)
    triples.write_text("a\tr\tb\n")
    with pytest.raises(GraphParseError, match="expected 2 fields"):
        load_graph(triples, types)
