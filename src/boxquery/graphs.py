"""Indexed, immutable knowledge graphs loaded from triple files.

A knowledge graph is a set of entities, a set of relation types, and a set
of directed labeled edges ``r(h, t)``.  Entities and relations get dense
integer ids in first-seen order, which makes id assignment reproducible for
a given input file.  Entities may carry a type (person, project, ...) from
an optional two-column type map; entities without an entry share a reserved
"untyped" type id equal to ``num_types``.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

Edge = tuple[int, int, int]  # (head id, relation id, tail id)


class GraphParseError(ValueError):
    """Raised for a malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable triple store with out/in adjacency indices.

    Edges are deduplicated (set semantics) but kept in first-seen order so
    that serialization round-trips to the same id assignment.  The graph is
    safe for concurrent reads; there is no mutation API.
    """

    entity_labels: tuple[str, ...]
    relation_labels: tuple[str, ...]
    type_labels: tuple[str, ...]
    entity_types: tuple[int, ...]  # per entity id; untyped entities get num_types
    edges: tuple[Edge, ...]
    edge_set: frozenset[Edge] = field(repr=False)
    out_index: dict[tuple[int, int], tuple[int, ...]] = field(repr=False)
    in_edges: dict[int, tuple[tuple[int, int], ...]] = field(repr=False)

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_relations(self) -> int:
        return len(self.relation_labels)

    @property
    def num_types(self) -> int:
        """Number of named entity types (the untyped id is not counted)."""
        return len(self.type_labels)

    @property
    def untyped_type_id(self) -> int:
        return len(self.type_labels)

    def entity_id(self, label: str) -> int:
        try:
            return self._entity_ids[label]
        except KeyError:
            raise KeyError(f"unknown entity label: {label!r}") from None

    def relation_id(self, label: str) -> int:
        try:
            return self._relation_ids[label]
        except KeyError:
            raise KeyError(f"unknown relation label: {label!r}") from None

    def __post_init__(self):
        object.__setattr__(
            self, "_entity_ids", {s: i for i, s in enumerate(self.entity_labels)}
        )
        object.__setattr__(
            self, "_relation_ids", {s: i for i, s in enumerate(self.relation_labels)}
        )


def build_graph(
    triples: Iterable[tuple[str, str, str]],
    types: dict[str, str] | None = None,
) -> KnowledgeGraph:
    """Assemble a graph from (head, relation, tail) label triples.

    Duplicate triples are silently dropped.  Type entries for labels that
    never appear in a triple are reported as warnings and ignored.
    ``triples`` is read once, so a generator will do.
    """
    return _assemble(_index_triples(triples), types)


@dataclass
class _TripleIndex:
    """The id-level part of a graph, built while the triples stream in."""

    entity_ids: dict[str, int]
    relation_ids: dict[str, int]
    edges: tuple[Edge, ...]  # deduplicated, in first-seen order
    out_index: dict[tuple[int, int], tuple[int, ...]]
    in_edges: dict[int, tuple[tuple[int, int], ...]]


def _index_triples(triples: Iterable[tuple[str, str, str]]) -> _TripleIndex:
    """Assign ids, drop duplicate edges and fill the adjacency indices in
    one pass, holding no label triple past its own line.

    ``in_edges`` holds the very ``(h, r)`` tuples that key ``out_index``.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    edges: dict[Edge, None] = {}  # an ordered set
    out_index: dict[tuple[int, int], list] = {}
    in_edges: dict[int, list] = {}
    pairs: dict[tuple[int, int], tuple[int, int]] = {}  # one tuple per (h, r)
    for h_label, r_label, t_label in triples:
        h = entity_ids.setdefault(h_label, len(entity_ids))
        r = relation_ids.setdefault(r_label, len(relation_ids))
        t = entity_ids.setdefault(t_label, len(entity_ids))
        edge = (h, r, t)
        if edge in edges:
            continue
        edges[edge] = None
        hr = pairs.setdefault((h, r), (h, r))
        out_index.setdefault(hr, []).append(t)
        in_edges.setdefault(t, []).append(hr)
    for index in (out_index, in_edges):
        for key, values in index.items():
            index[key] = tuple(values)
    return _TripleIndex(
        entity_ids, relation_ids, tuple(edges), out_index, in_edges
    )


def _assemble(index: _TripleIndex, types: dict[str, str] | None) -> KnowledgeGraph:
    """Attach entity types to indexed triples and freeze the graph."""
    entity_ids = index.entity_ids
    type_ids: dict[str, int] = {}
    if types:
        for label, type_label in types.items():
            if label not in entity_ids:
                log.warning("type entry for unseen entity %r ignored", label)
                continue
            if type_label not in type_ids:
                type_ids[type_label] = len(type_ids)
        untyped = len(type_ids)
        entity_types = [untyped] * len(entity_ids)
        for label, type_label in types.items():
            if label in entity_ids:
                entity_types[entity_ids[label]] = type_ids[type_label]
    else:
        entity_types = [0] * len(entity_ids)  # untyped id is 0 when no map given

    return KnowledgeGraph(
        entity_labels=tuple(entity_ids),
        relation_labels=tuple(index.relation_ids),
        type_labels=tuple(type_ids),
        entity_types=tuple(entity_types),
        edges=index.edges,
        edge_set=frozenset(index.edges),
        out_index=index.out_index,
        in_edges=index.in_edges,
    )


def _parse_tsv_triple(line: str, line_number: int) -> tuple[str, str, str]:
    fields = line.split("\t") if "\t" in line else line.split()
    if len(fields) != 3:
        raise GraphParseError(f"expected 3 fields, got {len(fields)}", line_number)
    return fields[0], fields[1], fields[2]


def _strip_iri(token: str, line_number: int) -> str:
    if token.startswith("<") and token.endswith(">"):
        return token[1:-1]
    if token.startswith("_:"):  # blank node, kept verbatim
        return token
    raise GraphParseError(f"expected IRI or blank node, got {token!r}", line_number)


def _parse_ntriples_line(line: str, line_number: int) -> tuple[str, str, str] | None:
    """Parse one N-Triples statement; returns None for literal objects."""
    if not line.endswith("."):
        raise GraphParseError("statement does not end with '.'", line_number)
    body = line[:-1].strip()
    parts = body.split(None, 2)
    if len(parts) != 3:
        raise GraphParseError(f"expected 3 terms, got {len(parts)}", line_number)
    subj, pred, obj = parts
    if obj.startswith('"'):
        return None  # literal object: the datasets here are entity-to-entity graphs
    return _strip_iri(subj, line_number), _strip_iri(pred, line_number), _strip_iri(obj, line_number)


def _read_lines(path: Path) -> Iterable[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield number, line


def load_types(path: str | Path) -> dict[str, str]:
    """Read a two-column TSV mapping entity label to type label."""
    types: dict[str, str] = {}
    for number, line in _read_lines(Path(path)):
        fields = line.split("\t") if "\t" in line else line.split()
        if len(fields) != 2:
            raise GraphParseError(f"expected 2 fields, got {len(fields)}", number)
        types[fields[0]] = fields[1]
    return types


def load_graph(
    triples_path: str | Path,
    types_path: str | Path | None = None,
    fmt: str = "tsv",
) -> KnowledgeGraph:
    """Load a graph from a 3-column TSV or N-Triples file.

    ``fmt`` is one of ``"tsv"`` or ``"ntriples"``.  The N-Triples front end
    strips IRI brackets and skips statements whose object is a literal.
    """
    if fmt not in ("tsv", "ntriples"):
        raise ValueError(f"unknown format: {fmt!r}")
    # the triples are indexed before the types file is opened, so a
    # malformed triples line is reported first
    index = _index_triples(_parse_triples(Path(triples_path), fmt))
    types = load_types(types_path) if types_path else None
    return _assemble(index, types)


def _parse_triples(path: Path, fmt: str) -> Iterator[tuple[str, str, str]]:
    for number, line in _read_lines(path):
        if fmt == "tsv":
            yield _parse_tsv_triple(line, number)
        else:
            parsed = _parse_ntriples_line(line, number)
            if parsed is not None:
                yield parsed


def save_graph(
    kg: KnowledgeGraph,
    triples_path: str | Path,
    types_path: str | Path | None = None,
) -> None:
    """Write the graph back out as canonical TSV (edges in stored order)."""
    with open(triples_path, "w", encoding="utf-8") as fh:
        for h, r, t in kg.edges:
            fh.write(
                f"{kg.entity_labels[h]}\t{kg.relation_labels[r]}\t{kg.entity_labels[t]}\n"
            )
    if types_path is not None:
        with open(types_path, "w", encoding="utf-8") as fh:
            for e in range(kg.num_entities):
                tid = kg.entity_types[e]
                if tid < kg.num_types:
                    fh.write(f"{kg.entity_labels[e]}\t{kg.type_labels[tid]}\n")


def neighbors(kg: KnowledgeGraph, entity: int, relation: int, direction: str = "out") -> set[int]:
    """Entities reachable from ``entity`` over ``relation`` in one hop.

    ``out`` returns all t with r(entity, t); ``in`` returns all h with
    r(h, entity).
    """
    if not 0 <= entity < kg.num_entities:
        raise KeyError(f"unknown entity id: {entity}")
    if not 0 <= relation < kg.num_relations:
        raise KeyError(f"unknown relation id: {relation}")
    if direction == "out":
        return set(kg.out_index.get((entity, relation), ()))
    if direction == "in":
        return {h for h, r in kg.in_edges.get(entity, ()) if r == relation}
    raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")


def graph_stats(kg: KnowledgeGraph) -> dict:
    """Summary counts plus a total-degree histogram, JSON-serializable."""
    degree: Counter[int] = Counter()
    for h, _, t in kg.edges:
        degree[h] += 1
        degree[t] += 1
    histogram = Counter(degree.get(e, 0) for e in range(kg.num_entities))
    return {
        "entities": kg.num_entities,
        "entity_types": kg.num_types,
        "edges": len(kg.edges),
        "relation_types": kg.num_relations,
        "degree_histogram": {str(d): histogram[d] for d in sorted(histogram)},
    }


def stats_json(kg: KnowledgeGraph) -> str:
    return json.dumps(graph_stats(kg), indent=2, sort_keys=True)
