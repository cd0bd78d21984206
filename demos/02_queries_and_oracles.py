"""Conjunctive queries: the seven shapes and the exact executors.

A query is a little DAG whose leaves are bound to concrete entities
(anchors) and whose single target node collects the answers.  Running it
against a graph is plain subgraph matching, and the package ships two
independent implementations: a set-propagation executor, exact because
every shape is an in-tree, and a brute-force enumerator kept around as
its oracle.
"""

from boxquery.queries import (
    TEMPLATES,
    execute,
    execute_by_enumeration,
    execute_relaxed,
    instantiate,
)
from boxquery.synthetic import toy_collaboration_graph

kg = toy_collaboration_graph()
names = {e: kg.entity_labels[e] for e in range(kg.num_entities)}

print("== the seven templates ==")
for tpl in TEMPLATES.values():
    print(f"{tpl.name:>14}: {tpl.num_anchors} anchor(s), "
          f"{tpl.num_edges} edge(s), diameter {tpl.diameter}, "
          f"{'has' if tpl.has_intersection else 'no'} intersection")

# "which projects are related to a topic that both Alice and Bob work on?"
works = kg.relation_id("works_on")
related = kg.relation_id("related")
alice, bob = kg.entity_id("Alice"), kg.entity_id("Bob")
q = instantiate("3-chain-inter", [alice, bob], [works, works, related])

print()
print("== a two-anchor query ==")
print("projects related to a topic both Alice and Bob work on")
strict = execute(kg, q)
print("strict answers:   ", sorted(names[e] for e in strict))
agrees = execute_by_enumeration(kg, q) == strict
print("oracle agrees:    ", agrees)
assert agrees, "the executor and the enumeration oracle disagree"

# weakening the intersection ("a topic Alice OR Bob works on") admits more
# answers; the surplus makes good hard negatives for training
relaxed = execute_relaxed(kg, q)
print("relaxed answers:  ", sorted(names[e] for e in relaxed))
print("hard negatives:   ", sorted(names[e] for e in relaxed - strict))

print()
print("== chains just follow edges ==")
for name, anchors, rels in [
    ("1-chain", [alice], [works]),
    ("2-chain", [alice], [works, related]),
]:
    answers = execute(kg, instantiate(name, anchors, rels))
    print(f"{name}: from Alice ->", sorted(names[e] for e in answers))
