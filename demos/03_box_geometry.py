"""Axis-aligned boxes: the geometric primitive behind every embedding.

A box is a center plus a nonnegative per-dimension offset (half-width).
Membership and overlap are closed-interval tests, both read as
|c - c'| <= o + o' (a point has offset zero), and the training
distance decomposes into an outside part (zero exactly when the boxes
overlap) and an inside part that gently pulls matched boxes together.
"""

import numpy as np

from boxquery.boxes import (
    Box,
    contains,
    contains_box,
    distance,
    distance_inside,
    distance_outside,
    intersects,
    materialize,
)

a = Box(np.array([0.0, 0.0]), np.array([2.0, 1.0]))
print("box a: center", a.center, "offset", a.offset)
print("a spans x in [-2, 2], y in [-1, 1]")

print()
print("== membership ==")
for point in ([0.5, 0.5], [2.0, 1.0], [2.5, 0.0]):
    print(f"  {point} inside a: {contains(a, np.array(point))}")
print("  a point is a box of zero offset, so membership is the overlap test:")
thin = Box(np.array([0.1]), np.array([0.2]))
edge = np.array([0.1 + 0.2])  # one ulp past 0.3, and |edge - 0.1| > 0.2
inside, touching = contains(thin, edge), intersects(thin, Box(edge, np.zeros(1)))
print(f"  point 0.1 + 0.2 vs box 0.1 +- 0.2: contains={inside}, intersects={touching}")
assert inside == touching

print()
print("== overlap ==")
b = Box(np.array([3.0, 0.0]), np.array([1.0, 1.0]))   # touches a at x=2
c = Box(np.array([5.0, 5.0]), np.array([0.5, 0.5]))   # far away
inner = Box(np.array([0.5, 0.2]), np.array([0.5, 0.3]))
for name, other in (("b (touching)", b), ("c (far)", c), ("inner", inner)):
    print(f"  a vs {name:12}: intersects={intersects(a, other)}, "
          f"outside={distance_outside(a, other):.3f}, "
          f"inside={distance_inside(a, other):.3f}")
print("  touching boxes count as overlapping: closed intervals")
print("  a contains inner:", contains_box(a, inner))

print()
print("== the combined distance ==")
print("distance = outside + alpha * inside, alpha =", 0.02)
print("  overlapping boxes keep a small positive distance, so gradients")
print("  still pull a matched pair together instead of dying at zero:")
for name, other in (("b", b), ("c", c), ("a itself", a)):
    print(f"  distance(a, {name:8}) = {distance(a, other):.4f}")

print()
print("== degenerate boxes are points ==")
p = materialize(np.array([1.0, 0.0]), np.array([-0.5, 0.0]))  # offsets clamp to 0
print("requested offset [-0.5, 0], materialized:", p.offset)
print("a point inside a still intersects:", intersects(a, p))
