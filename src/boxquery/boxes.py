"""Axis-aligned hyper-rectangles for entities and queries.

A box is a center vector plus a componentwise nonnegative offset (half
width).  Boxes are closed: two overlap when ``|c - q_c| <= o + q_o`` in every
dimension, so boundary contact counts; a point is a box of zero offset.

The box-to-box distance has an outside part (the componentwise gap between
the two rectangles) and an inside part (center separation capped at the
combined half widths), combined as ``outside + alpha * inside``.  With a
zero-offset argument it reduces to the familiar point-to-box form, and
``outside == 0`` is exactly the intersection predicate.

Both read two arrays per entity box, ``|c - q_c|`` and ``o + q_o``, which
:func:`separation` forms once for a whole table of boxes; :func:`overlaps`
and :func:`distances` are the numpy kernel that evaluation scans with, and
the :class:`Box` predicates (:func:`intersects`, :func:`contains`,
:func:`contains_box`) and distances apply it to a one-row table.
:func:`box_distance_t` is the same kernel as one tape node, for the
training path, differentiable with respect to the raw parameters that
:func:`split_raw_box` splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor2

DEFAULT_ALPHA = 0.02


@dataclass(frozen=True)
class Box:
    center: np.ndarray
    offset: np.ndarray

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def __post_init__(self):
        if self.center.shape != self.offset.shape or self.center.ndim != 1:
            raise ValueError(
                f"center/offset must be equal-length vectors, got "
                f"{self.center.shape} and {self.offset.shape}"
            )


def materialize(raw_center, raw_offset) -> Box:
    """Clamp raw offsets at zero and build a Box.

    Offsets are stored unconstrained during optimization; the clamp (with
    zero gradient on the negative side) is what keeps realized boxes valid.
    """
    center = np.asarray(raw_center, dtype=np.float64)
    offset = np.asarray(raw_offset, dtype=np.float64)
    if center.shape != offset.shape:
        raise ValueError(f"dimension mismatch: {center.shape} vs {offset.shape}")
    return Box(center=center.copy(), offset=np.maximum(offset, 0.0))


def contains(box: Box, point) -> bool:
    """Closed-box membership of a point: overlap with the point's zero-offset box."""
    v = np.asarray(point, dtype=np.float64)
    return intersects(box, Box(v, np.zeros_like(v)))


def intersects(a: Box, b: Box) -> bool:
    """True when the closed boxes share at least one point (touching counts)."""
    return bool(overlaps(*_pair(a, b))[0])


def contains_box(outer: Box, inner: Box) -> bool:
    """Full interval containment; stricter alternative answer criterion.  The
    overlap test with the inner offsets negated, ``|c_in - c_out| <= o_out - o_in``."""
    return intersects(outer, Box(inner.center, -inner.offset))


def distance_outside(a: Box, b: Box) -> float:
    return float(_distance_parts(*_pair(a, b))[0][0])


def distance_inside(a: Box, b: Box) -> float:
    return float(_distance_parts(*_pair(a, b))[1][0])


def distance(a: Box, b: Box, alpha: float = DEFAULT_ALPHA) -> float:
    """Outside gap plus alpha-weighted inside separation; zero iff identical centers."""
    return float(distances(*_pair(a, b), alpha)[0])


def _pair(a: Box, b: Box) -> tuple[np.ndarray, np.ndarray]:
    """:func:`separation` of ``b`` as a one-row table from ``a``."""
    if a.center.shape != b.center.shape:
        raise ValueError(f"dimension mismatch: {a.center.shape} vs {b.center.shape}")
    return separation(a.center, a.offset, b.center[None, :], b.offset[None, :])


# -- the overlap and distance kernel ------------------------------------------


def separation(
    q_center: np.ndarray,
    q_offset: np.ndarray,
    centers: np.ndarray,
    offsets: np.ndarray,
    delta: np.ndarray | None = None,
    span: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per entity box, ``|c - q_c|`` and ``o + q_o``, what overlap and distance read.

    ``offsets`` must already be clamped.  Results go into ``delta`` and
    ``span`` when given, which may be ``centers`` and ``offsets`` themselves.
    """
    delta = np.subtract(centers, q_center, out=delta)
    np.abs(delta, out=delta)
    return delta, np.add(offsets, q_offset, out=span)


# The bytes of a boolean array are 0 or 1, so eight of them read as one
# word are all True exactly when the word equals this.
_TRUE_WORD = np.uint64(0x0101010101010101)


def overlap_buffer(rows: int, cols: int) -> np.ndarray:
    """A boolean work buffer for :func:`overlaps` on ``rows x cols`` inputs.

    Its rows are padded with True to a whole number of 8-byte words, at
    least one, so zero columns overlap as an empty ``all`` would.
    """
    out = np.empty((rows, max(-(-cols // 8), 1) * 8), dtype=bool)
    out[:, cols:] = True
    return out


def overlaps(
    delta: np.ndarray, span: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Which entity boxes overlap the query box, from :func:`separation`.

    Boxes are closed, so touching counts as overlap; equivalently the
    outside distance is exactly zero, and a NaN never overlaps.  ``out``
    is a buffer from :func:`overlap_buffer`.  Each row of comparisons is
    reduced as words, ANDed together, rather than byte by byte.
    """
    rows, cols = delta.shape
    if out is None:
        out = overlap_buffer(rows, cols)
    np.less_equal(delta, span, out=out[:, :cols])
    words = out.view(np.uint64)
    every = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        every &= words[:, j]
    return every == _TRUE_WORD


def _distance_parts(
    delta: np.ndarray, span: np.ndarray, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per entity box, the outside and the inside distance, from :func:`separation`."""
    work = np.subtract(delta, span, out=work)
    outside = np.maximum(work, 0.0, out=work).sum(axis=1)
    inside = np.minimum(delta, span, out=work).sum(axis=1)
    return outside, inside


def distances(
    delta: np.ndarray,
    span: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Box distance per entity, ``outside + alpha * inside``, from :func:`separation`.

    ``work`` is a float work buffer shaped like ``delta``.
    """
    outside, inside = _distance_parts(delta, span, work)
    return outside + alpha * inside


# -- differentiable path -----------------------------------------------------


def split_raw_box(raw: Tensor2) -> tuple[Tensor2, Tensor2]:
    """Split rows of raw 2d-vectors into (centers, clamped offsets)."""
    if raw.cols % 2:
        raise ValueError(f"raw box vectors need an even width, got {raw.cols}")
    d = raw.cols // 2
    center = ad.slice_cols(raw, 0, d)
    offset = ad.relu(ad.slice_cols(raw, d, 2 * d))  # clamp, zero grad below 0
    return center, offset


def box_distance_t(
    q_center: Tensor2,
    q_offset: Tensor2,
    e_centers: Tensor2,
    e_offsets: Tensor2,
    alpha: float = DEFAULT_ALPHA,
) -> Tensor2:
    """Column of distances from one query box to n entity boxes, one tape node.

    The query side is a single row broadcast against n-row entity
    matrices; offsets are assumed already clamped.  The value is
    :func:`distances`, and the adjoint repeats the arithmetic of the
    distance composed from tape operations, so gradients keep its bits.
    """
    # backward visits parents last to first, so this order visits the inputs
    # as the composed form did and a shared table gets its adjoints in order
    parents = (e_centers, q_center, e_offsets, q_offset)
    delta, span = separation(q_center.data, q_offset.data, e_centers.data, e_offsets.data)
    if delta.shape != span.shape or {p.cols for p in parents} != {delta.shape[1]}:
        raise ValueError(f"shape mismatch: {[p.shape for p in parents]}")

    def vjp(g):
        # two terms per sum, so their order cannot show; a NaN takes neither mask
        g_in, g_gap, take_delta = g * alpha, g * (delta > span), delta <= span
        d_delta = (g_gap + g_in * take_delta) * np.sign(e_centers.data - q_center.data)
        d_span = g_gap * -1.0 + g_in * ~take_delta
        return (
            ad._reduce_rows(d_delta, e_centers.rows),
            ad._reduce_rows(d_delta * -1.0, q_center.rows),
            ad._reduce_rows(d_span, e_offsets.rows),
            ad._reduce_rows(d_span * 1.0, q_offset.rows),
        )

    return Tensor2._result(distances(delta, span, alpha)[:, None], parents, vjp)


def random_box(rng: np.random.Generator, dim: int, center_scale: float = 5.0,
               offset_scale: float = 2.0) -> Box:
    """Random box helper for property tests and demos."""
    return materialize(
        rng.normal(0.0, center_scale, size=dim),
        rng.normal(offset_scale / 2, offset_scale, size=dim),
    )
