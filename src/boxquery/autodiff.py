"""Small reverse-mode autodiff over dense 2-D float64 arrays.

The model here is tiny and fixed-shape, so this engine stays deliberately
minimal: matrices only, a handful of operations, and one broadcasting rule
(a 1-row tensor combines elementwise with an n-row tensor; its gradient is
summed over rows).  Everything runs in float64 with numpy's deterministic
reduction order.

Gradients accumulate additively into the ``.grad`` buffers of leaves, the
tensors that no operation made: each call to ``backward()`` adds a leaf's
adjoint in once it is complete, so running backward twice doubles every
gradient exactly.  Intermediate results keep no gradient.

Products are formed row by row (:func:`matmul`, :func:`gathered_matmul`),
so a row of a many-row result has the bits of the same row computed alone.

The adjoint of a row gather is row-sparse (:class:`RowSparse`): it names
the rows a gather read and their summed gradients, so a step touches
only those rows of an embedding table.  It is made dense only where it
meets a dense adjoint or flows into an operation's own adjoint.  Sums
are formed in the order a dense ``np.add.at`` into zeros would form
them, so both forms give the same bits.

Every tensor marks the rows of ``.grad`` that may be nonzero
(``grad_rows``): a row-sparse adjoint marks its rows, any other write
marks :data:`ANY_ROW`.  :meth:`Tensor2.zero_grad` zeroes only the marked
rows, and :func:`adam_step` skips the gradient terms of unmarked rows.

An :class:`AdamState` owns the layout of its parameters: it moves their
data and gradients into two flat buffers (:func:`pack_tensors`), so that
:func:`adam_step` updates every parameter in one pass, and it reads
gradients from that buffer alone.  Gradients reach it only through the
tensors' own ``.grad`` views and their row marks.

Inside :func:`no_grad` operations compute the same values but record no
graph, for forward passes whose result nobody differentiates.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

# False inside no_grad(): results then keep no parents and no vjp
_recording = True


@contextmanager
def no_grad():
    """Compute forward values without recording a graph.

    Results made inside the block have no parents or vjp, so ``backward``
    cannot reach through them; the values themselves are the same numpy
    operations, bit for bit.  Blocks nest, and the previous state returns
    on exit, also when the block raises.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


# The mark of a gradient buffer whose every row may be nonzero
ANY_ROW = slice(None)


class Tensor2:
    """A rows x cols float64 array with an optional gradient buffer.

    ``grad_rows`` marks which rows of ``.grad`` may be nonzero: None for
    none, a list of row-index arrays, or :data:`ANY_ROW`.  ``backward``
    adds the rows it writes, and assigning ``.grad`` marks every row.
    Code that writes into ``.grad`` in place outside ``backward`` must set
    ``grad_rows = ANY_ROW``: :meth:`zero_grad` clears only marked rows, and
    :func:`adam_step` treats unmarked rows as zero gradients.
    """

    __slots__ = ("data", "_grad", "grad_rows", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            if arr.ndim == 0:
                arr = arr.reshape(1, 1)
            elif arr.ndim == 1:
                arr = arr.reshape(1, -1)
            else:
                raise ValueError(f"Tensor2 is strictly 2-D, got shape {arr.shape}")
        self.data = arr
        self._grad: np.ndarray | None = None
        self.grad_rows: list[np.ndarray] | slice | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor2, ...] = ()
        self._vjp = None

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value
        self.grad_rows = ANY_ROW

    # -- basic introspection -------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor2({self.data!r}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        """Zero the marked rows of ``.grad``, then clear the mark."""
        rows, grad = self.grad_rows, self._grad
        if grad is not None and rows is not None:
            if rows is ANY_ROW:
                grad.fill(0.0)
            else:
                for r in rows:
                    grad[r] = 0.0
        self.grad_rows = None

    # -- graph construction --------------------------------------------------

    @staticmethod
    def _result(data, parents, vjp) -> "Tensor2":
        out = Tensor2(data)
        if _recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into the ``.grad`` of every leaf it reaches.

        Only defined for 1x1 outputs (losses).  Leaves are the tensors that
        no operation made; intermediate results get no ``.grad``, and each
        intermediate adjoint is dropped once its vjp has run.  A leaf's
        ``grad_rows`` gains the rows a row-sparse adjoint wrote, or becomes
        :data:`ANY_ROW` when a dense one did.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar (1x1) tensor")
        topo: list[Tensor2] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor2, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        # every consumer of a node comes before it here, so a node's
        # adjoint is complete when its turn comes
        adjoint: dict[int, np.ndarray | RowSparse] = {id(self): np.ones((1, 1))}
        for node in reversed(topo):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if isinstance(g, RowSparse):
                    if node._grad is None:
                        node._grad = np.zeros_like(node.data)
                        node.grad_rows = None
                    rows, sums = g.summed()
                    node._grad[rows] += sums
                    marked = node.grad_rows
                    if marked is None:
                        node.grad_rows = [rows]
                    elif marked is not ANY_ROW:
                        marked.append(rows)
                elif node._grad is None:
                    node.grad = g + 0.0  # the bits of zeros + g, without the zeros
                else:
                    node._grad += g
                    node.grad_rows = ANY_ROW
                continue
            if isinstance(g, RowSparse):
                g = g.dense()
            for parent, contrib in zip(node._parents, node._vjp(g)):
                if contrib is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in adjoint:
                    adjoint[key] = _accumulate(adjoint[key], contrib)
                else:
                    adjoint[key] = contrib

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor2):
            return _add(self, other, sign=1.0)
        return _shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor2):
            return _add(self, other, sign=-1.0)
        return _shift(self, -float(other))

    def __rsub__(self, other):
        return _shift(-self, float(other))

    def __neg__(self):
        return self * -1.0

    def __mul__(self, scalar):
        s = float(scalar)
        return Tensor2._result(
            self.data * s, (self,), lambda g, s=s: (g * s,)
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(data, requires_grad: bool = False) -> Tensor2:
    return Tensor2(data, requires_grad=requires_grad)


def _broadcast_ok(a: Tensor2, b: Tensor2) -> bool:
    return a.cols == b.cols and (a.rows == b.rows or a.rows == 1 or b.rows == 1)


def _reduce_rows(g: np.ndarray, rows: int) -> np.ndarray:
    """Collapse a broadcast gradient back to a 1-row parent."""
    if rows == 1 and g.shape[0] != 1:
        return g.sum(axis=0, keepdims=True)
    return g


def _add(a: Tensor2, b: Tensor2, sign: float) -> Tensor2:
    if not _broadcast_ok(a, b):
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def vjp(g):
        return _reduce_rows(g, a.rows), _reduce_rows(g * sign, b.rows)

    return Tensor2._result(a.data + sign * b.data, (a, b), vjp)


def _shift(a: Tensor2, c: float) -> Tensor2:
    return Tensor2._result(a.data + c, (a,), lambda g: (g,))


def _row_products(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` with each row's product formed alone.

    For several rows numpy's 2-D product runs one gemm, whose bits differ
    from those of the one-row products; a stack of 1-row products runs one
    gemv per row, each with the bits of that row multiplied on its own.
    """
    if x.shape[0] == 1:
        return x @ w
    return np.matmul(x[:, None, :], w)[:, 0, :]


def matmul(a: Tensor2, b: Tensor2) -> Tensor2:
    """``a @ b``, row by row: each row has the bits of its one-row product."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch for matmul: {a.shape} @ {b.shape}")

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor2._result(_row_products(a.data, b.data), (a, b), vjp)


def gathered_matmul(x: Tensor2, weights, idx, scale) -> Tensor2:
    """Row i is ``(x[i] @ weights[idx[i]]) * scale[i]``, formed row by row.

    ``weights`` is a sequence of tensors of one shape, ``idx`` holds a
    position in it per row of ``x`` and ``scale`` a float per row.  Only
    the weights that ``idx`` names take part in the graph.  One row gives
    the bits of ``matmul`` then ``*``, and its adjoint is scaled before the
    two products, as that pair of operations forms it.
    """
    rows = x.rows
    if len(idx) != rows or len(scale) != rows:
        raise ValueError(f"need one index and one scale per row of {x.shape}")
    if rows == 1:
        w, s = weights[idx[0]], float(scale[0])
        if x.cols != w.rows:
            raise ValueError(f"shape mismatch for gathered_matmul: {x.shape} @ {w.shape}")

        def vjp_one(g):
            g = g * s
            return g @ w.data.T, x.data.T @ g

        return Tensor2._result((x.data @ w.data) * s, (x, w), vjp_one)

    idx = np.asarray(idx, dtype=np.intp)
    used, inverse = np.unique(idx, return_inverse=True)
    if used[0] < 0 or used[-1] >= len(weights):
        raise ValueError(f"weight positions must lie in 0..{len(weights) - 1}")
    tensors = [weights[i] for i in used]
    if any(w.shape != (x.cols, tensors[0].cols) for w in tensors):
        raise ValueError(f"shape mismatch for gathered_matmul: {x.shape} @ "
                         f"{[w.shape for w in tensors]}")
    groups = [np.flatnonzero(inverse == j) for j in range(used.size)]
    column = np.asarray(scale, dtype=np.float64)[:, None]
    out = np.empty((rows, tensors[0].cols))
    for w, members in zip(tensors, groups):
        out[members] = _row_products(x.data[members], w.data)
    out *= column

    def vjp(g):
        g = g * column
        dx = np.empty_like(x.data)
        dws = []
        for w, members in zip(tensors, groups):
            part = g[members]
            dx[members] = part @ w.data.T
            dws.append(x.data[members].T @ part)
        return (dx, *dws)

    return Tensor2._result(out, (x, *tensors), vjp)


def affine(x: Tensor2, w: Tensor2, b: Tensor2) -> Tensor2:
    """y = x @ w + b with b broadcast across rows."""
    if b.rows != 1 or b.cols != w.cols:
        raise ValueError(f"bias must be 1x{w.cols}, got {b.shape}")
    return matmul(x, w) + b


def relu(x: Tensor2) -> Tensor2:
    mask = x.data > 0  # subgradient at exactly 0 is taken as 0
    return Tensor2._result(x.data * mask, (x,), lambda g: (g * mask,))


def maximum(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    take_a = a.data >= b.data

    def vjp(g):
        return g * take_a, g * ~take_a

    return Tensor2._result(np.maximum(a.data, b.data), (a, b), vjp)


def _expit_scalar(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # exp(-v) is inf, so the sigmoid is 0
        return 0.0


def _expit(x: np.ndarray) -> np.ndarray:
    """Elementwise ``1 / (1 + exp(-x))`` with the C library's ``exp``.

    This is how ``scipy.special.expit`` computes it, bit for bit.  numpy's
    vectorised ``exp`` rounds differently on some inputs, which would move
    every trained parameter, so the elements go through ``math.exp`` one by
    one; the softplus inputs of a step are a few dozen values.
    """
    exp = math.exp
    values = [
        1.0 / (1.0 + exp(-v)) if v > -700.0 else _expit_scalar(v)
        for v in x.ravel().tolist()
    ]
    return np.array(values, dtype=np.float64).reshape(x.shape)


def softplus(x: Tensor2) -> Tensor2:
    """log(1 + exp(x)), the stable form of -log(sigmoid(-x))."""
    return Tensor2._result(
        np.logaddexp(0.0, x.data), (x,), lambda g: (g * _expit(x.data),)
    )


def sum_all(x: Tensor2) -> Tensor2:
    return Tensor2._result(
        x.data.sum().reshape(1, 1), (x,), lambda g: (np.full_like(x.data, g[0, 0]),)
    )


def mean_all(x: Tensor2) -> Tensor2:
    return sum_all(x) * (1.0 / x.data.size)


def _row_sums(ids: np.ndarray, values: np.ndarray, num_rows: int):
    """Sorted unique row ids and ``values`` summed per id, in the given order.

    The sums are the bits ``np.add.at`` into a zero table would leave in
    those rows: ``+ 0.0`` turns -0.0 into the +0.0 that adding it to a zero
    row gives, so no sum is ever -0.0.
    """
    order = np.argsort(ids, kind="stable")
    rows = ids[order]
    if rows.size and rows[0] < 0:  # negative ids wrap, as in a forward gather
        return _row_sums(ids % num_rows, values, num_rows)
    if (rows[1:] > rows[:-1]).all():
        return rows, values[order] + 0.0
    rows, inverse = np.unique(ids, return_inverse=True)
    sums = np.zeros((rows.size, values.shape[1]))
    np.add.at(sums, inverse, values)  # repeated ids accumulate in order
    return rows, sums


class RowSparse:
    """An adjoint that is zero outside some rows of a ``shape`` table.

    ``parts`` holds ``(rows, sums)`` pairs in the order they reached the
    table, one per gather, each as :func:`_row_sums` returns them.
    """

    __slots__ = ("shape", "parts")

    def __init__(self, shape: tuple[int, int], rows: np.ndarray, sums: np.ndarray):
        self.shape = shape
        self.parts = [(rows, sums)]

    def summed(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique rows and their totals over all parts, added in order."""
        if len(self.parts) == 1:
            return self.parts[0]
        return _row_sums(
            np.concatenate([r for r, _ in self.parts]),
            np.concatenate([v for _, v in self.parts]),
            self.shape[0],
        )

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows, sums = self.summed()
        out[rows] = sums
        return out


def _accumulate(acc, contrib):
    """acc + contrib for adjoints, staying row-sparse when both are."""
    if isinstance(acc, RowSparse) and isinstance(contrib, RowSparse):
        acc.parts.extend(contrib.parts)
        return acc
    if isinstance(acc, RowSparse):
        acc = acc.dense()
    if isinstance(contrib, RowSparse):
        contrib = contrib.dense()
    return acc + contrib


def gather_rows(x: Tensor2, indices) -> Tensor2:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("indices must be a flat sequence")

    def vjp(g):
        return (RowSparse(x.shape, *_row_sums(idx, g, x.rows)),)

    return Tensor2._result(x.data[idx], (x,), vjp)


def slice_cols(x: Tensor2, start: int, stop: int) -> Tensor2:
    if not 0 <= start < stop <= x.cols:
        raise ValueError(f"bad column slice [{start}:{stop}] for {x.shape}")

    def vjp(g):
        out = np.zeros_like(x.data)
        out[:, start:stop] = g
        return (out,)

    return Tensor2._result(x.data[:, start:stop].copy(), (x,), vjp)


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


def _views(buffer: np.ndarray, params: list[Tensor2]) -> list[np.ndarray]:
    """Consecutive slices of a flat buffer, shaped like each tensor."""
    out, start = [], 0
    for p in params:
        stop = start + p.data.size
        out.append(buffer[start:stop].reshape(p.data.shape))
        start = stop
    return out


def pack_tensors(params) -> tuple[np.ndarray, np.ndarray]:
    """Move the tensors' data and gradients into two fresh flat buffers.

    Afterwards every ``.data`` and ``.grad`` is a view into the returned
    (data, grad) buffers, laid out back to back in the given order.
    Values are kept and a missing gradient becomes zeros.
    """
    params = list(params)
    data = np.concatenate([p.data.ravel() for p in params]) if params else np.zeros(0)
    grad = np.zeros_like(data)
    for p, d, g in zip(params, _views(data, params), _views(grad, params)):
        if p.grad is not None:
            g[...] = p.grad
        p.data, p.grad = d, g
    return data, grad


# -- optimizer ---------------------------------------------------------------

# Elements per pass of adam_step: the six float64 streams it touches
# (parameters, gradients, both moments, two scratch rows) take 1.5 MiB,
# which stays in a 2 MiB L2 cache between the operations of one pass.
# Measured on a 2-vCPU Xeon: 2^13 was 15-20% slower on 100k-350k elements,
# 2^16 no faster.
_ADAM_CHUNK = 1 << 15


class AdamState:
    """The packed parameters, their moment buffers and the step counter.

    Building the state moves ``params`` into two fresh flat buffers
    (:func:`pack_tensors`): ``data`` and ``grad``, which every tensor's
    ``.data`` and ``.grad`` view.  ``m_flat`` and ``v_flat`` have the same
    layout, and ``m`` and ``v`` are their per-tensor views.  The state is
    the one owner of that layout: a later ``AdamState`` over the same
    tensors moves them again, and this one then refuses to step.
    """

    def __init__(self, params, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.data, self.grad = pack_tensors(self.params)
        self._data_views = [p.data for p in self.params]
        self._grad_views = [p.grad for p in self.params]
        self.m_flat = np.zeros_like(self.data)
        self.v_flat = np.zeros_like(self.data)
        self.m = _views(self.m_flat, self.params)
        self.v = _views(self.v_flat, self.params)
        ends = list(accumulate(p.data.size for p in self.params))
        self._spans = list(zip([0] + ends, ends))  # of each tensor in the flat buffers
        # per tensor, whether its moments were seen nonzero; only tensors
        # not seen so are checked again, and a stale True costs time only
        self._moving = [False] * len(self.params)
        self._scratch = np.empty((2, min(_ADAM_CHUNK, self.data.size)))

    def check_views(self) -> None:
        """Raise ``ValueError`` naming the first tensor whose ``.data`` or
        ``.grad`` is no longer a view into this state's buffers."""
        for i, (p, data, grad) in enumerate(
            zip(self.params, self._data_views, self._grad_views)
        ):
            moved = "data" if p.data is not data else "grad" if p.grad is not grad else None
            if moved:
                raise ValueError(
                    f"parameter {i} (shape {p.rows}x{p.cols}): .{moved} is no longer a"
                    " view into this optimizer's buffer; write into it in place instead"
                )


def _adam_update(data, m, v, g, a, b, coefs) -> None:
    """One Adam update of equal-shaped arrays in place, using scratch ``a``
    and ``b``.  ``g`` None is the gradient-free form, which leaves out the
    two additions of gradient terms."""
    b1, b2, c1, c2, lr, eps = coefs
    m *= b1
    if g is not None:
        np.multiply(g, 1 - b1, out=a)
        m += a  # m*b1 + (1-b1)*g
    v *= b2
    if g is not None:
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v += a  # v*b2 + ((1-b2)*g)*g
    np.divide(v, c2, out=a)
    np.sqrt(a, out=a)
    a += eps  # sqrt(v/c2) + eps
    np.divide(m, c1, out=b)
    b *= lr
    b /= a  # (lr*(m/c1)) / denom
    data -= b


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update of the state's tensors, in place.

    The gradients are the packed ``grad`` buffer and its row marks (see
    :class:`Tensor2`); a tensor whose ``.data`` or ``.grad`` was reassigned
    since the state was built raises ``ValueError`` naming it (see
    :meth:`AdamState.check_views`).  Every element sees the same
    operations in the same order as the textbook per-tensor form, or
    operations that give the same bits, so results match it bit for bit.

    The row marks select one of three updates per tensor, in one pass over
    the packed buffers, a chunk at a time:

    - every row marked: the full update;
    - no row marked: the gradient-free update, without the two additions
      of ``(1-b1)*g`` and ``((1-b2)*g)*g``; a tensor whose moments are all
      zero is left as it is;
    - some rows marked: those rows are gathered and take the full update,
      the rest of the table the gradient-free one.

    Why the shortcuts are exact, for ``0.5 < beta1 < 1``,
    ``0 <= beta2 < 1``, ``lr >= 0`` and ``eps > 0`` (outside that range
    every tensor takes the full update):

    - ``m`` and ``v`` start at +0.0, and ``x + y`` is -0.0 only when both
      are, so the full update never makes a moment -0.0.  Nor does the
      gradient-free one: ``m*b1`` is -0.0 only for ``m`` -0.0, since with
      ``b1 > 0.5`` no nonzero product rounds to zero, and ``v >= 0``.
    - So ``m*b1 + (+-0.0)`` equals ``m*b1``, and ``v*b2 + (+0.0)``
      (``((1-b2)*g)*g`` is +0.0 for ``g`` = +-0.0) equals ``v*b2``, bit
      for bit; NaN stays NaN.
    - With ``m = v = g = 0`` the update subtracts +0.0, which leaves every
      value unchanged, -0.0 included, and the moments stay +0.0.
    """
    state.check_views()
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    coefs = (b1, b2, 1 - b1**state.t, 1 - b2**state.t, lr, eps)
    use_marks = 0.5 < b1 < 1 and 0 <= b2 < 1 and lr >= 0 and eps > 0
    data, grad, m_all, v_all = state.data, state.grad, state.m_flat, state.v_flat

    # runs of consecutive tensors that take the same update:
    # [start, stop, gradient or None]
    runs: list[list] = []
    patches = []  # gathered rows that take the full update
    for i, (p, (start, stop)) in enumerate(zip(state.params, state._spans)):
        rows = p.grad_rows if use_marks else ANY_ROW
        if rows is ANY_ROW:
            g = grad
        else:
            if rows:
                rows = rows[0] if len(rows) == 1 else np.unique(np.concatenate(rows))
                views = (p.data, state.m[i], state.v[i])
                copies = [view[rows] for view in views]
                g_rows = p.grad[rows]
                _adam_update(*copies, g_rows, np.empty_like(g_rows),
                             np.empty_like(g_rows), coefs)
                patches.append((rows, views, copies))
            if not state._moving[i]:
                state._moving[i] = bool(state.m[i].any() or state.v[i].any())
                if not state._moving[i]:
                    continue  # unchanged by the update
            g = None
        if runs and runs[-1][1] == start and runs[-1][2] is g:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, g])

    for begin, end, g in runs:
        for start in range(begin, end, _ADAM_CHUNK):
            stop = min(start + _ADAM_CHUNK, end)
            a, b = state._scratch[:, : stop - start]
            _adam_update(
                data[start:stop], m_all[start:stop], v_all[start:stop],
                None if g is None else g[start:stop], a, b, coefs,
            )
    for rows, views, copies in patches:
        for view, copy in zip(views, copies):
            view[rows] = copy


# -- gradient verification ---------------------------------------------------


def finite_diff_check(f, params, h: float = 1e-5) -> float:
    """Max relative error between backward() and central differences.

    ``f`` is a zero-argument callable that rebuilds the forward graph from
    the current contents of ``params`` and returns a 1x1 tensor.  The
    relative error denominator is clamped at 1, so tiny gradients are
    compared absolutely.
    """
    params = list(params)
    zero_grads(params)
    out = f()
    out.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in params
    ]
    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = f().item()
            flat[i] = saved - h
            down = f().item()
            flat[i] = saved
            numeric = (up - down) / (2 * h)
            a = grads.reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst
