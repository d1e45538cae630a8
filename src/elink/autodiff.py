"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers the operation that produced
it. Calling backward() on a scalar replays the recorded graph in reverse
topological order and accumulates exact gradients into every tensor built
with requires_grad=True. Only the operations the linking model needs are
implemented; each backward rule is checked against central finite
differences in the test suite.

The tape is single-use and frees itself: backward() drops each interior
gradient as soon as its rule has consumed it, and after the sweep strips
every interior node of its backward rule and parents, so a step's
activations die with its backward rather than with the next step's
forward. Leaves keep their gradients; a second backward() through the
spent graph raises.

Gradients are dense arrays shaped like their tensor, except that a row
gather (`take`, the embedding lookup) yields a row-sparse `RowGrad`: the
gathered rows and their summed gradients; so does `table_softmax_nll` for
the table rows it scores. Adam, clipping and the finiteness check consume
it as it is, so an embedding table's gradient costs what the batch
touches, not the table size. A `RowGrad` meeting a dense gradient on the
same tensor is densified.

The model's dense layers (`linear`), multi-head attention (`attention`) and
softmax losses (`softmax_nll`, and `table_softmax_nll` for span vectors
scored against entity-table rows) are fused: each is one tape node with a
hand-written backward, so a training step records and walks few full-size
temporaries.
"""

import numpy as np
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        # Drop graph edges eagerly when nothing upstream needs gradients.
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; divide by a constant")
        return mul(self, 1.0 / np.asarray(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return tsum(self, axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    # -- backward pass ---------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        self must be a scalar (the loss). Single-use: the sweep frees the
        tape (interior gradients, backward rules and parent links) as it
        goes, so a second backward() through the graph raises RuntimeError.
        On a scalar that does not require gradients it does nothing.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            return
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        try:
            for node in reversed(topo):
                g = node.grad
                if node._backward is not None and g is not None:
                    # backward rules take dense gradients; only leaves keep a RowGrad
                    node._backward(g.dense() if isinstance(g, RowGrad) else g)
                    node.grad = None
        finally:
            # Cut the tape in one pass after the sweep: freeing closures inside
            # it hands memory back to the allocator only to fault it in again.
            for node in topo:
                if node._backward is not None:
                    node._backward = _spent
                    node._parents = ()


def _spent(g):
    """Backward rule left on an interior node by the sweep that freed it."""
    raise RuntimeError("backward() through a graph that an earlier backward() already freed")


class RowGrad:
    """Row-sparse gradient of a table of `shape`: row `rows[i]` has gradient
    `values[i]`, every other row is zero. `rows` is sorted and unique."""

    __slots__ = ("rows", "values", "shape")

    def __init__(self, idx, g: np.ndarray, shape: tuple):
        """Sum the per-index gradients g (shape idx.shape + shape[1:]) by row,
        adding in the original index order as a dense np.add.at would."""
        shape = tuple(shape)
        idx = np.asarray(idx).reshape(-1) % shape[0]
        g = np.reshape(g, (idx.size,) + shape[1:])
        self.rows, inv = np.unique(idx, return_inverse=True)
        inv = inv.reshape(-1)
        if len(self.rows) == idx.size:
            # One term per row: a plain scatter, then 0.0 + x as the sum from
            # zero would give (it turns -0.0 into 0.0).
            self.values = np.empty(g.shape)
            self.values[inv] = g
            self.values += 0.0
        else:
            self.values = np.zeros((len(self.rows),) + shape[1:])
            np.add.at(self.values, inv, g)
        self.shape = shape

    @classmethod
    def of_rows(cls, rows: np.ndarray, values: np.ndarray, shape: tuple) -> "RowGrad":
        """The RowGrad storing `values` at `rows` as given; rows must
        already be sorted and unique."""
        out = cls.__new__(cls)
        out.rows, out.values, out.shape = rows, values, tuple(shape)
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows] = self.values
        return out


def grad_values(g) -> np.ndarray:
    """The stored entries of a gradient: a RowGrad's values, else the array."""
    return g.values if isinstance(g, RowGrad) else g


def _accum(t: Tensor, g) -> None:
    """Add g into t.grad.

    Backward never writes a gradient in place, so an interior node keeps
    a C-contiguous first g as given even if another node shares it. A leaf,
    whose gradient the caller owns and may scale, stores a copy, and so does
    a strided view (C order keeps every later reduction's summation order).
    """
    if not t.requires_grad:
        return
    if isinstance(g, RowGrad) and not isinstance(t.grad, np.ndarray):
        if t.grad is not None:
            g = RowGrad(
                np.concatenate([t.grad.rows, g.rows]),
                np.concatenate([t.grad.values, g.values]),
                t.shape,
            )
        t.grad = g
        return
    if isinstance(g, RowGrad):
        g = g.dense()
    if t.grad is None:
        keep = t._backward is not None and g.flags.c_contiguous
        t.grad = g if keep else g.copy()
    else:
        prev = t.grad.dense() if isinstance(t.grad, RowGrad) else t.grad
        t.grad = prev + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _const(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# -- primitive ops -------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        out = Tensor(a.data + b.data, _parents=(a, b))

        def bwd(g):
            _accum(a, _unbroadcast(g, a.data.shape))
            _accum(b, _unbroadcast(g, b.data.shape))

    else:
        bb = _const(b)
        out = Tensor(a.data + bb, _parents=(a,))

        def bwd(g):
            _accum(a, _unbroadcast(g, a.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        out = Tensor(a.data * b.data, _parents=(a, b))

        def bwd(g):
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    else:
        bb = _const(b)
        out = Tensor(a.data * bb, _parents=(a,))

        def bwd(g):
            _accum(a, _unbroadcast(g * bb, a.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy semantics, batch dims broadcast."""
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def bwd(g):
        _accum(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), _parents=(a,))

    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape).copy())

    out._backward = bwd if out.requires_grad else None
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), _parents=(a,))

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(np.transpose(a.data, axes), _parents=(a,))
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accum(a, np.transpose(g, inv))

    out._backward = bwd if out.requires_grad else None
    return out


def concat(tensors: list, axis: int = -1) -> Tensor:
    parts = list(tensors)
    out = Tensor(np.concatenate([t.data for t in parts], axis=axis), _parents=tuple(parts))
    sizes = [t.data.shape[axis] for t in parts]
    cuts = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(parts, np.split(g, cuts, axis=axis)):
            _accum(t, piece)

    out._backward = bwd if out.requires_grad else None
    return out


def take(a: Tensor, idx) -> Tensor:
    """Row gather along axis 0 (embedding lookup); idx is any int array.

    The gradient reaching `a` is a RowGrad over the gathered rows.
    """
    idx = np.asarray(idx)
    out = Tensor(a.data[idx], _parents=(a,))

    def bwd(g):
        _accum(a, RowGrad(idx, g, a.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


def take2(a: Tensor, idx0, idx1) -> Tensor:
    """Gather a[idx0, idx1] for paired index arrays (picks rows of the last axis)."""
    idx0 = np.asarray(idx0)
    idx1 = np.asarray(idx1)
    out = Tensor(a.data[idx0, idx1], _parents=(a,))

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, (idx0, idx1), g)
        _accum(a, buf)

    out._backward = bwd if out.requires_grad else None
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over any number of leading dims, as one 2-D GEMM.

    The backward is one GEMM each for the input and weight gradients and
    one row-sum for the bias gradient.
    """
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y = x2 @ w.data
    y += b.data
    out = Tensor(y.reshape(lead + (y.shape[-1],)), _parents=(x, w, b))

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        _accum(x, (g2 @ w.data.T).reshape(x.data.shape))
        _accum(w, x2.T @ g2)
        _accum(b, g2.sum(axis=0))

    out._backward = bwd if out.requires_grad else None
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, key_bias: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over (B, T, d) inputs.

    key_bias (B, T) is added to every query's scores for that key (a large
    negative value masks a padding key). Heads are split and merged inside
    the node; only the attention probabilities are kept for the backward.
    """
    B, T, d = q.data.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(x: np.ndarray) -> np.ndarray:
        return x.reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    p += key_bias[:, None, None, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = (p @ vh).transpose(0, 2, 1, 3).reshape(B, T, d)
    out = Tensor(ctx, _parents=(q, k, v))

    def bwd(g):
        gh = heads(g)
        _accum(v, (p.swapaxes(-1, -2) @ gh).transpose(0, 2, 1, 3).reshape(B, T, d))
        gs = gh @ vh.swapaxes(-1, -2)
        # softmax backward: p * (gp - sum(gp * p)), then the score scale
        dot = (gs * p).sum(axis=-1, keepdims=True)
        gs -= dot
        gs *= p
        gs *= scale
        _accum(q, (gs @ kh).transpose(0, 2, 1, 3).reshape(B, T, d))
        _accum(k, (gs.swapaxes(-1, -2) @ qh).transpose(0, 2, 1, 3).reshape(B, T, d))

    out._backward = bwd if out.requires_grad else None
    return out


def softmax_nll(scores: Tensor, gold) -> Tensor:
    """Per-row negative log softmax probability of column gold[i] of (N, K)
    scores. Max-shifted, so it stays finite for scores up to +-1e4; the
    backward is (softmax - onehot(gold)) * g."""
    gold = np.asarray(gold, dtype=np.int64)
    rows = np.arange(len(gold))
    s = scores.data
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    total = e.sum(axis=-1, keepdims=True)
    lse = np.log(total) + m
    out = Tensor(lse[:, 0] - s[rows, gold], _parents=(scores,))

    def bwd(g):
        grad = e / total
        grad[rows, gold] -= 1.0
        grad *= g[:, None]
        _accum(scores, grad)

    out._backward = bwd if out.requires_grad else None
    return out


def table_softmax_nll(svec: Tensor, table: Tensor, rows, gold) -> tuple[Tensor, np.ndarray]:
    """softmax_nll over the scores svec @ table[rows].T, as one node.

    Column j scores table row rows[j] (rows=None: every row, in order) and
    gold[i] is a column. Returns the (N,) per-row NLL and each row's argmax
    column. The forward gathers the rows once and turns the score matrix
    into max-shifted exponentials in place; the backward turns it into
    (softmax - onehot(gold)) * g in place and hands the table its gradient
    as a RowGrad over the sorted rows (dense when rows is None).
    """
    gold = np.asarray(gold, dtype=np.int64)
    at = np.arange(len(gold))
    if rows is None:
        emb = table.data
    else:
        rows = np.asarray(rows, dtype=np.int64)
        order = np.argsort(rows)
        rows_sorted = rows[order]
        if rows_sorted.size and (rows_sorted[0] < 0 or (rows_sorted[1:] == rows_sorted[:-1]).any()):
            raise ValueError("table rows must be distinct and non-negative")
        emb = table.data[rows]
    s = svec.data @ emb.T
    pred = s.argmax(axis=-1)
    picked = s[at, gold]
    m = s[at, pred][:, None]  # each row's max, without a second pass
    s -= m
    np.exp(s, out=s)
    total = s.sum(axis=-1, keepdims=True)
    lse = np.log(total) + m
    out = Tensor(lse[:, 0] - picked, _parents=(svec, table))

    def bwd(g):
        np.divide(s, total, out=s)
        s[at, gold] -= 1.0
        np.multiply(s, g[:, None], out=s)
        if svec.requires_grad:
            _accum(svec, s @ emb)
        if not table.requires_grad:
            return
        gt = s.T @ svec.data
        if rows is None:
            _accum(table, gt)
        else:
            # the gathered rows are spent: their buffer takes the sorted
            # gradient (mode="clip" keeps take from buffering; order is in range)
            np.take(gt, order, axis=0, out=emb, mode="clip")
            _accum(table, RowGrad.of_rows(rows_sorted, emb, table.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out, pred


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    out = Tensor(x * cdf, _parents=(a,))

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        _accum(a, g * (cdf + x * pdf))

    out._backward = bwd if out.requires_grad else None
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data, _parents=(a, gain, bias))

    def bwd(g):
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accum(bias, _unbroadcast(g, bias.data.shape))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(a, inv * (dxhat - m1 - xhat * m2))

    out._backward = bwd if out.requires_grad else None
    return out
