"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a floating-point ndarray, keeping its dtype (other inputs
become float64), and remembers the operation that produced it. Calling
backward() on a scalar replays the recorded graph in reverse topological
order and accumulates exact gradients into every tensor built with
requires_grad=True. Only the operations the linking model calls are
implemented, and a test fails if one of them is no longer called: `add`
(tensor + tensor), `mul` (by a constant), `tsum` (to a scalar), `concat`,
the row gathers `take` and `take2`, and the fused nodes below. Each
backward rule is checked against central finite differences in the test
suite.

The parameters set the tape's dtype: every op's result, constant and
gradient takes the dtype of the data it is given. Float32 parameters train
and infer in float32; float64 ones, as the gradient checks use, run the
same code in float64.

The tape is single-use and frees itself: backward() drops each interior
gradient as soon as its rule has consumed it, and after the sweep strips
every interior node of its backward rule and parents, so a step's
activations die with its backward rather than with the next step's
forward. Leaves keep their gradients; a second backward() through the
spent graph raises. Three nodes keep less than their intermediates:
- `table_softmax_nll` drops its (N, K) score matrix as soon as its table
  gradient is written, not at the end of the sweep;
- `gelu` keeps only its input and recomputes its tanh in its backward;
- `encoder`, the whole Transformer stack, keeps its input and, per layer,
  only its two layer norms' normalised rows and row scales and its
  softmax's row maxima and row sums. Its backward rebuilds each sublayer's
  input from the layer norm before it and recomputes the projections, the
  probabilities, the attention output and the GELU.
Each recomputation repeats the forward's ops in the forward's order, so it
gets the forward's bytes.

Gradients are dense arrays shaped like their tensor, except that a row
gather (`take`, the embedding lookup) yields a row-sparse `RowGrad`: the
gathered rows and their summed gradients; so does `table_softmax_nll` for
the table rows it scores. Adam, clipping and the finiteness check consume
it as it is, so an embedding table's gradient costs what the batch
touches, not the table size. A `RowGrad` meeting a dense gradient on the
same tensor is densified. `add_grads` sums two gradients of one tensor, as
training does with the gradients of a batch's two shards; the table rows
that both shards score are one `TableRows`, gathered once per step, whose
buffer takes both shards' table gradient, so that one needs no sum.

The model's dense layers (`linear`), its encoder (`encoder`, post-LN
blocks of an attention and a feed-forward sublayer, each from its input
to its layer norm's output), its activation (`gelu`, in the span head)
and its softmax losses (`softmax_nll`, the weighted sum of per-row NLLs,
and `table_softmax_nll` for span vectors scored against entity-table rows,
with an optional per-row score bias that masks columns out of a row's
softmax) are fused: each is one tape node with a hand-written backward,
so a training step records and walks few full-size temporaries. The
encoder sums each sublayer input's gradients in the order of the unfused
chain of `linear`, attention or `gelu`, a residual add and a layer norm
(the residual's first, then each input projection's), so it gives that
chain's bytes; it runs its attention scores and GELU a block of whole
examples at a time, so those temporaries take a block's size.
Their elementwise work is kept cheap:
- `gelu` is the tanh form 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
  with its exact derivative, as Google's BERT code computes it;
- the encoder takes its layer norms' row means and variances, forward and
  backward, as GEMVs against a 1/n column, and the softmax row sums as a
  GEMV against a ones column;
- the encoder takes each softmax row's max as the entry at its argmax,
  scales the queries, not the T x T scores, and its softmax backward
  takes each query's sum(dP * P) as the dot of its output gradient with
  its own attention output (FlashAttention, Dao et al., arXiv 2205.14135).
"""

import math
import threading

import numpy as np

# Python floats, not np.float64: a numpy scalar would upcast float32 arrays.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-5
# values in the blocks of the table gradient's GEMMs that its writers hold at
# once (1 MB of float32): both the gathered (N, rows) score columns and the
# (rows, d) gradient rows of a block
_GRAD_BLOCK = 1 << 18
# rows (tokens) in a block of whole examples, over which the encoder runs its
# attention scores, softmax and GELU, so that their temporaries take a block's
# size: (B, H, T, T) scores of 4 examples of 128 tokens at 4 heads are 1 MB
_BLOCK_ROWS = 512


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        # Drop graph edges eagerly when nothing upstream needs gradients.
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self):
        return tsum(self)

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
            self.values = np.empty(g.shape, g.dtype)
            self.values[inv] = g
            self.values += 0.0
        else:
            self.values = np.zeros((len(self.rows),) + shape[1:], g.dtype)
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
        out = np.zeros(self.shape, self.values.dtype)
        out[self.rows] = self.values
        return out


def add_grads(a, b):
    """The gradient a + b of one tensor, each a dense array or a RowGrad.
    It adds into a dense operand, or into a when both are RowGrads over the
    same rows, so the caller must own both."""
    if isinstance(a, RowGrad) and not isinstance(b, RowGrad):
        a, b = b, a  # float addition is commutative: b + a has a + b's bytes
    if not isinstance(a, RowGrad):
        if isinstance(b, RowGrad):
            a[b.rows] += b.values
        else:
            a += b
        return a
    if np.array_equal(a.rows, b.rows):
        a.values += b.values
        return a
    rows = np.union1d(a.rows, b.rows)
    values = np.zeros((len(rows),) + a.shape[1:], a.values.dtype)
    values[np.searchsorted(rows, a.rows)] = a.values
    values[np.searchsorted(rows, b.rows)] += b.values
    return RowGrad.of_rows(rows, values, a.shape)


def grad_values(g) -> np.ndarray:
    """The stored entries of a gradient: a RowGrad's values, else the array."""
    return g.values if isinstance(g, RowGrad) else g


def _accum(t: Tensor, g, owned: bool = False) -> None:
    """Add g into t.grad.

    Backward never writes a gradient in place, so an interior node keeps
    a C-contiguous first g as given even if another node shares it. A leaf,
    whose gradient the caller owns and may scale, stores a copy, unless g is
    `owned` (a new array that nothing else holds); a strided view is copied
    too (C order keeps every later reduction's summation order).
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
        keep = (owned or t._backward is not None) and g.flags.c_contiguous
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


def _const(x, like: np.ndarray) -> np.ndarray:
    """x as an array of the tape data's dtype, so it does not upcast it."""
    return np.asarray(x, dtype=like.dtype)


# -- primitive ops -------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for two tensors, broadcast as numpy does."""
    out = Tensor(a.data + b.data, _parents=(a, b))

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


def mul(a: Tensor, c) -> Tensor:
    """a times a constant c (a number or an array), broadcast as numpy does."""
    cc = _const(c, a.data)
    out = Tensor(a.data * cc, _parents=(a,))

    def bwd(g):
        _accum(a, _unbroadcast(g * cc, a.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


def tsum(a: Tensor) -> Tensor:
    """The sum of all of a's entries, a scalar."""
    out = Tensor(a.data.sum(), _parents=(a,))

    def bwd(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

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


def _affine(x2: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x2 @ w + b for (N, n) rows x2, as a new array: one GEMM, then the
    bias added in place."""
    y = x2 @ w.data
    y += b.data
    return y


def _affine_backward(x2: np.ndarray, w: Tensor, b: Tensor, g2: np.ndarray) -> np.ndarray:
    """Accumulate the weight and bias gradients of x2 @ w + b for the output
    gradient g2 (one GEMM and one row-sum), and return x2's gradient (one
    GEMM)."""
    _accum(w, x2.T @ g2)
    _accum(b, g2.sum(axis=0))
    return g2 @ w.data.T


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over any number of leading dims, as one 2-D GEMM.

    The backward is one GEMM each for the input and weight gradients and
    one row-sum for the bias gradient.
    """
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y = _affine(x2, w, b)
    out = Tensor(y.reshape(lead + (y.shape[-1],)), _parents=(x, w, b))

    def bwd(g):
        _accum(x, _affine_backward(x2, w, b, g.reshape(-1, g.shape[-1])).reshape(x.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


def softmax_nll(scores: Tensor, gold, weights) -> Tensor:
    """The weighted sum, a scalar, of the negative log softmax probability
    of column gold[...] of each row of scores (..., K); gold and the per-row
    weights are shaped like the rows. Max-shifted, so it stays finite for
    scores up to +-1e4; the backward is (softmax - onehot(gold)) * g, each
    row times its weight."""
    gold = np.asarray(gold, dtype=np.int64)
    s = scores.data.reshape(-1, scores.data.shape[-1])
    at = np.arange(gold.size)
    flat_gold = gold.reshape(-1)
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    total = e.sum(axis=-1, keepdims=True)
    nll = (np.log(total) + m)[:, 0] - s[at, flat_gold]
    w = _const(weights, s).reshape(-1)
    out = Tensor(nll @ w, _parents=(scores,))

    def bwd(g):
        grad = e / total
        grad[at, flat_gold] -= 1.0
        grad *= (g * w)[:, None]
        _accum(scores, grad.reshape(scores.data.shape))

    out._backward = bwd if out.requires_grad else None
    return out


class TableRows:
    """Rows of a table that one step's `table_softmax_nll` nodes score,
    gathered once.

    `rows` picks the rows (None: every row, in order, with no gather); it is
    kept as given, as the batch's own candidate rows, so a caller can check
    which rows these are. The first node to score gathers them; each node
    scores its span vectors against them, and in its rule takes its
    span-vector gradient from them and hands over its spent score gradient
    (every node scores before any rule runs). Once every node has, the rows
    are spent, and their buffer takes the table's gradient a block of sorted
    rows at a time: the first part's GEMM for the block is written into it
    and the second's is added (float addition is commutative, so the bytes do
    not depend on the arrival order; so at most two nodes may score). The
    gradient reaches `table` once: a RowGrad over the sorted rows, or one new
    dense array when rows is None. So a step holds one row-sized buffer,
    whether one batch shard or two score against it.

    The two nodes may sit on two tapes, one per shard. With `concurrent`,
    their rules run at the same time on two threads and meet: the first to
    hand over waits for the second, and then each writes every other block.
    Without, the first rule returns, and the second writes every block, so
    nothing waits. abort() ends every wait, now and later, with
    threading.BrokenBarrierError, so a shard that fails releases the other.
    """

    def __init__(self, table: Tensor, rows=None, concurrent: bool = False):
        self.table = table
        self.rows = rows
        self.concurrent = concurrent
        self._gather = self._order = self._sorted = None
        if rows is not None:
            self._gather = np.asarray(rows, dtype=np.int64)
            self._order = np.argsort(self._gather)
            self._sorted = self._gather[self._order]
            if self._sorted.size and (
                self._sorted[0] < 0 or (self._sorted[1:] == self._sorted[:-1]).any()
            ):
                raise ValueError("table rows must be distinct and non-negative")
        self.emb = None     # the gathered rows (the table itself when rows is None)
        self._cond = threading.Condition()
        self._scorers = 0   # nodes that will hand over their scores
        self._parts = []    # (scores gradient, span vectors) per node, in arrival order
        self._buf = None
        self._writers = self._written = 0   # nodes that write blocks; those done
        self._broken = False

    def _score(self, enroll: bool) -> np.ndarray:
        """The gathered rows, gathered on the first call. `enroll` counts the
        caller among the nodes that will hand over their scores."""
        with self._cond:
            if enroll and self._scorers == 2:
                raise ValueError("at most two nodes can score one TableRows")
            if self.emb is None:
                self.emb = self.table.data if self._gather is None else self.table.data[self._gather]
            self._scorers += enroll
            return self.emb

    def abort(self) -> None:
        """End every wait, now and later (see the class)."""
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    def _hand_over(self, ds: np.ndarray, x: np.ndarray) -> None:
        """Take one node's spent (N, K) score gradient ds and its (N, d)
        span vectors x, whose table gradient is ds.T @ x."""
        with self._cond:
            self._parts.append((ds, x))
            share = len(self._parts) - 1 if self.concurrent else 0
            if len(self._parts) == self._scorers:
                self._buf = np.empty_like(self.emb) if self._sorted is None else self.emb
                self._writers = self._scorers if self.concurrent else 1
                self._cond.notify_all()
            elif not self.concurrent:
                return
            while len(self._parts) < self._scorers:
                if self._broken:
                    raise threading.BrokenBarrierError
                self._cond.wait()
            parts, writers = self._parts, self._writers
        self._write(parts, share, writers)
        with self._cond:
            self._written += 1
            if self._written < writers:
                return
            self._parts = []
        if self._sorted is None:
            _accum(self.table, self._buf, owned=True)
        else:
            _accum(self.table, RowGrad.of_rows(self._sorted, self._buf, self.table.data.shape))

    def _write(self, parts: list, share: int, writers: int) -> None:
        """Blocks share, share + writers, ... of the buffer's sorted rows:
        each block's GEMM over the first part's N rows written, the other
        part's added."""
        buf = self._buf
        n = len(buf)
        step = max(1, _GRAD_BLOCK // (writers * max(max(x.shape) for _, x in parts)))
        scratch = np.empty((min(step, n), buf.shape[1]), buf.dtype) if len(parts) > 1 else None
        for lo in range(share * step, n, writers * step):
            hi = min(lo + step, n)
            cols = slice(lo, hi) if self._order is None else self._order[lo:hi]
            rows = buf[lo:hi]   # a view: in-place writes, as a slice assignment would copy
            for i, (ds, x) in enumerate(parts):
                if i == 0:
                    np.matmul(ds[:, cols].T, x, out=rows)
                else:
                    rows += np.matmul(ds[:, cols].T, x, out=scratch[: hi - lo])


def table_softmax_nll(
    svec: Tensor, table: TableRows, gold, bias=None
) -> tuple[Tensor, np.ndarray]:
    """softmax_nll over the scores of svec against table's rows (+ bias),
    as one node.

    Column j scores the table's row j (see TableRows) and gold[i] is a
    column. An optional (N, K) `bias` is added to the scores before the max
    and the exponentials: a column biased by -1e9 gets an exponential of
    exactly 0, so it adds nothing to that row's softmax and gets no gradient
    from it, and the NLL is that of the row's unmasked columns alone.
    Returns the (N,) per-row NLL and each row's argmax column (exact ties to
    the lowest column, so to the lowest entity when rows are sorted). The
    forward turns the score matrix into max-shifted exponentials in place;
    the backward turns it into (softmax - onehot(gold)) * g in place, takes
    the span-vector gradient from the gathered rows and hands the matrix to
    `table`, which writes the table's gradient (a RowGrad over the sorted
    rows, dense when every row is scored) and then drops it, so it does not
    live on through the rest of the backward sweep.
    """
    gold = np.asarray(gold, dtype=np.int64)
    at = np.arange(len(gold))
    s = svec.data @ table._score(enroll=table.table.requires_grad).T
    if bias is not None:
        s += bias
    pred = s.argmax(axis=-1)
    picked = s[at, gold]
    m = s[at, pred][:, None]  # each row's max, without a second pass
    s -= m
    np.exp(s, out=s)
    total = s.sum(axis=-1, keepdims=True)
    lse = np.log(total) + m
    out = Tensor(lse[:, 0] - picked, _parents=(svec, table.table))

    def bwd(g):
        nonlocal s
        ds, s = s, None  # the table is the score matrix's last reader
        np.divide(ds, total, out=ds)
        ds[at, gold] -= 1.0
        np.multiply(ds, g[:, None], out=ds)
        if svec.requires_grad:
            _accum(svec, ds @ table.emb)
        if table.table.requires_grad:
            table._hand_over(ds, svec.data)

    out._backward = bwd if out.requires_grad else None
    return out, pred


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """0.5 (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), as a new array."""
    cdf = x * x
    cdf *= _GELU_C * _GELU_A
    cdf += _GELU_C
    cdf *= x
    np.tanh(cdf, out=cdf)
    cdf *= 0.5
    cdf += 0.5
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU's derivative at x, from x and the cdf _gelu_cdf(x):
    cdf + 2 sqrt(2/pi) x cdf (1 - cdf) (1 + 3 * 0.044715 x^2), as a new array.
    Times the output gradient, it is the input gradient."""
    d = x * x
    d *= 6.0 * _GELU_C * _GELU_A
    d += 2.0 * _GELU_C
    d *= x
    d *= cdf
    d *= 1.0 - cdf
    d += cdf
    return d


def gelu(a: Tensor) -> Tensor:
    """GELU in its tanh form, 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))),
    as Google's BERT code computes it. The backward is this function's
    exact derivative. The node keeps only its input: the backward recomputes
    the cdf from it with the forward's ops in the forward's order, so it
    gets the forward's bytes."""
    x = a.data
    out = Tensor(x * _gelu_cdf(x), _parents=(a,))

    def bwd(g):
        d = _gelu_slope(x, _gelu_cdf(x))
        d *= g
        _accum(a, d)

    out._backward = bwd if out.requires_grad else None
    return out


def _scale_shift(xhat: np.ndarray, gain: Tensor, bias: Tensor) -> np.ndarray:
    """A layer norm's output from its normalised rows: xhat * gain + bias, as
    a new array. _add_norm's output and the encoder's rebuilt sublayer inputs
    both come from here, so they have the same bytes."""
    out = xhat * gain.data
    out += bias.data
    return out


def _add_norm(res: np.ndarray, y: np.ndarray, gain: Tensor, bias: Tensor):
    """Layer norm of the (N, n) rows res + y over the last axis, then scale
    and shift. The sum is taken in y's buffer, which becomes the normalised
    rows. Row means and variances are GEMVs against a 1/n column, and each
    row is first shifted by its own first value: the result is the same,
    but a float32 mean is then accurate to the row's spread rather than to
    its offset from zero. Returns the output, the normalised rows and the
    (N,) row scales, which are all that the backward reads."""
    y += res
    col = np.full(y.shape[-1], 1.0 / y.shape[-1], dtype=y.dtype)
    y -= y[:, :1]
    y -= (y @ col)[:, None]
    inv = 1.0 / np.sqrt((y * y) @ col + _LN_EPS)
    y *= inv[:, None]
    return _scale_shift(y, gain, bias), y, inv


def _add_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                       gain: Tensor, bias: Tensor) -> np.ndarray:
    """Accumulate the gain and bias gradients of _add_norm for the (N, n)
    output gradient g, and return the gradient of the sum res + y, which
    both of its terms take."""
    n = xhat.shape[-1]
    gx = g * xhat
    _accum(gain, gx.sum(axis=0))
    _accum(bias, g.sum(axis=0))
    # the two row means of dxhat = g * gain and of dxhat * xhat
    wcol = gain.data * (1.0 / n)
    m1 = g @ wcol
    m2 = gx @ wcol
    dx = g * gain.data
    dx -= m1[:, None]
    np.multiply(xhat, m2[:, None], out=gx)
    dx -= gx
    dx *= inv[:, None]
    return dx


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """The (B, n_heads, T, d / n_heads) head view of a (B, T, d) array."""
    B, T, d = x.shape
    return x.reshape(B, T, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge(x: np.ndarray) -> np.ndarray:
    """The (B, T, d) array of a (B, n_heads, T, d / n_heads) head stack."""
    B, H, T, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, H * dh)


def _softmax(qh: np.ndarray, kh: np.ndarray, key_bias: np.ndarray, row_max=None, row_sum=None):
    """The row softmax of the scores qh @ kh^T, with key_bias (B, T) added to
    every query's scores for that key, and its (B, H, T, 1) row maxima and
    row sums. The maxima are taken as the entries at each row's argmax,
    which is exact; the sums are a GEMV against a ones column. Given the
    maxima and sums of an earlier call on the same inputs, it reuses them
    and skips both passes: the ops that remain are the same, in the same
    order, so the probabilities have the earlier call's bytes."""
    p = qh @ kh.swapaxes(-1, -2)
    p += key_bias[:, None, None, :]
    if row_max is None:
        row_max = np.take_along_axis(p, p.argmax(axis=-1)[..., None], axis=-1)
    p -= row_max
    np.exp(p, out=p)
    if row_sum is None:
        B, H, T, _ = p.shape
        row_sum = (p.reshape(-1, T) @ np.ones(T, p.dtype)).reshape(B, H, T, 1)
    p /= row_sum
    return p, row_max, row_sum


def _example_blocks(B: int, T: int, n_heads: int) -> list[slice]:
    """Consecutive slices of whole examples of a (B, T) batch, each of about
    _BLOCK_ROWS rows (at least one example).

    Each block but the last holds a multiple of 8 softmax rows (n_heads * T
    an example). A block's row sums are one GEMV, and OpenBLAS's GEMV sums
    the rows of a call in groups of 8 from its first row, and its last few
    rows apart: so each row's sum has the bytes of one GEMV over the batch."""
    step = max(1, _BLOCK_ROWS // T)
    step += -step % (8 // math.gcd(8, n_heads * T))
    return [slice(lo, min(lo + step, B)) for lo in range(0, B, step)]


def _qkv(x: np.ndarray, layer: tuple, B: int, T: int) -> list:
    """The (B, T, d) queries, keys and values of the (B*T, d) rows x."""
    wq, bq, wk, bk, wv, bv = layer[:6]
    return [_affine(x, w, b).reshape(B, T, -1) for w, b in ((wq, bq), (wk, bk), (wv, bv))]


def _attention(x: np.ndarray, layer: tuple, key_bias: np.ndarray, n_heads: int):
    """The (B*T, d) attention output of the rows x, before its output
    projection, and the softmax's (B, H, T, 1) row maxima and row sums;
    scores, softmax and output a block of examples at a time."""
    B, T = key_bias.shape
    q, k, v = _qkv(x, layer, B, T)
    scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    ctx = np.empty_like(q)
    row_max, row_sum = (np.empty((B, n_heads, T, 1), q.dtype) for _ in range(2))
    for s in _example_blocks(B, T, n_heads):
        p, row_max[s], row_sum[s] = _softmax(
            _heads(q[s] * scale, n_heads), _heads(k[s], n_heads), key_bias[s])
        _heads(ctx, n_heads)[s] = p @ _heads(v[s], n_heads)
    return ctx.reshape(x.shape), row_max, row_sum


def _attention_backward(x: np.ndarray, layer: tuple, key_bias: np.ndarray, n_heads: int,
                        row_max: np.ndarray, row_sum: np.ndarray, dx: np.ndarray) -> None:
    """Accumulate the gradients of the q, k, v and output projections of
    _attention(x) for the (B*T, d) gradient dx of their output, and add x's
    gradients through q, k and v, in that order, into dx.

    A block at a time, the probabilities and attention output are rebuilt
    from q, k and the row statistics, skipping the max and row-sum passes;
    each query's softmax backward sum(dP * P) is the dot of its output
    gradient with its own output."""
    B, T = key_bias.shape
    wq, bq, wk, bk, wv, bv, wo, bo = layer[:8]
    q, k, v = _qkv(x, layer, B, T)
    scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    gctx = (dx @ wo.data.T).reshape(q.shape)
    ctx, gq, gk, gv = (np.empty_like(q) for _ in range(4))
    for s in _example_blocks(B, T, n_heads):
        qh, kh, vh = (_heads(a[s], n_heads) for a in (q, k, v))
        p = _softmax(_heads(q[s] * scale, n_heads), kh, key_bias[s], row_max[s], row_sum[s])[0]
        ch = _heads(ctx, n_heads)[s]
        ch[...] = p @ vh
        gh = _heads(gctx[s], n_heads)
        _heads(gv, n_heads)[s] = p.swapaxes(-1, -2) @ gh
        # softmax backward p * (gp - sum(gp * p)), where each query's
        # sum(gp * p) = g . sum(p * v) = g . ctx, a dot over dh, not over T keys
        gs = gh @ vh.swapaxes(-1, -2)
        gs -= (gh * ch).sum(axis=-1, keepdims=True)
        gs *= p
        _heads(gq, n_heads)[s] = gs @ kh
        _heads(gk, n_heads)[s] = gs.swapaxes(-1, -2) @ qh
    gq *= scale
    gk *= scale
    _accum(wo, ctx.reshape(x.shape).T @ dx)
    _accum(bo, dx.sum(axis=0))
    for w, b, gw in ((wq, bq, gq), (wk, bk, gk), (wv, bv, gv)):
        dx += _affine_backward(x, w, b, gw.reshape(x.shape))


def _feed_forward_backward(a: np.ndarray, layer: tuple, rows: list, dx: np.ndarray) -> None:
    """Accumulate the gradients of both projections of gelu(a w1 + b1) w2 + b2
    for the gradient dx of its output, and add a's gradient into dx. The
    GELU cdf is computed once, a block of rows at a time, for both the GELU
    output (w2's gradient) and GELU's slope."""
    w1, b1, w2, b2 = layer[10:14]
    pre = _affine(a, w1, b1)
    h = np.empty_like(pre)
    for r in rows:   # h = gelu(pre), and pre becomes GELU's slope
        cdf = _gelu_cdf(pre[r])
        np.multiply(pre[r], cdf, out=h[r])
        pre[r] = _gelu_slope(pre[r], cdf)
    gh = _affine_backward(h, w2, b2, dx)
    del h
    gh *= pre
    dx += _affine_backward(a, w1, b1, gh)


def encoder(H: Tensor, layers: list, key_bias: np.ndarray, n_heads: int) -> Tensor:
    """A stack of post-LN Transformer blocks over (B, T, d) rows H, as one
    node. Each layer is a tuple of 16 tensors, in checkpoint order: wq, bq,
    wk, bk, wv, bv, wo, bo, ln1_g, ln1_b, ff_w1, ff_b1, ff_w2, ff_b2, ln2_g,
    ln2_b. A block maps its input X to
        A = LN1(X + attention(X wq + bq, X wk + bk, X wv + bv) wo + bo),
        Y = LN2(A + gelu(A ff_w1 + ff_b1) ff_w2 + ff_b2),
    and Y is the next block's input. With no layers it returns H.

    The attention is multi-head scaled dot-product attention; key_bias
    (B, T) is added to every query's scores for that key (a large negative
    value masks a padding key). The score scale is applied to the queries,
    and in the backward to the query and key gradients, so it touches
    B*T*d values, not B*H*T*T scores.

    Besides its input H, the node keeps per layer only its two layer norms'
    normalised rows and row scales and the softmax's (B, H, T, 1) row maxima
    and row sums. Its backward walks the layers in reverse. It rebuilds each
    sublayer's input from the layer norm before it (the first attention's
    is H) with that layer norm's own last two ops, runs the sublayer's layer
    norm backward, then recomputes the sublayer's projections,
    probabilities, attention output or GELU with the forward's ops in the
    forward's order, so with its bytes. A sublayer's input gradient is
    summed as the unfused chain sums it: the residual's, then q's, k's and
    v's input gradients, or the first feed-forward projection's.

    The scores, softmax and attention output (forward, replay and backward)
    and the GELU passes run a block of whole examples at a time, so their
    temporaries take a block's size, not the batch's. Every product or sum
    across rows (the projections, the layer norms, and every weight, bias
    and gain gradient) is one op over all rows.
    """
    if not layers:
        return H
    B, T, d = H.data.shape
    rows = [slice(s.start * T, s.stop * T) for s in _example_blocks(B, T, n_heads)]
    kept = []   # per layer: xhat1, inv1, row_max, row_sum, xhat2, inv2
    x = H.data.reshape(-1, d)
    for layer in layers:
        wo, bo, g1, c1, w1, b1, w2, b2, g2, c2 = layer[6:]
        ctx, row_max, row_sum = _attention(x, layer, key_bias, n_heads)
        a, xhat1, inv1 = _add_norm(x, _affine(ctx, wo, bo), g1, c1)
        del ctx
        h = _affine(a, w1, b1)
        for r in rows:
            h[r] *= _gelu_cdf(h[r])
        x, xhat2, inv2 = _add_norm(a, _affine(h, w2, b2), g2, c2)
        del a, h
        kept.append([xhat1, inv1, row_max, row_sum, xhat2, inv2])
    out = Tensor(x.reshape(B, T, d), _parents=(H, *(t for layer in layers for t in layer)))

    def bwd(g):
        dx = g.reshape(-1, d)
        for i in reversed(range(len(layers))):
            layer = layers[i]
            xhat1, inv1, row_max, row_sum, xhat2, inv2 = kept[i]
            kept[i] = None
            dx = _add_norm_backward(dx, xhat2, inv2, *layer[14:])
            _feed_forward_backward(_scale_shift(xhat1, *layer[8:10]), layer, rows, dx)
            dx = _add_norm_backward(dx, xhat1, inv1, *layer[8:10])
            del xhat1, xhat2
            x = _scale_shift(kept[i - 1][4], *layers[i - 1][14:]) if i else H.data.reshape(-1, d)
            _attention_backward(x, layer, key_bias, n_heads, row_max, row_sum, dx)
        _accum(H, dx.reshape(B, T, d))

    out._backward = bwd if out.requires_grad else None
    return out
