"""Finite-difference checks for every autodiff primitive."""

import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elink import autodiff as ad
from elink.autodiff import RowGrad, Tensor
from helpers import unfused_attention_sublayer, unfused_encoder


def _dense_grad(t):
    if t.grad is None:
        return np.zeros_like(t.data)
    return t.grad.dense() if isinstance(t.grad, RowGrad) else t.grad.copy()


def fd_check(build, tensors, h=1e-6, tol=1e-5):
    """Compare analytic gradients of build() (a scalar Tensor) against
    central finite differences for each tensor."""
    out = build()
    out.backward()
    grads = [_dense_grad(t) for t in tensors]
    for t in tensors:
        t.grad = None
    for t, g in zip(tensors, grads):
        num = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = t.data[i]
            t.data[i] = orig + h
            fp = float(build().data)
            t.data[i] = orig - h
            fm = float(build().data)
            t.data[i] = orig
            num[i] = (fp - fm) / (2 * h)
            it.iternext()
        err = np.abs(g - num) / np.maximum(np.maximum(np.abs(g), np.abs(num)), 1e-3)
        assert err.max() < tol, f"gradient mismatch: {err.max()}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def test_add_mul_broadcast(rng):
    # tensor + tensor and tensor * constant, each broadcast both ways
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    c = rng.normal(size=(3, 4))
    fd_check(lambda: ((a + b) * c + (a * 2.0) + b * c).sum(), [a, b])


def test_sum_grad(rng):
    a = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    y = a.sum()
    assert y.shape == () and y.data == a.data.sum()
    fd_check(lambda: (a * 0.7).sum(), [a])


def test_concat_grad(rng):
    a = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
    w_last, w_first = rng.normal(size=(2, 3, 6)), rng.normal(size=(3, 3, 2))
    fd_check(lambda: (ad.concat([a, b], axis=-1) * w_last).sum()
             + (ad.concat([a, c], axis=0) * w_first).sum(), [a, b, c])


def test_take_accumulates_repeated_rows(rng):
    e = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = np.array([[0, 2], [2, 4]])
    fd_check(lambda: (ad.take(e, idx) * 0.5).sum(), [e])
    out = ad.take(e, idx)
    out.sum().backward()
    # row 2 appears twice, so its gradient is doubled
    assert np.allclose(e.grad.dense()[2], 2.0)
    assert np.allclose(e.grad.dense()[1], 0.0)


def _dense_scatter(shape, idx, g):
    """The dense gather gradient: a zero table with np.add.at over idx."""
    buf = np.zeros(shape)
    np.add.at(buf, idx, g)
    return buf


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_take_rowgrad_equals_dense_scatter(data):
    n = data.draw(st.integers(1, 6), label="rows")
    d = data.draw(st.integers(1, 3), label="width")
    flat = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=24), label="idx")
    idx = np.array(flat)
    if len(flat) % 2 == 0 and data.draw(st.booleans(), label="2-D"):
        idx = idx.reshape(2, -1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    e = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    # zeroing some entries leaves -0.0 where the normal draw was negative
    w = rng.normal(size=idx.shape + (d,)) * rng.integers(0, 2, size=idx.shape + (d,))
    (ad.take(e, idx) * w).sum().backward()
    assert isinstance(e.grad, RowGrad)
    assert np.array_equal(e.grad.rows, np.unique(idx % n))
    assert e.grad.dense().tobytes() == _dense_scatter((n, d), idx, w).tobytes()


def test_repeated_gathers_accumulate_like_dense(rng):
    e = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    i1, i2 = np.array([4, 0, 4]), np.array([[1, 4], [0, 0]])
    w1, w2 = rng.normal(size=(3, 2)), rng.normal(size=(2, 2, 2))
    ((ad.take(e, i1) * w1).sum() + (ad.take(e, i2) * w2).sum()).backward()
    assert isinstance(e.grad, RowGrad)
    expect = _dense_scatter((6, 2), i1, w1) + _dense_scatter((6, 2), i2, w2)
    assert e.grad.dense().tobytes() == expect.tobytes()
    # a dense use of the same table densifies the sum
    e.grad = None
    ((ad.take(e, i1) * w1).sum() + (e * w2[0, 0]).sum()).backward()
    assert isinstance(e.grad, np.ndarray)
    assert np.array_equal(e.grad, _dense_scatter((6, 2), i1, w1) + w2[0, 0])


def test_take_of_interior_node(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    idx = np.array([3, 1, 3])
    # the gelu rule receives the gather's gradient densified
    fd_check(lambda: (ad.take(ad.gelu(a), idx) * 0.7).sum(), [a])


def test_strided_gradient_is_reduced_in_c_order(rng):
    # concat hands the add node a strided piece of its gradient; the node
    # must keep a C-contiguous copy, so its bias reduction sums in the order
    # of a C-contiguous gradient buffer
    m = Tensor(rng.normal(size=(4096, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    rest = Tensor(rng.normal(size=(4096, 2)), requires_grad=True)
    w = rng.normal(size=(4096, 5))
    biased = m + b
    rule, seen = biased._backward, []

    def record(g):
        seen.append(g.flags.c_contiguous)
        rule(g)

    biased._backward = record
    (ad.concat([biased, rest], axis=-1) * w).sum().backward()
    assert seen == [True]
    assert b.grad.tobytes() == np.ascontiguousarray(w[:, :3]).sum(axis=0).tobytes()


def test_take2_pairs(rng):
    a = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    fd_check(lambda: (ad.take2(a, np.array([0, 2]), np.array([1, 3])) * 2.0).sum(), [a])


def test_linear_3d_grad(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    c = rng.normal(size=(2, 3, 5))
    fd_check(lambda: (ad.linear(x, w, b) * c).sum(), [x, w, b])


def test_linear_matches_matmul_plus_bias(rng):
    x = Tensor(rng.normal(size=(3, 7, 6)))
    w = Tensor(rng.normal(size=(6, 4)))
    b = Tensor(rng.normal(size=(4,)))
    assert np.allclose(ad.linear(x, w, b).data, x.data @ w.data + b.data, rtol=1e-13, atol=0.0)


def _encoder_inputs(rng, n_layers=1, dtype=np.float64, B=2, T=5, d=6, d_ff=8):
    """H (B, T, d) and the parameters of n_layers encoder layers, each a
    tuple in autodiff.encoder's order, every tensor requiring grad. Weights
    are scaled by 1/sqrt(fan-in) and gains sit near 1."""

    def leaf(shape, scale=1.0, offset=0.0):
        return Tensor((offset + scale * rng.normal(size=shape)).astype(dtype), requires_grad=True)

    def norm():
        return [leaf(d, 0.1, 1.0), leaf(d, 0.1)]

    H = leaf((B, T, d))
    layers = []
    for _ in range(n_layers):
        layer = [t for _ in range(4) for t in (leaf((d, d), 1 / math.sqrt(d)), leaf(d))] + norm()
        layer += [leaf((d, d_ff), 1 / math.sqrt(d)), leaf(d_ff), leaf((d_ff, d), 1 / math.sqrt(d_ff)), leaf(d)]
        layers.append(tuple(layer + norm()))
    return H, layers


def _padding(B=2, T=5):
    """A (B, T) padding mask with two padding keys in example 0, and its key bias."""
    pad = np.zeros((B, T), dtype=bool)
    pad[0, 3:] = True
    return pad, np.where(pad, -1e9, 0.0)


def test_attention_grad_with_padded_keys(rng, monkeypatch):
    """The encoder's gradient in its input and each of a layer's 16
    parameters, with padded keys, over blocks of two examples and a last
    block of one."""
    monkeypatch.setattr(ad, "_BLOCK_ROWS", 8)
    H, layers = _encoder_inputs(rng, 1, B=3, T=4)
    assert ad._example_blocks(3, 4, 2) == [slice(0, 2), slice(2, 3)]
    _, bias = _padding(B=3, T=4)
    w = rng.normal(size=H.shape)
    fd_check(lambda: (ad.encoder(H, layers, bias, 2) * w).sum(), [H, *layers[0]])


@pytest.mark.parametrize("B, T, block_rows", [(1, 5, 512), (2, 4, 3)],
                         ids=["one_example_below_a_block", "one_example_blocks"])
def test_encoder_grad(rng, monkeypatch, B, T, block_rows):
    """Two layers' gradients in every input, with a padded key: B = 1 with
    T below one block, and blocks of one example each."""
    monkeypatch.setattr(ad, "_BLOCK_ROWS", block_rows)
    H, layers = _encoder_inputs(rng, 2, B=B, T=T)
    pad = np.zeros((B, T), dtype=bool)
    pad[0, -1] = True
    w = rng.normal(size=H.shape)
    fd_check(lambda: (ad.encoder(H, layers, np.where(pad, -1e9, 0.0), 2) * w).sum(),
             [H, *layers[0], *layers[1]])


def test_attention_ignores_padding_keys(rng):
    H, layers = _encoder_inputs(rng, 2)
    pad, bias = _padding()
    w = rng.normal(size=H.shape) * ~pad[..., None]   # loss reads non-pad outputs only
    out = ad.encoder(H, layers, bias, 2)
    (out * w).sum().backward()
    assert not H.grad[pad].any()
    # new content at the padded positions leaves every non-pad output unchanged
    H.data[pad] = rng.normal(size=H.data[pad].shape) * 50
    again = ad.encoder(H, layers, bias, 2)
    assert again.data[~pad].tobytes() == out.data[~pad].tobytes()


def _layer_norm64(x, gain, bias):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) * gain + bias


def test_attention_weights_sum_to_one(rng):
    # a value that is the same at every key (wv = 0) comes back unchanged, at
    # any score scale, only if each query's weights sum to one; a zero second
    # feed-forward projection leaves the second layer norm alone after it
    H, layers = _encoder_inputs(rng, 1, B=2, T=4)
    wq, _, wk, _, wv, bv, wo, bo, g1, c1, _, _, w2, b2, g2, c2 = layers[0]
    H.data *= 10
    wq.data *= 10
    wk.data *= 10
    for t in (wv, w2, b2):
        t.data[:] = 0.0
    out = ad.encoder(H, layers, np.zeros((2, 4)), 3)
    a = _layer_norm64(H.data + (bv.data @ wo.data + bo.data), g1.data, c1.data)
    want = _layer_norm64(a, g2.data, c2.data)
    assert np.allclose(out.data, want, atol=1e-12)


def test_attention_float32_matches_float64_on_a_padded_batch(rng):
    H, layers = _encoder_inputs(rng, 1, B=3, T=16, d=32, d_ff=64)
    ins64 = [H, *layers[0]]
    pad, bias = _padding(B=3, T=16)
    pad[2, 9:] = True
    bias = np.where(pad, -1e9, 0.0)
    w = rng.normal(size=H.shape)
    runs = []
    for dtype in (np.float64, np.float32):
        ins = [Tensor(t.data.astype(dtype), requires_grad=True) for t in ins64]
        out = ad.encoder(ins[0], [tuple(ins[1:])], bias.astype(dtype), 4)
        (out * w.astype(dtype)).sum().backward()
        assert out.data.dtype == dtype and all(t.grad.dtype == dtype for t in ins)
        runs.append([out.data] + [t.grad for t in ins])
    # bk's gradient is zero but for rounding (the softmax cancels a score
    # that a query adds to every key), so it is measured against bq's
    runs[0].pop(5)
    assert np.abs(runs[1].pop(5)).max() <= 1e-4 * np.abs(runs[1][3]).max()
    # each array's error is measured against its largest entry: elementwise,
    # a gradient that cancels to near zero has no float32 relative accuracy
    for want, got in zip(*runs):
        assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()


@pytest.mark.parametrize("B, T, block_rows", [(3, 16, 512), (3, 16, 32), (3, 16, 16), (5, 7, 7)],
                         ids=["one_block", "two_example_blocks", "one_example_blocks",
                              "odd_length_blocks"])
def test_encoder_equals_the_unfused_chain_in_float32(monkeypatch, B, T, block_rows):
    """Output and every input gradient of a two-layer encoder have the bytes
    of the chain of per-layer unfused sublayers (`linear`, attention or
    `gelu`, a tape add and a layer-norm node: helpers.unfused_encoder), with
    padded keys, over blocks of several examples, of one, and, for T = 7,
    blocks rounded up to two examples (a multiple of eight softmax rows),
    each with a shorter last block. H is an interior node, X * 1.0, so its
    gradient, the sum of the residual's and each input projection's,
    reaches the leaf X as one gradient."""
    monkeypatch.setattr(ad, "_BLOCK_ROWS", block_rows)
    pad, _ = _padding(B, T)
    pad[2, T // 2:] = True
    bias = np.where(pad, -1e9, 0.0).astype(np.float32)
    w = np.random.default_rng(4).normal(size=(B, T, 32)).astype(np.float32)
    runs = []
    for op in (ad.encoder, unfused_encoder):
        X, layers = _encoder_inputs(np.random.default_rng(5), 2, np.float32, B, T, 32, 64)
        out = op(X * 1.0, layers, bias, 4)
        (out * w).sum().backward()
        runs.append([out.data, X.grad] + [t.grad for layer in layers for t in layer])
    for got, want in zip(*runs):
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def _held_arrays(obj, seen=None) -> list:
    """Every array a backward rule reaches through its closure: its own
    cells, its nested functions' cells, the lists and tuples they hold and
    its tensors' data."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, Tensor):
        return [obj.data]
    if isinstance(obj, (list, tuple)):
        return [a for x in obj for a in _held_arrays(x, seen)]
    if callable(obj) and getattr(obj, "__closure__", None):
        return [a for c in obj.__closure__ for a in _held_arrays(c.cell_contents, seen)]
    return []


def test_attention_keeps_only_row_statistics(rng):
    """Besides its inputs and the key bias, the node keeps per layer only
    its two layer norms' normalised rows and row scales and the softmax's
    row maxima and row sums: no sublayer input or output, q, k, v,
    probabilities, attention output or feed-forward activations."""
    B, T, d, n_heads, n_layers = 3, 16, 32, 4, 2
    H, layers = _encoder_inputs(rng, n_layers, np.float32, B, T, d, 64)
    _, bias = _padding(B, T)
    bias = bias.astype(np.float32)
    out = ad.encoder(H, layers, bias, n_heads)
    inputs = [bias, H.data] + [t.data for layer in layers for t in layer]
    own = [a for a in _held_arrays(out._backward)
           if not any(np.shares_memory(a, t) for t in inputs)]
    per_layer = [(B * T,), (B * T, d), (B, n_heads, T, 1), (B, n_heads, T, 1), (B * T,), (B * T, d)]
    assert sorted(a.shape for a in own) == sorted(per_layer * n_layers)


def test_feed_forward_sublayer_keeps_only_its_input_and_normalised_rows(rng):
    """For its feed-forward sublayer the encoder node keeps no (B*T, d_ff)
    activation: only the normalised rows its input is rebuilt from, to the
    bytes of the unfused attention sublayer's output, and its own layer
    norm's normalised rows, which give the node's output to the byte."""
    B, T, d, d_ff = 3, 16, 32, 64
    H, layers = _encoder_inputs(rng, 1, np.float32, B, T, d, d_ff)
    _, bias = _padding(B, T)
    bias = bias.astype(np.float32)
    out = ad.encoder(H, layers, bias, 4)
    ff_input = unfused_attention_sublayer(H, *layers[0][:10], bias, 4).data.reshape(-1, d)
    inputs = [bias, H.data] + [t.data for t in layers[0]]
    own = [a for a in _held_arrays(out._backward)
           if not any(np.shares_memory(a, t) for t in inputs)]
    assert not any(d_ff in a.shape for a in own)
    rows = [a for a in own if a.shape == (B * T, d)]
    rebuilt = [[ad._scale_shift(a, *layers[0][k:k + 2]).tobytes() for a in rows] for k in (8, 14)]
    assert len(rows) == 2
    assert ff_input.tobytes() in rebuilt[0]
    assert out.data.tobytes() in rebuilt[1]


def _nll_rows(scores: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Per-row softmax NLL of column gold of each row, in numpy."""
    m = scores.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(scores - m).sum(axis=-1)) + m[..., 0]
    return lse - np.take_along_axis(scores, gold[..., None], axis=-1)[..., 0]


def test_softmax_nll_grad(rng):
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = rng.normal(size=3)
    fd_check(lambda: ad.softmax_nll(a, np.array([0, 4, 2]), w), [a])


def test_softmax_nll_stable_at_large_scores(rng):
    a = Tensor(np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 3.0], [0.5, -1e4, 1e4]]), requires_grad=True)
    gold = np.array([1, 1, 0])
    # a one-hot weight picks one row's NLL
    rows = [ad.softmax_nll(a, gold, np.eye(3)[i]).data for i in range(3)]
    assert np.isfinite(rows).all()
    assert rows[1] == 0.0
    fd_check(lambda: ad.softmax_nll(a, gold, np.array([0.3, -1.2, 0.7])), [a], h=1e-3)


def test_weighted_softmax_nll_grad(rng):
    """Per-row weights over (B, T, K) scores: the weighted sum of the
    per-row NLL, and its gradient matches finite differences."""
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    gold = np.array([[0, 3, 1], [2, 2, 0]])
    w = np.array([[0.5, 0.0, 1.5], [0.25, 1.0, 0.0]])
    y = ad.softmax_nll(a, gold, w)
    assert y.shape == ()
    assert y.data == pytest.approx(float((_nll_rows(a.data, gold) * w).sum()), abs=1e-15)
    fd_check(lambda: ad.softmax_nll(a, gold, w), [a])


@pytest.mark.parametrize("kinds", ["dense+dense", "dense+rows", "rows+dense", "rows+other_rows",
                                   "rows+same_rows", "rows+no_rows"])
def test_add_grads_equals_the_dense_sum(rng, kinds):
    shape = (6, 3)

    def make(kind):
        if kind == "dense":
            return rng.normal(size=shape)
        rows = {"rows": [4, 0, 4, 2], "other_rows": [5, 1, 2], "same_rows": [2, 0, 4],
                "no_rows": []}[kind]
        return RowGrad(np.array(rows, dtype=np.int64), rng.normal(size=(len(rows), 3)), shape)

    a, b = (make(k) for k in kinds.split("+"))
    dense = [g.dense() if isinstance(g, RowGrad) else g.copy() for g in (a, b)]
    out = ad.add_grads(a, b)
    got = out.dense() if isinstance(out, RowGrad) else out
    assert got.tobytes() == (dense[0] + dense[1]).tobytes()
    assert isinstance(out, RowGrad) == ("dense" not in kinds)


def _table_case(rng):
    """A 7-row table, an unsorted first-appearance union of 5 of its rows,
    and golds at the union's first and last positions."""
    svec = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    return svec, table, np.array([5, 0, 6, 2, 3]), np.array([0, 4, 0])


@pytest.mark.parametrize("full, biased", [(False, False), (True, False), (False, True)],
                         ids=["False", "True", "biased"])
def test_table_softmax_nll_grad(rng, full, biased):
    svec, table, rows, gold = _table_case(rng)
    bias = None
    if full:
        rows, gold = None, np.array([0, 6, 3])
    if biased:
        # a real-valued bias, with each span's non-gold columns partly masked
        bias = rng.normal(size=(3, 5))
        bias[[0, 0, 1, 2], [1, 3, 0, 4]] = -1e9
    w = rng.normal(size=3)
    fd_check(lambda: (ad.table_softmax_nll(svec, ad.TableRows(table, rows), gold, bias)[0]
                      * w).sum(), [svec, table])


def test_table_softmax_nll_masked_column_adds_exactly_zero():
    """A column biased by -1e9 adds exactly 0 to its span's softmax, even
    when it scores highest: the NLL has the bytes of the unmasked columns'
    alone, the argmax skips it and its table row gets exactly 0 gradient.
    Small-integer data makes every score exact whatever the GEMM's order."""
    svec = Tensor(np.array([[1.0, 2.0], [2.0, -1.0]]), requires_grad=True)
    table = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0], [-1.0, 1.0]]), requires_grad=True)
    gold = [1, 0]   # columns, and entities: the rows are 0-3 in order
    bias = np.array([[0.0, 0.0, -1e9, 0.0], [0.0, -1e9, 0.0, 0.0]])
    nll, pred = ad.table_softmax_nll(svec, ad.TableRows(table, np.arange(4)), gold, bias)
    assert pred.tolist() == [1, 2]   # span 0's best score, column 2's 9, is masked
    for i, own in enumerate(([0, 1, 3], [0, 2, 3])):
        alone, _ = ad.table_softmax_nll(Tensor(svec.data[i : i + 1]),
                                        ad.TableRows(table, np.array(own)), [own.index(gold[i])])
        assert nll.data[i].tobytes() == alone.data[0].tobytes()
    (nll * np.array([1.0, 0.0])).sum().backward()
    assert table.grad.rows.tolist() == [0, 1, 2, 3]
    assert (table.grad.values[2] == 0.0).all() and table.grad.values[[0, 1, 3]].all()


@pytest.mark.parametrize("full", [False, True])
def test_table_softmax_nll_matches_the_gather_matmul_composition(rng, full):
    """The fused node against its gather, score GEMM and softmax NLL done
    step by step in numpy."""
    svec, table, rows, gold = _table_case(rng)
    if full:
        rows, gold = None, np.array([0, 6, 3])
    w = rng.normal(size=3)
    emb = table.data if full else table.data[rows]
    scores = svec.data @ emb.T
    at = np.arange(3)
    e = np.exp(scores - scores[at, scores.argmax(axis=-1)][:, None])
    total = e.sum(axis=-1, keepdims=True)
    ref = (np.log(total) + scores.max(axis=-1, keepdims=True))[:, 0] - scores[at, gold]
    dscores = e / total
    dscores[at, gold] -= 1.0
    dscores *= w[:, None]
    want_svec = dscores @ emb
    want_table = np.zeros_like(table.data)
    np.add.at(want_table, slice(None) if full else rows, dscores.T @ svec.data)

    nll, pred = ad.table_softmax_nll(svec, ad.TableRows(table, rows), gold)
    (nll * w).sum().backward()
    assert nll.data.tobytes() == ref.tobytes()
    assert pred.tolist() == scores.argmax(axis=-1).tolist()
    assert svec.grad.tobytes() == want_svec.tobytes()
    if full:
        assert isinstance(table.grad, np.ndarray)
    else:
        assert isinstance(table.grad, RowGrad)
        assert table.grad.rows.tolist() == sorted(rows.tolist())
    got = _dense_grad(table)
    assert np.abs(got - want_table).max() <= 1e-12 * np.abs(want_table).max()


def test_table_softmax_nll_writes_the_table_gradient_in_row_blocks(rng, monkeypatch):
    """A table gradient written in blocks of 2, 2 and 1 sorted rows equals
    the one written as a single block, also when a second node shares the
    rows and its blocks are added to the first's."""
    svec, table, rows, gold = _table_case(rng)
    other = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    w = rng.normal(size=3)
    for nodes in ([(svec, gold)], [(svec, gold), (other, gold[:2])]):
        grads = []
        for block in (ad._GRAD_BLOCK, 8):   # 8 values: 2 rows of 3 spans and 4 columns
            monkeypatch.setattr(ad, "_GRAD_BLOCK", block)
            shared = ad.TableRows(table, rows)
            terms = [(ad.table_softmax_nll(x, shared, g)[0] * w[: len(g)]).sum() for x, g in nodes]
            loss = terms[0]
            for term in terms[1:]:
                loss = loss + term
            loss.backward()
            grads.append(_dense_grad(table))
            svec.grad = other.grad = table.grad = None
        assert np.abs(grads[1] - grads[0]).max() <= 1e-14 * np.abs(grads[0]).max()


def _two_scorer_tapes(table, rows, concurrent) -> list:
    """Two (loss, span vectors) tapes, each loss of a table_softmax_nll
    node, the two nodes sharing one TableRows of table's rows."""
    rng = np.random.default_rng(3)
    shared = ad.TableRows(table, rows, concurrent=concurrent)
    tapes = []
    for n in (3, 4):
        svec = Tensor(rng.normal(size=(n, table.shape[1])), requires_grad=True)
        gold = rng.integers(0, len(rows), size=n)
        nll, _ = ad.table_softmax_nll(svec, shared, gold)
        tapes.append(((nll * rng.normal(size=n)).sum(), svec))
    return tapes


def test_table_rows_shared_by_two_threads_gives_the_serial_bytes(rng, monkeypatch):
    """Two tapes whose nodes share a TableRows, their backwards on two
    threads at once, give the table and span-vector gradients of the two
    run one after the other, byte for byte: neither node's rows are
    overwritten before both have read them, and the two writers' blocks
    cover every row once. Many one-row blocks, a short switch interval and
    four pairs at once on eight threads race the meeting and the writes."""
    monkeypatch.setattr(ad, "_GRAD_BLOCK", 4)   # one row of 8 columns per block
    table = Tensor(rng.normal(size=(40, 8)), requires_grad=True)
    rows = rng.permutation(40)[:30]
    serial = _two_scorer_tapes(table, rows, concurrent=False)
    for loss, _ in serial:
        loss.backward()
    want = [table.grad.rows, table.grad.values] + [svec.grad for _, svec in serial]
    tables = [Tensor(table.data, requires_grad=True) for _ in range(4)]
    pairs = [_two_scorer_tapes(t, rows, concurrent=True) for t in tables]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            runs = [pool.submit(loss.backward) for pair in pairs for loss, _ in pair]
            for run in runs:
                run.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for t, pair in zip(tables, pairs):
        got = [t.grad.rows, t.grad.values] + [svec.grad for _, svec in pair]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_table_rows_serves_at_most_two_nodes(rng):
    svec, table, rows, gold = _table_case(rng)
    shared = ad.TableRows(table, rows)
    for _ in range(2):
        ad.table_softmax_nll(svec, shared, gold)
    with pytest.raises(ValueError, match="at most two"):
        ad.table_softmax_nll(svec, shared, gold)


def test_table_softmax_nll_rejects_repeated_or_negative_rows(rng):
    svec, table, _, _ = _table_case(rng)
    for rows in ([1, 4, 1], [2, -1]):
        with pytest.raises(ValueError, match="distinct"):
            ad.TableRows(table, np.array(rows))


def _closure_arrays(rule) -> list:
    """The arrays a backward rule's closure holds directly."""
    return [c.cell_contents for c in rule.__closure__ if isinstance(c.cell_contents, np.ndarray)]


def test_table_softmax_nll_drops_its_scores_once_its_rule_has_run(rng):
    """The (N, K) score matrix is unreferenced as soon as the node's rule
    has run, while the sweep still has the node's input to walk."""
    svec, table, rows, gold = _table_case(rng)
    h = svec * 1.0   # an interior input, whose rule runs after the node's
    nll, _ = ad.table_softmax_nll(h, ad.TableRows(table, rows), gold)
    (scores,) = [a for a in _closure_arrays(nll._backward) if a.shape == (3, 5)]
    ref = weakref.ref(scores)
    del scores
    alive_at_input = []
    rule = h._backward

    def watched(g):
        alive_at_input.append(ref() is not None)
        rule(g)

    h._backward = watched
    nll.sum().backward()
    assert alive_at_input == [False]


def test_gelu_keeps_only_its_input(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    out = ad.gelu(a)
    held = _closure_arrays(out._backward)
    assert held and all(x is a.data for x in held)


def test_gelu_grad(rng):
    a = Tensor(rng.normal(size=(4, 3)) * 2, requires_grad=True)
    fd_check(lambda: (ad.gelu(a) * 0.3).sum(), [a])


def test_gelu_grad_in_the_tails(rng):
    # |x| in 3-6, where the tanh nears +-1 and the derivative nears 0 or 1
    x = rng.uniform(3.0, 6.0, size=(4, 3)) * rng.choice([-1.0, 1.0], size=(4, 3))
    a = Tensor(x, requires_grad=True)
    w = rng.normal(size=(4, 3))
    fd_check(lambda: (ad.gelu(a) * w).sum(), [a])


def test_gelu_matches_the_tanh_form():
    x = np.arange(-80, 81) / 10.0
    c = math.sqrt(2.0 / math.pi)
    want = [0.5 * v * (1.0 + math.tanh(c * (v + 0.044715 * v**3))) for v in x]
    got = ad.gelu(Tensor(x)).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert got[x == 0.0] == 0.0
    # saturated tails: the tanh rounds to +-1, so gelu(8) = 8 and gelu(-8) = 0
    assert got[-1] == 8.0 and got[0] == 0.0


def test_layer_norm_float32_at_a_large_common_offset(rng):
    """The encoder's residual layer norm (autodiff._add_norm) in float32, on
    rows whose sum sits near 1e3 with a 0.1 spread."""
    res = (1e3 + 0.1 * rng.normal(size=(32, 64))).astype(np.float32)
    y = (0.01 * rng.normal(size=(32, 64))).astype(np.float32)
    # the bias keeps every output near 2-3, so an elementwise rtol measures
    # error against the normalised scale rather than against zero
    gain = rng.uniform(0.2, 0.5, size=64).astype(np.float32)
    bias = rng.uniform(2.0, 3.0, size=64).astype(np.float32)
    # the float32 sum near 1e3 is rounded to 6e-5, against a 0.1 spread; so
    # the reference normalises that rounded sum, in float64
    x64 = (y + res).astype(np.float64)
    got = ad._add_norm(res, y, Tensor(gain), Tensor(bias))[0]
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, _layer_norm64(x64, gain, bias), rtol=1e-4)


def test_backward_accumulates_shared_nodes(rng):
    # a leaf and an interior node each feed two nodes
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    w = rng.normal(size=3)

    def build():
        h = ad.gelu(a)
        return (h * w + h * 3.0 + a * 2.0).sum()

    fd_check(build, [a])


def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2.0).backward()


def test_backward_on_a_spent_graph_raises(rng):
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    y = ad.gelu(a)
    loss = y.sum()
    loss.backward()
    first = a.grad.copy()
    with pytest.raises(RuntimeError, match="freed"):
        loss.backward()
    # a new graph that reaches into the spent one cannot walk through it either
    with pytest.raises(RuntimeError, match="freed"):
        (y * 2.0).sum().backward()
    assert a.grad.tobytes() == first.tobytes()


def test_backward_through_a_spent_table_softmax_nll_raises(rng):
    svec, table, rows, gold = _table_case(rng)
    nll, _ = ad.table_softmax_nll(svec, ad.TableRows(table, rows), gold)
    loss = nll.sum()
    loss.backward()
    first = table.grad.values.copy()
    with pytest.raises(RuntimeError, match="freed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="freed"):
        (nll * 2.0).sum().backward()
    assert table.grad.values.tobytes() == first.tobytes()


def test_constants_do_not_track_gradients():
    a = Tensor(np.ones(3))
    out = (a * 2.0 + a).sum()
    assert not out.requires_grad
    out.backward()
    assert a.grad is None
