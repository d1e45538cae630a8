"""Finite-difference checks for every autodiff primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elink import autodiff as ad
from elink.autodiff import RowGrad, Tensor


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
            fp = build().item()
            t.data[i] = orig - h
            fm = build().item()
            t.data[i] = orig
            num[i] = (fp - fm) / (2 * h)
            it.iternext()
        err = np.abs(g - num) / np.maximum(np.maximum(np.abs(g), np.abs(num)), 1e-3)
        assert err.max() < tol, f"gradient mismatch: {err.max()}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def test_add_mul_broadcast(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    fd_check(lambda: ((a + b) * b + (a * 2.0) - 0.5).sum(), [a, b])


def test_matmul_2d(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    fd_check(lambda: (a @ b).sum(), [a, b])


def test_matmul_batched(rng):
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True)
    fd_check(lambda: ((a @ b) * 0.3).sum(), [a, b])


def test_matmul_broadcast_weights(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    fd_check(lambda: (x @ w).sum(), [x, w])


def test_sum_axes_and_mean(rng):
    a = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    fd_check(lambda: (a.sum(axis=1) * 0.7).sum(), [a])
    fd_check(lambda: a.mean(axis=-1).sum(), [a])
    fd_check(lambda: a.mean(), [a])


def test_reshape_transpose_concat(rng):
    a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

    def build():
        x = a.reshape((2, 3, 2)).transpose((1, 0, 2)).reshape((3, 4))
        y = ad.concat([x, b.transpose((1, 0))], axis=-1)
        return (y * y).sum()

    fd_check(build, [a, b])


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
    # transpose hands the add node a strided view; its bias reduction must
    # sum in the order of the C-contiguous gradient buffer
    m = Tensor(rng.normal(size=(4096, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    w = rng.normal(size=(3, 4096))
    (ad.transpose(m + b, (1, 0)) * w).sum().backward()
    assert b.grad.tobytes() == np.ascontiguousarray(w.T).sum(axis=0).tobytes()


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
    assert np.allclose(ad.linear(x, w, b).data, (x @ w + b).data, rtol=1e-13, atol=0.0)


def _padded_attention_inputs(rng, B=2, T=5, d=6):
    q, k, v = (Tensor(rng.normal(size=(B, T, d)), requires_grad=True) for _ in range(3))
    pad = np.zeros((B, T), dtype=bool)
    pad[0, 3:] = True                       # example 0 has two padding keys
    return q, k, v, pad, np.where(pad, -1e9, 0.0)


def test_attention_grad_with_padded_keys(rng):
    q, k, v, pad, bias = _padded_attention_inputs(rng)
    w = rng.normal(size=q.shape)
    fd_check(lambda: (ad.attention(q, k, v, bias, 2) * w).sum(), [q, k, v])


def test_attention_ignores_padding_keys(rng):
    q, k, v, pad, bias = _padded_attention_inputs(rng)
    w = rng.normal(size=q.shape) * ~pad[..., None]   # loss reads non-pad outputs only
    out = ad.attention(q, k, v, bias, 2)
    (out * w).sum().backward()
    assert not k.grad[pad].any() and not v.grad[pad].any()
    # new content at the padded keys leaves every non-pad output unchanged
    k.data[pad] = rng.normal(size=k.data[pad].shape) * 50
    v.data[pad] = rng.normal(size=v.data[pad].shape) * 50
    again = ad.attention(q, k, v, bias, 2)
    assert again.data[~pad].tobytes() == out.data[~pad].tobytes()


def test_attention_weights_sum_to_one(rng):
    # a value that is the same at every key comes back unchanged, at any
    # score scale, only if each query's weights sum to one
    q = Tensor(rng.normal(size=(2, 4, 6)) * 10)
    k = Tensor(rng.normal(size=(2, 4, 6)) * 10)
    v = Tensor(np.broadcast_to(rng.normal(size=(2, 1, 6)), (2, 4, 6)).copy())
    out = ad.attention(q, k, v, np.zeros((2, 4)), 3)
    assert np.allclose(out.data, v.data, atol=1e-12)


def test_softmax_nll_grad(rng):
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = rng.normal(size=3)
    fd_check(lambda: (ad.softmax_nll(a, np.array([0, 4, 2])) * w).sum(), [a])


def test_softmax_nll_stable_at_large_scores(rng):
    a = Tensor(np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 3.0], [0.5, -1e4, 1e4]]), requires_grad=True)
    gold = np.array([1, 1, 0])
    y = ad.softmax_nll(a, gold)
    assert np.isfinite(y.data).all()
    assert y.data[1] == 0.0
    fd_check(lambda: (ad.softmax_nll(a, gold) * np.array([0.3, -1.2, 0.7])).sum(), [a], h=1e-3)


def _table_case(rng):
    """A 7-row table, an unsorted first-appearance union of 5 of its rows,
    and golds at the union's first and last positions."""
    svec = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    return svec, table, np.array([5, 0, 6, 2, 3]), np.array([0, 4, 0])


@pytest.mark.parametrize("full", [False, True])
def test_table_softmax_nll_grad(rng, full):
    svec, table, rows, gold = _table_case(rng)
    if full:
        rows, gold = None, np.array([0, 6, 3])
    w = rng.normal(size=3)
    fd_check(lambda: (ad.table_softmax_nll(svec, table, rows, gold)[0] * w).sum(), [svec, table])


@pytest.mark.parametrize("full", [False, True])
def test_table_softmax_nll_matches_the_gather_matmul_composition(rng, full):
    svec, table, rows, gold = _table_case(rng)
    if full:
        rows, gold = None, np.array([0, 6, 3])
    w = rng.normal(size=3)
    emb = table if full else ad.take(table, rows)
    scores = svec @ ad.transpose(emb, (1, 0))
    ref = ad.softmax_nll(scores, gold)
    (ref * w).sum().backward()
    want_svec, want_table = svec.grad, _dense_grad(table)
    svec.grad = table.grad = None

    nll, pred = ad.table_softmax_nll(svec, table, rows, gold)
    (nll * w).sum().backward()
    assert nll.data.tobytes() == ref.data.tobytes()
    assert pred.tolist() == scores.data.argmax(axis=-1).tolist()
    assert svec.grad.tobytes() == want_svec.tobytes()
    if full:
        assert isinstance(table.grad, np.ndarray)
    else:
        assert isinstance(table.grad, RowGrad)
        assert table.grad.rows.tolist() == sorted(rows.tolist())
    got = _dense_grad(table)
    assert np.abs(got - want_table).max() <= 1e-12 * np.abs(want_table).max()


def test_table_softmax_nll_rejects_repeated_or_negative_rows(rng):
    svec, table, _, _ = _table_case(rng)
    for rows in ([1, 4, 1], [2, -1]):
        with pytest.raises(ValueError, match="distinct"):
            ad.table_softmax_nll(svec, table, np.array(rows), np.zeros(3))


def test_gelu_grad(rng):
    a = Tensor(rng.normal(size=(4, 3)) * 2, requires_grad=True)
    fd_check(lambda: (ad.gelu(a) * 0.3).sum(), [a])


def test_layer_norm_grad(rng):
    a = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    g = Tensor(rng.normal(size=(6,)) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=(6,)), requires_grad=True)
    w = rng.normal(size=(2, 3, 6))
    fd_check(lambda: (ad.layer_norm(a, g, b) * w).sum(), [a, g, b])


def test_backward_accumulates_shared_nodes(rng):
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    fd_check(lambda: (a * a + a * 3.0).sum(), [a])


def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2.0).backward()


def test_backward_on_a_spent_graph_raises(rng):
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    y = a * a
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
    nll, _ = ad.table_softmax_nll(svec, table, rows, gold)
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
    out = (a * 2.0 + 1.0).sum()
    assert not out.requires_grad
    out.backward()
    assert a.grad is None
