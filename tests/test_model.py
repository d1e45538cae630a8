"""Encoder contracts, loss oracles, BIO coding, inference, checkpoints."""

import dataclasses
import json
import math
import os
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    as_float64,
    attention_state_refs,
    fd_group_errors,
    oracle_bio_loss,
    oracle_linking_loss,
    top1,
)

from elink import autodiff as ad
from elink import model
from elink.autodiff import RowGrad, Tensor
from elink.corpus import Context, MentionLabel
from elink.model import (
    BLOCK_VALUES,
    CheckpointError,
    GradientError,
    MentionTarget,
    ModelConfig,
    ModelParams,
    backward,
    bio_decode,
    bio_encode,
    bio_loss,
    build_batch,
    encode,
    linking_loss,
    load_checkpoint,
    predict_end_to_end,
    rank_entities,
    save_checkpoint,
    score_and_prob,
    span_repr,
    total_loss,
    _param_specs,
    _top_k,
    _trunc_normal,
)
from elink.seeding import derive_rng
from elink.training import clip_gradients

TINY = ModelConfig(vocab_size=50, n_entities=20, d_model=8, n_layers=2,
                   n_heads=2, d_ff=16, d_entity=8, max_len=16)
# tok_emb and ent_emb each span two full init blocks and a partial third
MULTI = ModelConfig(vocab_size=9000, n_entities=10_000, d_model=64, n_layers=1,
                    n_heads=4, d_ff=16, d_entity=64, max_len=16)


@pytest.fixture
def params():
    return ModelParams.initialize(TINY, seed=7, init_std=0.5)


@pytest.fixture
def params64(params):
    """The same parameters in float64, for oracle comparisons at 1e-9 and
    finer and for finite differences."""
    return as_float64(params)


def make_context(rng, n_tokens=10, labels=()):
    toks = rng.integers(4, TINY.vocab_size, size=n_tokens).tolist()
    return Context(tokens=toks, char_offsets=[(i, i + 1) for i in range(n_tokens)],
                   doc_id="d", labels=list(labels))


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_shape(params):
    H = encode(params, np.arange(5) + 4)
    assert H.shape == (1, 5, TINY.d_model)


def test_encode_rejects_too_long(params):
    with pytest.raises(ValueError, match="max_len"):
        encode(params, np.zeros(TINY.max_len + 1, dtype=np.int64))


def test_zero_layer_encoder_is_embedding_sum():
    cfg = ModelConfig(vocab_size=30, n_entities=5, d_model=4, n_layers=0,
                      n_heads=2, d_ff=8, d_entity=4, max_len=8)
    p = ModelParams.initialize(cfg, seed=1)
    toks = np.array([3, 7, 9])
    H = encode(p, toks)
    expected = p["tok_emb"].data[toks] + p["pos_emb"].data[:3]
    assert np.allclose(H.data[0], expected)


def test_pad_content_does_not_leak(params):
    rng = np.random.default_rng(0)
    real = rng.integers(4, 50, size=5)
    tokens_a = np.concatenate([real, [11, 17, 23]])[None, :]
    tokens_b = np.concatenate([real, [23, 11, 17]])[None, :]
    pad = np.array([[False] * 5 + [True] * 3])
    Ha = encode(params, tokens_a, pad)
    Hb = encode(params, tokens_b, pad)
    assert np.array_equal(Ha.data[0, :5], Hb.data[0, :5])


def test_encode_tape_holds_only_what_its_backward_reads():
    """The tape of one (16, 128) shard at the default model holds, per
    block, its two layer norms' normalised rows, two (B, T, d_model)
    arrays, their row scales and the softmax's (B, n_heads, T, 1) row
    maxima and row sums. Besides those it holds the token embeddings, their
    sum with the positions (the encoder node's input) and the encoder's
    output. The bound allows one (B, T, d_model) array more; a block that
    keeps a sublayer's input or output, q, k, v, the attention output or
    FFN activations exceeds it."""
    cfg = ModelConfig(vocab_size=1000, n_entities=10)
    p = ModelParams.initialize(cfg, seed=1)
    B, T = 16, 128
    tokens = np.random.default_rng(0).integers(4, cfg.vocab_size, size=(B, T))
    tracemalloc.start()
    try:
        H = encode(p, tokens)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert H.requires_grad
    per_block = 2 * cfg.d_model + 2 * cfg.n_heads + 2
    bound = (cfg.n_layers * per_block + 4 * cfg.d_model) * B * T * np.dtype(model.DTYPE).itemsize
    assert live < bound


def test_initialize_deterministic():
    a = ModelParams.initialize(TINY, seed=3)
    b = ModelParams.initialize(TINY, seed=3)
    for (na, ta), (nb, tb) in zip(a.items(), b.items()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def _resample_whole_array(rng, shape, std):
    """Truncated normal by re-checking the whole array after every pass."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trunc_normal_matches_whole_array_resampling(seed):
    shape, std = (300, 70), 0.02
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _trunc_normal(got_rng, shape, std)
    assert got.tobytes() == _resample_whole_array(want_rng, shape, std).tobytes()
    assert np.abs(got).max() <= 2 * std
    assert got_rng.integers(2**62) == want_rng.integers(2**62)


def test_initialize_draws_each_row_block_from_its_own_stream():
    p = ModelParams.initialize(MULTI, seed=11)
    for name in ("tok_emb", "ent_emb"):
        data = p[name].data
        step = BLOCK_VALUES // data.shape[1]
        assert 2 * step < len(data) < 3 * step
        for j, lo in enumerate(range(0, len(data), step)):
            block = data[lo:lo + step]
            # drawn in float64, rounded into the float32 table
            want = _trunc_normal(derive_rng(11, "params", name, j), block.shape, 0.02)
            assert block.tobytes() == want.astype(np.float32).tobytes(), (name, j)


def test_initialize_bytes_do_not_depend_on_worker_count(monkeypatch):
    draws = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda n=workers: n)
        draws.append(b"".join(t.data.tobytes() for _, t in ModelParams.initialize(MULTI, 11).items()))
    assert draws[0] == draws[1] == draws[2]


def test_initialize_table_blocks_do_not_move_with_table_or_vocab_size():
    # whole blocks only: a partial block's redraws follow its own length
    step = BLOCK_VALUES // MULTI.d_entity
    one_block, several, small_vocab = (
        ModelParams.initialize(dataclasses.replace(MULTI, **change), seed=11)["ent_emb"].data
        for change in ({"n_entities": step + 20}, {}, {"vocab_size": 50})
    )
    assert several[:step].tobytes() == one_block[:step].tobytes()
    assert small_vocab.tobytes() == several.tobytes()


def test_initialize_draws_every_value_within_two_std():
    std = 0.02
    p = ModelParams.initialize(MULTI, seed=11, init_std=std)
    for name, _, kind in _param_specs(MULTI):
        if kind == "normal":
            data = p[name].data
            assert np.abs(data).max() <= 2 * std, name
            # the rows after the last full block, or the whole of a small tensor
            step = BLOCK_VALUES // data.shape[1]
            tail = data[len(data) // step * step:]
            assert np.all(tail != 0) and tail.std() > std / 2, name


# ---------------------------------------------------------------------------
# span_repr
# ---------------------------------------------------------------------------


def test_span_repr_dimension(params):
    H = encode(params, np.arange(6) + 4)
    out = span_repr(params, H, [0, 0], [1, 2], [3, 2])
    assert out.shape == (2, TINY.d_entity)


def test_single_token_span_concatenates_itself(params):
    H = encode(params, np.arange(6) + 4)
    sv = span_repr(params, H, [0], [2], [2]).data[0]
    h = H.data[0, 2]
    x = np.concatenate([h, h])
    hidden_in = x @ params["span_w1"].data + params["span_b1"].data
    c = math.sqrt(2.0 / math.pi)
    cdf = 0.5 * (1.0 + np.vectorize(math.tanh)(c * (hidden_in + 0.044715 * hidden_in**3)))
    manual = (hidden_in * cdf) @ params["span_w2"].data + params["span_b2"].data
    assert np.allclose(sv, manual)


def test_span_repr_out_of_range(params):
    H = encode(params, np.arange(4) + 4)
    with pytest.raises(ValueError, match="out of range"):
        span_repr(params, H, [0], [2], [9])


# ---------------------------------------------------------------------------
# score_and_prob
# ---------------------------------------------------------------------------


def _softmax64(scores) -> np.ndarray:
    """Reference softmax of one score row, in float64."""
    z = np.asarray(scores, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def _best_and_prob(params, svec, candidates=None):
    """score_and_prob's best entity (None for an empty list) and its
    probability, per span vector."""
    ranked, prob = score_and_prob(params, svec, candidates, with_prob=True)
    return [r[0][0] if r else None for r in ranked], prob


def test_equal_scores_uniform_probabilities(params):
    params["ent_emb"].data[:] = 0.0
    best, prob = _best_and_prob(params, np.ones((2, TINY.d_entity), np.float32))
    assert best == [0, 0]  # a tie goes to the lowest entity index
    assert np.allclose(prob, 1 / TINY.n_entities)


def test_analytic_softmax_ln2(params64):
    # a table of zeros plus one row scoring ln 2: p = 2 / (2 + |E| - 1)
    params64["ent_emb"].data[:] = 0.0
    params64["ent_emb"].data[5, 0] = math.log(2.0)
    sv = np.zeros((1, TINY.d_entity))
    sv[0, 0] = 1.0
    best, prob = _best_and_prob(params64, sv)
    assert best == [5]
    assert prob[0] == pytest.approx(2.0 / (TINY.n_entities + 1), rel=1e-12)


def test_winner_probability_is_its_full_softmax_entry(params):
    rng = np.random.default_rng(4)
    sv = (rng.normal(size=(20, TINY.d_entity)) * rng.uniform(0.1, 5, size=(20, 1))).astype(np.float32)
    best, prob = _best_and_prob(params, sv)
    for row, b, p in zip(sv @ params["ent_emb"].data.T, best, prob):
        assert b == int(np.argmax(row))
        assert p == pytest.approx(_softmax64(row)[b], rel=1e-5)


def test_softmax_stable_at_extreme_scores(params):
    params["ent_emb"].data[:] = 0.0
    params["ent_emb"].data[:3, 0] = [1e4, -1e4, 1e4 - 1.0]
    sv = np.zeros((2, TINY.d_entity), np.float32)
    sv[:, 0] = [1.0, -1.0]  # scores (1e4, -1e4, 1e4 - 1, 0...) and their negation
    best, prob = _best_and_prob(params, sv)
    assert best == [0, 1]
    assert np.isfinite(prob).all()
    assert prob[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-6)
    assert prob[1] == 1.0


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _mention_nll(scores: list[float], gold: int) -> float:
    """The linking node's NLL of one mention whose columns score `scores`:
    a 1-D span vector of 1 against a one-column table holding the scores."""
    table = ad.TableRows(Tensor(np.array(scores)[:, None]))
    nll, _ = ad.table_softmax_nll(Tensor(np.ones((1, 1))), table, [gold])
    return float(nll.data[0])


def test_mention_nll_worked_example():
    # gold score 1.0 against two zeros: loss = -ln(e / (e + 2))
    nll = _mention_nll([1.0, 0.0, 0.0], 0)
    assert nll == pytest.approx(-math.log(math.e / (math.e + 2)), abs=1e-12)
    assert nll == pytest.approx(0.5514, abs=1e-4)


def test_mention_nll_gold_dominates_to_zero():
    assert 0.0 <= _mention_nll([1e4, 0.0, 0.0], 0) < 1e-12


def test_linking_loss_all_null_is_zero(params):
    rng = np.random.default_rng(0)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), None, None)])
    batch = build_batch([ctx], 0, [[]])
    H = encode(params, batch.tokens, batch.pad_mask)
    loss, metrics = linking_loss(params, H, batch)
    assert loss.data == 0.0
    assert metrics["n_linked_mentions"] == 0


def test_linking_loss_matches_oracle_shared_candidates(params64):
    rng = np.random.default_rng(8)
    contexts, targets = [], []
    cand = np.array([3, 5, 9, 11, 4])
    for _ in range(3):
        ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None),
                                        MentionLabel((4, 4), 9, None)])
        contexts.append(ctx)
        targets.append([MentionTarget((1, 2), 5), MentionTarget((4, 4), 9)])
    batch = build_batch(contexts, 0, targets, cand)
    H = encode(params64, batch.tokens, batch.pad_mask)
    loss, _ = linking_loss(params64, H, batch)

    svec = span_repr(params64, H, batch.ment_ex, batch.ment_start, batch.ment_end).data
    rows = svec @ params64["ent_emb"].data[cand].T
    expected = oracle_linking_loss(rows, batch.gold_pos, 3, batch.ment_ex)
    assert loss.data == pytest.approx(expected, abs=1e-9)


def test_linking_loss_rejects_rows_made_for_another_batch(params):
    """A TableRows passed to linking_loss must be the one made from the
    batch's own cand_rows: equal rows in another array, or other rows, are
    refused rather than scored."""
    rng = np.random.default_rng(8)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None)])
    batch = build_batch([ctx], 0, [[MentionTarget((1, 2), 5)]], np.array([3, 5, 9]))
    H = encode(params, batch.tokens, batch.pad_mask)
    for rows in (batch.cand_rows.copy(), np.array([3, 5, 8]), None):
        with pytest.raises(ValueError, match="cand_rows"):
            linking_loss(params, H, batch, ad.TableRows(params["ent_emb"], rows))
    loss, _ = linking_loss(params, H, batch, ad.TableRows(params["ent_emb"], batch.cand_rows))
    assert loss.data.tobytes() == linking_loss(params, H, batch)[0].data.tobytes()


def test_linking_loss_matches_oracle_ragged(params64):
    """Per-mention lists of unequal length that overlap across mentions and
    examples: each mention's gold is a negative of another, and every
    mention's NLL runs over its own list alone."""
    rng = np.random.default_rng(9)
    lists = [
        [([5, 2, 9], 1, (0, 1)), ([7, 1], 0, (3, 3))],
        [([9, 2, 7, 4], 0, (2, 4)), ([2], 0, (6, 6)), ([1, 5, 7], 2, (8, 9))],
    ]
    contexts, targets, rows = [], [], []
    for per_ctx in lists:
        labels, tgts = [], []
        for cands, gold, span in per_ctx:
            labels.append(MentionLabel(span, cands[gold], None))
            tgts.append(MentionTarget(span, cands[gold], candidates=np.array(cands)))
            rows.append((cands, gold))
        contexts.append(make_context(rng, labels=labels))
        targets.append(tgts)
    batch = build_batch(contexts, 0, targets)
    assert batch.cand_rows.tolist() == [1, 2, 4, 5, 7, 9]
    assert batch.cand_rows[batch.gold_pos].tolist() == [2, 7, 9, 2, 7]
    for own, bias in zip(rows, batch.cand_bias):
        assert batch.cand_rows[bias == 0.0].tolist() == sorted(own[0])
        assert (bias[bias != 0.0] == model.NEG_INF).all()
    H = encode(params64, batch.tokens, batch.pad_mask)
    loss, metrics = linking_loss(params64, H, batch)

    svec = span_repr(params64, H, batch.ment_ex, batch.ment_start, batch.ment_end).data
    score_rows = [svec[i] @ params64["ent_emb"].data[c].T for i, (c, _) in enumerate(rows)]
    expected = oracle_linking_loss(score_rows, [g for _, g in rows], 2, batch.ment_ex)
    assert loss.data == pytest.approx(expected, abs=1e-9)
    correct = sum(int(np.argmax(r)) == g for r, (_, g) in zip(score_rows, rows))
    assert metrics["n_correct_links"] == correct


def test_bio_targets_example():
    assert bio_encode([(1, 2), (4, 4)], 6).tolist() == [0, 1, 2, 0, 1, 0]


def test_bio_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        bio_encode([(1, 3), (3, 4)], 6)


def test_bio_loss_uniform_logits_is_ln3(params64):
    params64["bio_w"].data[:] = 0.0
    params64["bio_b"].data[:] = 0.0
    rng = np.random.default_rng(1)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 3, None)])
    batch = build_batch([ctx], 0, [[]])
    H = encode(params64, batch.tokens, batch.pad_mask)
    assert bio_loss(params64, H, batch).data == pytest.approx(math.log(3.0), abs=1e-12)


def test_bio_loss_vanishes_with_margin():
    cfg = ModelConfig(vocab_size=10, n_entities=4, d_model=4, n_layers=0,
                      n_heads=1, d_ff=4, d_entity=4, max_len=4)
    p = ModelParams.initialize(cfg, seed=0)
    p["bio_w"].data[:] = 0.0
    p["bio_b"].data[:] = [0.0, 60.0, 0.0]  # every position favors B hugely
    ctx = Context(tokens=[5], char_offsets=[(0, 1)], doc_id="d",
                  labels=[MentionLabel((0, 0), 1, None)])
    batch = build_batch([ctx], 0, [[]])
    H = encode(p, batch.tokens, batch.pad_mask)
    assert bio_loss(p, H, batch).data < 1e-12


def test_bio_loss_matches_oracle(params64):
    rng = np.random.default_rng(10)
    contexts = [
        make_context(rng, n_tokens=6, labels=[MentionLabel((1, 2), 3, None)]),
        make_context(rng, n_tokens=4, labels=[MentionLabel((0, 0), None, None)]),
    ]
    batch = build_batch(contexts, 0, [[], []])
    H = encode(params64, batch.tokens, batch.pad_mask)
    loss = bio_loss(params64, H, batch)
    logits = (H.data @ params64["bio_w"].data + params64["bio_b"].data)
    expected = oracle_bio_loss(logits, batch.bio_targets, ~batch.pad_mask)
    assert loss.data == pytest.approx(expected, abs=1e-9)


def test_gold_outside_candidates_rejected(params):
    rng = np.random.default_rng(26)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None)])
    with pytest.raises(ValueError, match="gold missing"):
        build_batch([ctx], 0, [[MentionTarget((1, 2), 7)]], np.array([5, 3]))
    with pytest.raises(ValueError, match="gold missing"):
        build_batch([ctx], 0, [[MentionTarget((1, 2), 7, candidates=np.array([5, 3]))]])
    # a per-mention list must hold distinct, non-negative entities; -1 is not padding
    for cands in ([5, 3, 5], [5, -1], [-1, 5]):
        with pytest.raises(ValueError, match=r"span \(1, 2\) repeats an entity or holds a negative"):
            build_batch([ctx], 0, [[MentionTarget((1, 2), 5, candidates=np.array(cands))]])


def test_gold_in_the_union_only_through_another_list_is_rejected():
    """A per-mention gold that the batch union holds only through another
    mention's list is still missing from its own list: under its NEG_INF
    bias its loss would be ~1e9, so build_batch raises."""
    rng = np.random.default_rng(27)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None), MentionLabel((4, 4), 3, None)])
    targets = [[MentionTarget((1, 2), 5, candidates=np.array([5, 3])),
                MentionTarget((4, 4), 3, candidates=np.array([7, 9]))]]
    with pytest.raises(ValueError, match=r"gold missing from candidate set for span \(4, 4\)"):
        build_batch([ctx], 0, targets)


def test_total_loss_weights(params64):
    rng = np.random.default_rng(11)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None)])
    batch = build_batch([ctx], 0, [[MentionTarget((1, 2), 5)]], np.array([5, 3, 1]))
    full, _ = total_loss(params64, batch, 1.0, 1.0)
    link_only, _ = total_loss(params64, batch, 1.0, 0.0)
    bio_only, _ = total_loss(params64, batch, 0.0, 1.0)
    assert full.data == pytest.approx(link_only.data + bio_only.data, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradients_match_finite_differences(params64):
    rng = np.random.default_rng(12)
    contexts, targets = [], []
    for _ in range(2):
        ctx = make_context(rng, labels=[MentionLabel((2, 3), 5, None),
                                        MentionLabel((6, 6), None, None)])
        contexts.append(ctx)
        targets.append([MentionTarget((2, 3), 5)])
    batch = build_batch(contexts, 0, targets, np.array([3, 5, 9, 11, 4]))
    errors = fd_group_errors(lambda: total_loss(params64, batch, 1.0, 1.0)[0], params64)
    worst = max(errors.values())
    assert worst < 1e-4, sorted(errors.items(), key=lambda kv: -kv[1])[:3]


def test_zero_signal_batch_has_zero_gradients(params):
    rng = np.random.default_rng(13)
    ctx = make_context(rng, labels=[MentionLabel((1, 1), None, None)])
    batch = build_batch([ctx], 0, [[]])
    loss, _ = total_loss(params, batch, 1.0, 0.0)
    grads = backward(loss, params)
    assert loss.data == 0.0
    assert all(np.all((g.dense() if isinstance(g, RowGrad) else g) == 0.0) for g in grads.values())


def test_uncandidated_entity_embedding_gradient_is_zero(params):
    rng = np.random.default_rng(14)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None)])
    batch = build_batch([ctx], 0, [[MentionTarget((1, 2), 5)]], np.array([5, 3]))
    loss, _ = total_loss(params, batch, 1.0, 1.0)
    grads = backward(loss, params)
    g = grads["ent_emb"].dense()
    assert np.any(g[5] != 0.0) and np.any(g[3] != 0.0)
    untouched = [i for i in range(TINY.n_entities) if i not in (3, 5)]
    assert np.all(g[untouched] == 0.0)


def test_every_parameter_group_gets_a_gradient_far_above_rounding(params64):
    """float64 loss and backward on a padded batch with per-mention
    candidates: every group of _param_specs gets a gradient whose largest
    entry is far above rounding noise, so each one can change an output.
    (A key bias would fail: it adds the same value to all of a query's
    scores, which the softmax cancels, so its gradient is rounding noise.)"""
    rng = np.random.default_rng(21)
    contexts, targets = [], []
    for n_tokens, mentions in (
        (10, [((1, 2), [5, 3, 8], 5), ((6, 6), [2, 11], 11)]),
        (7, [((0, 1), [3, 9, 14, 2], 9), ((4, 4), [7, 5], 7)]),
    ):
        contexts.append(make_context(rng, n_tokens, [MentionLabel(span, gold, None)
                                                     for span, _, gold in mentions]))
        targets.append([MentionTarget(span, gold, candidates=np.array(cands))
                        for span, cands, gold in mentions])
    batch = build_batch(contexts, 0, targets)
    assert batch.pad_mask.any()
    grads = backward(total_loss(params64, batch)[0], params64)
    assert list(grads) == [name for name, _, _ in _param_specs(TINY)]
    peak = {name: np.abs(ad.grad_values(g)).max(initial=0.0) for name, g in grads.items()}
    floor = 1e-6 * max(peak.values())
    assert [name for name, v in peak.items() if v <= floor] == []


def _linked_batch(seed):
    rng = np.random.default_rng(seed)
    contexts = [make_context(rng, labels=[MentionLabel((2, 3), 5, None)]) for _ in range(2)]
    return build_batch(contexts, 0, [[MentionTarget((2, 3), 5)]] * 2, np.array([3, 5, 9]))


def _grad_bytes(g) -> tuple:
    return (g.rows.tobytes(), g.values.tobytes()) if isinstance(g, RowGrad) else (g.tobytes(),)


def _interior_nodes(root: Tensor) -> list:
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def test_backward_frees_the_tape_and_keeps_leaf_gradients(params, monkeypatch):
    batch = _linked_batch(16)
    fresh = backward(total_loss(params, batch)[0], params)
    want = {name: _grad_bytes(g) for name, g in fresh.items()}

    stats = attention_state_refs(monkeypatch)
    loss, _ = total_loss(params, batch)
    interior = _interior_nodes(loss)
    assert len(stats) == TINY.n_layers and all(r() is not None for r in stats)
    grads = backward(loss, params)
    assert sum(r() is not None for r in stats) == 0
    assert sum(n.grad is not None for n in interior) == 0
    assert {name: _grad_bytes(g) for name, g in grads.items()} == want


def test_second_backward_of_a_loss_raises(params):
    loss, _ = total_loss(params, _linked_batch(17))
    backward(loss, params)
    with pytest.raises(RuntimeError, match="freed"):
        backward(loss, params)


def test_backward_flags_nonfinite_gradients(params):
    rng = np.random.default_rng(15)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None)])
    batch = build_batch([ctx], 0, [[MentionTarget((1, 2), 5)]], np.array([5, 3]))
    params["span_w2"].data[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        loss, _ = total_loss(params, batch, 1.0, 0.0)
        grads = backward(loss, params)
        with pytest.raises(GradientError, match="parameter group"):
            clip_gradients(grads, 1.0)


# ---------------------------------------------------------------------------
# BIO decode
# ---------------------------------------------------------------------------


def test_bio_decode_examples():
    assert bio_decode([0, 0, 0]) == []
    assert bio_decode([1, 2, 0, 1]) == [(0, 1), (3, 3)]
    assert bio_decode([0, 2, 2]) == [(1, 2)]  # stray I behaves like B


def test_bio_decode_adjacent_b():
    assert bio_decode([1, 1, 1]) == [(0, 0), (1, 1), (2, 2)]


@st.composite
def span_sets(draw):
    length = draw(st.integers(1, 24))
    spans = []
    i = 0
    while i < length:
        if draw(st.booleans()):
            j = min(length - 1, i + draw(st.integers(0, 3)))
            spans.append((i, j))
            i = j + 2
        else:
            i += 1
    return length, spans


@given(span_sets())
@settings(max_examples=300, deadline=None)
def test_bio_roundtrip(case):
    length, spans = case
    assert bio_decode(bio_encode(spans, length)) == spans


@given(st.lists(st.integers(0, 2), min_size=0, max_size=30))
@settings(max_examples=300, deadline=None)
def test_bio_decode_valid_on_arbitrary_tags(tags):
    spans = bio_decode(tags)
    last_end = -1
    for s, e in spans:
        assert 0 <= s <= e < len(tags)
        assert s > last_end
        last_end = e


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_single_candidate_returned(params):
    rng = np.random.default_rng(16)
    ctx = make_context(rng)
    assert top1(params, ctx.tokens, [(1, 2)], [[13]]) == [13]


def test_predict_matches_brute_force_full_vocab(params):
    rng = np.random.default_rng(17)
    ctx = make_context(rng)
    H = encode(params, np.asarray(ctx.tokens))
    sv = span_repr(params, H, [0], [1], [2]).data[0]
    scores = [float(sv @ params["ent_emb"].data[c]) for c in range(TINY.n_entities)]
    best = max(range(TINY.n_entities), key=lambda c: (scores[c], -c))
    assert top1(params, ctx.tokens, [(1, 2)]) == [best]


def test_hand_set_embeddings_select_entity_two(params):
    rng = np.random.default_rng(18)
    ctx = make_context(rng)
    H = encode(params, np.asarray(ctx.tokens))
    sv = span_repr(params, H, [0], [1], [2]).data[0]
    params["ent_emb"].data[:] = -np.ones_like(params["ent_emb"].data)
    params["ent_emb"].data[2] = 10.0 * sv / np.linalg.norm(sv)
    assert top1(params, ctx.tokens, [(1, 2)]) == [2]


def test_exact_tie_breaks_to_lowest_entity(params):
    rng = np.random.default_rng(19)
    ctx = make_context(rng)
    params["ent_emb"].data[9] = params["ent_emb"].data[5]  # exact tie
    pred = top1(params, ctx.tokens, [(1, 2)], [[9, 5]])
    assert pred == [5]


def test_candidate_subset_consistent_with_full(params):
    rng = np.random.default_rng(20)
    for _ in range(25):
        ctx = make_context(rng)
        full = top1(params, ctx.tokens, [(1, 2)])[0]
        cands = list(rng.choice(TINY.n_entities, size=6, replace=False))
        if full not in cands:
            cands.append(full)
        sub = top1(params, ctx.tokens, [(1, 2)], [cands])[0]
        assert sub == full


def test_constant_score_shift_leaves_argmax(params):
    rng = np.random.default_rng(21)
    ctx = make_context(rng)
    cands = [[1, 4, 7, 9]]
    before = top1(params, ctx.tokens, [(1, 2)], cands)
    # adding one shared vector to every entity embedding shifts all scores
    # of a given span by the same constant
    params["ent_emb"].data += rng.normal(size=TINY.d_entity) * 3.0
    after = top1(params, ctx.tokens, [(1, 2)], cands)
    assert before == after


def test_rank_entities_orders_by_score(params):
    rng = np.random.default_rng(22)
    ctx = make_context(rng)
    (top,) = rank_entities(params, [(ctx.tokens, [(1, 2)])], [[3, 8, 15]], top_k=3)
    scores = [s for _, s in top]
    assert scores == sorted(scores, reverse=True)


SPANS = [(0, 0), (1, 2), (4, 6), (7, 7), (8, 9)]


def _span_vectors(params, tokens, spans=SPANS):
    H = encode(params, np.asarray(tokens)[None, :])
    return span_repr(params, H, [0] * len(spans), [s for s, _ in spans],
                     [e for _, e in spans]).data


def _oracle_ranking(params, tokens, spans, candidates, top_k, sv=None):
    """Each span scored on its own and sorted by (-score, id) in Python;
    given sv, those span vectors are scored instead of the spans'."""
    if sv is None:
        sv = _span_vectors(params, tokens, spans)
    ent = params["ent_emb"].data
    out = []
    for i in range(len(sv)):
        ids = range(len(ent)) if candidates is None else candidates[i]
        pairs = [(int(c), float(sv[i] @ ent[c])) for c in ids]
        out.append(sorted(pairs, key=lambda p: (-p[1], p[0]))[:top_k])
    return out


def _assert_same_ranking(got, want):
    assert [[e for e, _ in r] for r in got] == [[e for e, _ in r] for r in want]
    for g, w in zip(got, want):
        assert [s for _, s in g] == pytest.approx([s for _, s in w], rel=1e-12, abs=1e-12)


def _plant_tie(params, tokens, span_index, tied, lower, scale=1.0):
    """Give `tied` entities one exact top score for a span, `lower` half of it.

    The rows are multiples of the first unit vector, so every score is a
    signed copy of the span vector's first entry, whatever the summation
    order of the matrix product. Returns the tied score.
    """
    x0 = _span_vectors(params, tokens)[span_index, 0]
    unit = np.zeros(TINY.d_entity)
    unit[0] = scale * np.sign(x0)
    params["ent_emb"].data[tied] = unit
    params["ent_emb"].data[lower] = 0.5 * unit
    return scale * abs(x0)


def test_rank_entities_matches_oracle_on_ragged_unordered_lists(params64):
    ctx = make_context(np.random.default_rng(26))
    cands = [[15, 3, 8], [19, 2, 11, 0, 5], [7], [18, 4, 12, 3], [6, 1, 19, 14, 9, 10]]
    got = rank_entities(params64, [(ctx.tokens, SPANS)], cands, top_k=3)
    _assert_same_ranking(got, _oracle_ranking(params64, ctx.tokens, SPANS, cands, 3))


def test_rank_entities_breaks_a_three_way_tie_at_top_k_toward_lowest_ids(params64):
    ctx = make_context(np.random.default_rng(27))
    score = _plant_tie(params64, ctx.tokens, 2, tied=[13, 4, 9], lower=[2, 16])
    cands = [[5, 1], [17, 0, 3], [16, 13, 2, 9, 4], [11, 6, 18], [13, 9, 4]]
    got = rank_entities(params64, [(ctx.tokens, SPANS)], cands, top_k=2)
    assert got[2] == [(4, score), (9, score)]
    _assert_same_ranking(got, _oracle_ranking(params64, ctx.tokens, SPANS, cands, 2))


def test_rank_entities_top_k_past_a_list_returns_only_that_list(params64):
    ctx = make_context(np.random.default_rng(28))
    cands = [[15, 3, 8], [19, 2], [7], [18, 4, 12, 3], [6, 1]]
    got = rank_entities(params64, [(ctx.tokens, SPANS)], cands, top_k=4)
    assert [sorted(e for e, _ in r) for r in got] == [sorted(c) for c in cands]
    _assert_same_ranking(got, _oracle_ranking(params64, ctx.tokens, SPANS, cands, 4))


def test_rank_entities_empty_list_ranks_nothing(params64):
    ctx = make_context(np.random.default_rng(29))
    cands = [[15, 3, 8], [], [7, 2], [], [6, 1]]
    got = rank_entities(params64, [(ctx.tokens, SPANS)], cands, top_k=2)
    assert got[1] == [] and got[3] == []
    _assert_same_ranking(got, _oracle_ranking(params64, ctx.tokens, SPANS, cands, 2))
    assert rank_entities(params64, [(ctx.tokens, SPANS[:2])], [[], []]) == [[], []]


def test_rank_entities_full_vocabulary_matches_oracle(params64):
    ctx = make_context(np.random.default_rng(30))
    score = _plant_tie(params64, ctx.tokens, 1, tied=[17, 6, 11], lower=[0], scale=100.0)
    got = rank_entities(params64, [(ctx.tokens, SPANS)], None, top_k=2)
    assert got[1] == [(6, score), (11, score)]
    _assert_same_ranking(got, _oracle_ranking(params64, ctx.tokens, SPANS, None, 2))
    everything = rank_entities(params64, [(ctx.tokens, SPANS)], None, top_k=TINY.n_entities + 3)
    assert all(len(r) == TINY.n_entities for r in everything)
    _assert_same_ranking(
        everything, _oracle_ranking(params64, ctx.tokens, SPANS, None, TINY.n_entities)
    )


# 13 span vectors: ragged, unordered and empty lists, and rows 2 and 3 (a
# block edge at three rows a block) share an exact tie among 13, 4 and 9
BLOCK_CANDS = [[5, 1], [17, 0, 3], [16, 13, 2, 9, 4], [9, 4, 13, 11], [], [7],
               [18, 4, 12, 3], [], [6, 1, 19, 14, 9, 10], [2, 8], [0], [19, 3, 15], []]


def _block_edge_vectors(params):
    """BLOCK_CANDS' span vectors, with the tie of rows 2 and 3 planted: the
    tied rows and the lower ones are multiples of the first unit vector,
    so every score of theirs is exact."""
    sv = np.random.default_rng(31).normal(size=(len(BLOCK_CANDS), TINY.d_entity))
    sv[2:4, 0] = 1.0
    unit = np.zeros(TINY.d_entity)
    unit[0] = 100.0
    params["ent_emb"].data[[13, 4, 9]] = unit
    params["ent_emb"].data[[2, 11]] = 0.5 * unit
    return sv


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 13, 40])
@pytest.mark.parametrize("mode", ["all", "candidates"])
def test_score_and_prob_matches_the_oracle_at_block_edges(params64, monkeypatch, rows, mode):
    """Every block size ranks as each span vector scored on its own does,
    and gives each best entity its softmax probability over the entities
    its row was scored against."""
    monkeypatch.setattr(model, "SCORE_BLOCK_VALUES", rows * TINY.n_entities)
    sv = _block_edge_vectors(params64)
    cands = None if mode == "all" else BLOCK_CANDS
    ranked, prob = score_and_prob(params64, sv, cands, top_k=3, with_prob=True)
    assert ranked[2][:2] == ranked[3][:2] == [(4, 100.0), (9, 100.0)]
    _assert_same_ranking(ranked, _oracle_ranking(params64, None, None, cands, 3, sv))
    ent = params64["ent_emb"].data
    for i, (top, p) in enumerate(zip(ranked, prob)):
        ids = range(TINY.n_entities) if cands is None else sorted(cands[i])
        if not ids:
            assert top == [] and np.isnan(p)
            continue
        soft = _softmax64([sv[i] @ ent[c] for c in ids])
        assert p == pytest.approx(soft[list(ids).index(top[0][0])], rel=1e-12)
    alone, no_prob = score_and_prob(params64, sv, cands, top_k=3)
    assert alone == ranked and no_prob is None


def test_score_and_prob_ranks_a_nan_score_last(params):
    """A NaN score never wins: it ranks after every number, as the head of
    a stable sort of -score places it."""
    params["ent_emb"].data[3, 0] = np.nan
    sv = np.ones((2, TINY.d_entity), np.float32)
    ranked, _ = score_and_prob(params, sv, top_k=TINY.n_entities)
    assert all(r[-1][0] == 3 and math.isnan(r[-1][1]) for r in ranked)
    ranked, _ = score_and_prob(params, sv, [[3, 7], [3]], top_k=2)
    assert [e for e, _ in ranked[0]] == [7, 3] and ranked[1][0][0] == 3


def test_score_and_prob_rejects_a_candidate_count_mismatch(params):
    with pytest.raises(ValueError, match="2 candidate lists for 3 span vectors"):
        score_and_prob(params, np.ones((3, TINY.d_entity), np.float32), [[1], [2]])


def test_rank_entities_scores_several_inputs_across_blocks(params64, monkeypatch):
    """Inputs of different lengths, one with no spans, ranked in one call
    with three rows a block: each span ranks as it does on its own."""
    monkeypatch.setattr(model, "SCORE_BLOCK_VALUES", 3 * TINY.n_entities)
    rng = np.random.default_rng(32)
    contexts = [make_context(rng, n_tokens=n) for n in (10, 4, 7, 12)]
    spans = [SPANS, [(0, 3), (1, 1)], [], [(2, 5), (6, 6), (9, 11), (0, 0)]]
    inputs = [(c.tokens, s) for c, s in zip(contexts, spans)]
    cands = BLOCK_CANDS[:11]
    for mode in (None, cands):
        got = rank_entities(params64, inputs, mode, top_k=2)
        want, at = [], 0
        for c, s in zip(contexts, spans):
            if s:
                own = None if mode is None else mode[at : at + len(s)]
                want += _oracle_ranking(params64, c.tokens, s, own, 2)
                at += len(s)
        assert len(got) == 11
        _assert_same_ranking(got, want)
    assert rank_entities(params64, [(contexts[0].tokens, [])]) == []


@given(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.0, np.inf, -np.inf, np.nan]), min_size=1,
             max_size=30),
    st.integers(1, 35),
)
@settings(max_examples=300, deadline=None)
def test_top_k_is_the_head_of_a_stable_sort(values, k):
    """Ties at and inside the k-th score, signed zeros, infinities and NaNs
    rank as the first k of a stable sort of -score."""
    row = np.array(values)
    assert _top_k(row, k).tolist() == np.argsort(-row, kind="stable")[:k].tolist()
    assert _top_k(row, 1).tolist() == np.argsort(-row, kind="stable")[:1].tolist()


def test_end_to_end_empty_when_all_outside(params):
    rng = np.random.default_rng(23)
    ctx = make_context(rng)
    params["bio_w"].data[:] = 0.0
    params["bio_b"].data[:] = [50.0, 0.0, 0.0]  # O everywhere
    assert predict_end_to_end(params, ctx.tokens) == []


def test_end_to_end_decodes_spans_and_probabilities(params64):
    rng = np.random.default_rng(24)
    ctx = make_context(rng, n_tokens=4)
    params64["bio_w"].data[:] = 0.0
    params64["bio_b"].data[:] = [0.0, 50.0, 0.0]  # B everywhere: four single spans
    out = predict_end_to_end(params64, ctx.tokens)
    assert [span for span, _, _ in out] == [(0, 0), (1, 1), (2, 2), (3, 3)]
    H = encode(params64, np.asarray(ctx.tokens)[None, :])
    for span, ent, prob in out:
        assert 0 <= ent < TINY.n_entities
        assert 0.0 < prob <= 1.0
        # reference: this span scored on its own against every entity
        sv = span_repr(params64, H, [0], [span[0]], [span[1]]).data[0]
        scores = params64["ent_emb"].data @ sv
        assert ent == int(np.flatnonzero(scores == scores.max())[0])
        assert prob == pytest.approx(_softmax64(scores)[ent], rel=1e-12)
    # given starts, only the spans starting in it are scored, with the same results
    assert predict_end_to_end(params64, ctx.tokens, range(1, 3)) == out[1:3]
    assert predict_end_to_end(params64, ctx.tokens, range(4, 4)) == []


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_predictions(tmp_path, params):
    rng = np.random.default_rng(25)
    ctx = make_context(rng)
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    spans = [(1, 2), (4, 4)]
    assert top1(loaded, ctx.tokens, spans) == \
        top1(load_checkpoint(path), ctx.tokens, spans)


def test_checkpoint_bytes_follow_documented_layout(tmp_path, params):
    # magic, version, config JSON length, config JSON, then every tensor in
    # declaration order as little-endian float32, row-major
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    cfg_json = json.dumps(asdict(TINY), sort_keys=True).encode("utf-8")
    tensors = [params[name].data.astype("<f4").tobytes(order="C") for name in params.names()]
    want = b"ELCK" + struct.pack("<II", 2, len(cfg_json)) + cfg_json + b"".join(tensors)
    assert path.read_bytes() == want


def test_checkpoint_bytes_of_tables_spanning_several_blocks(tmp_path):
    params = ModelParams.initialize(MULTI, seed=11)
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    cfg_json = json.dumps(asdict(MULTI), sort_keys=True).encode("utf-8")
    tensors = [t.data.astype("<f4").tobytes() for _, t in params.items()]
    assert path.read_bytes() == (
        b"ELCK" + struct.pack("<II", 2, len(cfg_json)) + cfg_json + b"".join(tensors)
    )


def test_checkpoint_bad_magic(tmp_path, params):
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_1_names_the_dropped_key_bias(tmp_path, params):
    """Version 1 checkpoints hold a key bias per layer, which version 2
    dropped: loading one fails with the file's path and names the key."""
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ") and "layers.N.bk" in message and "retrain" in message


def test_checkpoint_truncated(tmp_path, params):
    """A file cut in its header, in its config block or in its last tensor
    fails as CheckpointError with its path."""
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    for cut in (6, 12 + cfg_len // 2, len(blob) - 8):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="truncated") as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: "), cut


@pytest.mark.parametrize("field, value", [("d_model", 8.0), ("n_layers", 1.5),
                                          ("n_heads", True), ("max_len", "16")])
def test_checkpoint_config_field_must_be_an_integer(tmp_path, params, field, value):
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    cfg_json = json.dumps({**asdict(TINY), field: value}, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<II", 2, len(cfg_json)) + cfg_json
                     + blob[12 + cfg_len:])
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"{path}: bad config block: "
                              f"{field} {json.dumps(value)} is not an integer")


@pytest.mark.parametrize("fail_in", ["checkpoint", "rename"])
def test_failed_checkpoint_write_keeps_previous(tmp_path, params, monkeypatch, fail_in):
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    newer = ModelParams.initialize(TINY, seed=8, init_std=0.5)
    if fail_in == "checkpoint":
        # the .elck write dies after its first tensor
        def items():
            yield next(iter(newer.tensors.items()))
            raise OSError("disk full")
        monkeypatch.setattr(newer, "items", items)
    else:
        # the whole file is written, but cannot replace the previous one
        def replace(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, newer)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

