"""Encoder contracts, loss oracles, BIO coding, inference, checkpoints."""

import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    attention_prob_refs,
    fd_group_errors,
    oracle_bio_loss,
    oracle_linking_loss,
    oracle_softmax_nll,
)

from elink.autodiff import RowGrad, Tensor
from elink.corpus import Context, MentionLabel
from elink.model import (
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
    manifest_path,
    mention_nll,
    predict_disambiguation,
    predict_end_to_end,
    rank_entities,
    save_checkpoint,
    score_and_prob,
    span_repr,
    stable_softmax,
    total_loss,
    _top_k,
    _trunc_normal,
)

TINY = ModelConfig(vocab_size=50, n_entities=20, d_model=8, n_layers=2,
                   n_heads=2, d_ff=16, d_entity=8, max_len=16)


@pytest.fixture
def params():
    return ModelParams.initialize(TINY, seed=7, init_std=0.5)


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
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(hidden_in / np.sqrt(2)))
    manual = (hidden_in * cdf) @ params["span_w2"].data + params["span_b2"].data
    assert np.allclose(sv, manual)


def test_span_repr_out_of_range(params):
    H = encode(params, np.arange(4) + 4)
    with pytest.raises(ValueError, match="out of range"):
        span_repr(params, H, [0], [2], [9])


# ---------------------------------------------------------------------------
# score_and_prob
# ---------------------------------------------------------------------------


def test_equal_scores_uniform_probabilities(params):
    params["ent_emb"].data[:3] = 0.0
    sv = np.ones(TINY.d_entity)
    _, probs = score_and_prob(params, sv, [0, 1, 2])
    assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3])


def test_analytic_softmax_ln2():
    probs = stable_softmax(np.array([math.log(2.0), 0.0, 0.0]))
    assert np.allclose(probs, [0.5, 0.25, 0.25])


def test_probabilities_sum_to_one(params):
    rng = np.random.default_rng(4)
    for _ in range(20):
        sv = rng.normal(size=TINY.d_entity) * rng.uniform(0.1, 5)
        _, probs = score_and_prob(params, sv)
        assert abs(probs.sum() - 1.0) < 1e-6


def test_softmax_stable_at_extreme_scores():
    probs = stable_softmax(np.array([1e4, -1e4, 0.0]))
    assert np.isfinite(probs).all()
    assert abs(probs.sum() - 1.0) < 1e-12


def test_empty_candidates_error(params):
    with pytest.raises(ValueError, match="non-empty"):
        score_and_prob(params, np.ones(TINY.d_entity), [])


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_mention_nll_worked_example():
    # gold score 1.0 against two zeros: loss = -ln(e / (e + 2))
    nll = mention_nll(Tensor(np.array([[1.0, 0.0, 0.0]])), [0])
    assert nll.data[0] == pytest.approx(-math.log(math.e / (math.e + 2)), abs=1e-12)
    assert nll.data[0] == pytest.approx(0.5514, abs=1e-4)


def test_mention_nll_gold_dominates_to_zero():
    nll = mention_nll(Tensor(np.array([[1e4, 0.0, 0.0]])), [0])
    assert 0.0 <= nll.data[0] < 1e-12


def test_linking_loss_all_null_is_zero(params):
    rng = np.random.default_rng(0)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), None, None)])
    batch = build_batch([ctx], 0, [[]])
    H = encode(params, batch.tokens, batch.pad_mask)
    loss, metrics = linking_loss(params, H, batch)
    assert loss.data == 0.0
    assert metrics["n_linked_mentions"] == 0


def test_linking_loss_matches_oracle_shared_candidates(params):
    rng = np.random.default_rng(8)
    contexts, targets = [], []
    cand = np.array([3, 5, 9, 11, 4])
    for _ in range(3):
        ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None),
                                        MentionLabel((4, 4), 9, None)])
        contexts.append(ctx)
        targets.append([MentionTarget((1, 2), 1), MentionTarget((4, 4), 2)])
    batch = build_batch(contexts, 0, targets, cand)
    H = encode(params, batch.tokens, batch.pad_mask)
    loss, _ = linking_loss(params, H, batch)

    svec = span_repr(params, H, batch.ment_ex, batch.ment_start, batch.ment_end).data
    rows = svec @ params["ent_emb"].data[cand].T
    expected = oracle_linking_loss(rows, batch.gold_pos, 3, batch.ment_ex)
    assert loss.data == pytest.approx(expected, abs=1e-9)


def test_linking_loss_matches_oracle_ragged(params):
    rng = np.random.default_rng(9)
    ctx = make_context(rng, labels=[MentionLabel((0, 1), 2, None),
                                    MentionLabel((3, 3), 7, None)])
    targets = [[
        MentionTarget((0, 1), 1, candidates=np.array([5, 2, 9])),
        MentionTarget((3, 3), 0, candidates=np.array([7, 1])),
    ]]
    batch = build_batch([ctx], 0, targets)
    H = encode(params, batch.tokens, batch.pad_mask)
    loss, _ = linking_loss(params, H, batch)

    svec = span_repr(params, H, batch.ment_ex, batch.ment_start, batch.ment_end).data
    row0 = svec[0] @ params["ent_emb"].data[[5, 2, 9]].T
    row1 = svec[1] @ params["ent_emb"].data[[7, 1]].T
    expected = oracle_softmax_nll(list(row0), 1) + oracle_softmax_nll(list(row1), 0)
    assert loss.data == pytest.approx(expected, abs=1e-9)


def test_bio_targets_example():
    assert bio_encode([(1, 2), (4, 4)], 6).tolist() == [0, 1, 2, 0, 1, 0]


def test_bio_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        bio_encode([(1, 3), (3, 4)], 6)


def test_bio_loss_uniform_logits_is_ln3(params):
    params["bio_w"].data[:] = 0.0
    params["bio_b"].data[:] = 0.0
    rng = np.random.default_rng(1)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 3, None)])
    batch = build_batch([ctx], 0, [[]])
    H = encode(params, batch.tokens, batch.pad_mask)
    assert bio_loss(params, H, batch).data == pytest.approx(math.log(3.0), abs=1e-12)


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


def test_bio_loss_matches_oracle(params):
    rng = np.random.default_rng(10)
    contexts = [
        make_context(rng, n_tokens=6, labels=[MentionLabel((1, 2), 3, None)]),
        make_context(rng, n_tokens=4, labels=[MentionLabel((0, 0), None, None)]),
    ]
    batch = build_batch(contexts, 0, [[], []])
    H = encode(params, batch.tokens, batch.pad_mask)
    loss = bio_loss(params, H, batch)
    logits = (H.data @ params["bio_w"].data + params["bio_b"].data)
    expected = oracle_bio_loss(logits, batch.bio_targets, ~batch.pad_mask)
    assert loss.data == pytest.approx(expected, abs=1e-9)


def test_gold_outside_candidates_rejected(params):
    rng = np.random.default_rng(26)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None)])
    with pytest.raises(ValueError, match="gold missing"):
        build_batch([ctx], 0, [[MentionTarget((1, 2), 7)]], np.array([5, 3]))
    with pytest.raises(ValueError, match="gold missing"):
        build_batch([ctx], 0, [[MentionTarget((1, 2), 2, candidates=np.array([5, 3]))]])


def test_total_loss_weights(params):
    rng = np.random.default_rng(11)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None)])
    batch = build_batch([ctx], 0, [[MentionTarget((1, 2), 0)]], np.array([5, 3, 1]))
    full, _ = total_loss(params, batch, 1.0, 1.0)
    link_only, _ = total_loss(params, batch, 1.0, 0.0)
    bio_only, _ = total_loss(params, batch, 0.0, 1.0)
    assert full.data == pytest.approx(link_only.data + bio_only.data, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradients_match_finite_differences(params):
    rng = np.random.default_rng(12)
    contexts, targets = [], []
    for _ in range(2):
        ctx = make_context(rng, labels=[MentionLabel((2, 3), 5, None),
                                        MentionLabel((6, 6), None, None)])
        contexts.append(ctx)
        targets.append([MentionTarget((2, 3), 1)])
    batch = build_batch(contexts, 0, targets, np.array([3, 5, 9, 11, 4]))
    errors = fd_group_errors(lambda: total_loss(params, batch, 1.0, 1.0)[0], params)
    worst = max(errors.values())
    assert worst < 1e-4, sorted(errors.items(), key=lambda kv: -kv[1])[:3]


def test_zero_signal_batch_has_zero_gradients(params):
    rng = np.random.default_rng(13)
    ctx = make_context(rng, labels=[MentionLabel((1, 1), None, None)])
    batch = build_batch([ctx], 0, [[]])
    loss, _ = total_loss(params, batch, 1.0, 0.0)
    grads = backward(loss, params)
    assert loss.data == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def test_uncandidated_entity_embedding_gradient_is_zero(params):
    rng = np.random.default_rng(14)
    ctx = make_context(rng, labels=[MentionLabel((1, 2), 5, None)])
    batch = build_batch([ctx], 0, [[MentionTarget((1, 2), 0)]], np.array([5, 3]))
    loss, _ = total_loss(params, batch, 1.0, 1.0)
    grads = backward(loss, params)
    g = grads["ent_emb"].dense()
    assert np.any(g[5] != 0.0) and np.any(g[3] != 0.0)
    untouched = [i for i in range(TINY.n_entities) if i not in (3, 5)]
    assert np.all(g[untouched] == 0.0)


def _linked_batch(seed):
    rng = np.random.default_rng(seed)
    contexts = [make_context(rng, labels=[MentionLabel((2, 3), 5, None)]) for _ in range(2)]
    return build_batch(contexts, 0, [[MentionTarget((2, 3), 1)]] * 2, np.array([3, 5, 9]))


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

    probs = attention_prob_refs(monkeypatch)
    loss, _ = total_loss(params, batch)
    interior = _interior_nodes(loss)
    assert len(probs) == TINY.n_layers and all(r() is not None for r in probs)
    grads = backward(loss, params)
    assert sum(r() is not None for r in probs) == 0
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
    batch = build_batch([ctx], 0, [[MentionTarget((1, 2), 0)]], np.array([5, 3]))
    params["span_w2"].data[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        loss, _ = total_loss(params, batch, 1.0, 0.0)
        with pytest.raises(GradientError, match="parameter group"):
            backward(loss, params)


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
    assert predict_disambiguation(params, ctx.tokens, [(1, 2)], [[13]]) == [13]


def test_predict_matches_brute_force_full_vocab(params):
    rng = np.random.default_rng(17)
    ctx = make_context(rng)
    H = encode(params, np.asarray(ctx.tokens))
    sv = span_repr(params, H, [0], [1], [2]).data[0]
    scores = [float(sv @ params["ent_emb"].data[c]) for c in range(TINY.n_entities)]
    best = max(range(TINY.n_entities), key=lambda c: (scores[c], -c))
    assert predict_disambiguation(params, ctx.tokens, [(1, 2)]) == [best]


def test_hand_set_embeddings_select_entity_two(params):
    rng = np.random.default_rng(18)
    ctx = make_context(rng)
    H = encode(params, np.asarray(ctx.tokens))
    sv = span_repr(params, H, [0], [1], [2]).data[0]
    params["ent_emb"].data[:] = -np.ones_like(params["ent_emb"].data)
    params["ent_emb"].data[2] = 10.0 * sv / np.linalg.norm(sv)
    assert predict_disambiguation(params, ctx.tokens, [(1, 2)]) == [2]


def test_exact_tie_breaks_to_lowest_entity(params):
    rng = np.random.default_rng(19)
    ctx = make_context(rng)
    params["ent_emb"].data[9] = params["ent_emb"].data[5]  # exact tie
    pred = predict_disambiguation(params, ctx.tokens, [(1, 2)], [[9, 5]])
    assert pred == [5]


def test_candidate_subset_consistent_with_full(params):
    rng = np.random.default_rng(20)
    for _ in range(25):
        ctx = make_context(rng)
        full = predict_disambiguation(params, ctx.tokens, [(1, 2)])[0]
        cands = list(rng.choice(TINY.n_entities, size=6, replace=False))
        if full not in cands:
            cands.append(full)
        sub = predict_disambiguation(params, ctx.tokens, [(1, 2)], [cands])[0]
        assert sub == full


def test_constant_score_shift_leaves_argmax(params):
    rng = np.random.default_rng(21)
    ctx = make_context(rng)
    cands = [[1, 4, 7, 9]]
    before = predict_disambiguation(params, ctx.tokens, [(1, 2)], cands)
    # adding one shared vector to every entity embedding shifts all scores
    # of a given span by the same constant
    params["ent_emb"].data += rng.normal(size=TINY.d_entity) * 3.0
    after = predict_disambiguation(params, ctx.tokens, [(1, 2)], cands)
    assert before == after


def test_rank_entities_orders_by_score(params):
    rng = np.random.default_rng(22)
    ctx = make_context(rng)
    (top,) = rank_entities(params, ctx.tokens, [(1, 2)], [[3, 8, 15]], top_k=3)
    scores = [s for _, s in top]
    assert scores == sorted(scores, reverse=True)


SPANS = [(0, 0), (1, 2), (4, 6), (7, 7), (8, 9)]


def _span_vectors(params, tokens, spans=SPANS):
    H = encode(params, np.asarray(tokens)[None, :])
    return span_repr(params, H, [0] * len(spans), [s for s, _ in spans],
                     [e for _, e in spans]).data


def _oracle_ranking(params, tokens, spans, candidates, top_k):
    """Each span scored on its own and sorted by (-score, id) in Python."""
    sv = _span_vectors(params, tokens, spans)
    ent = params["ent_emb"].data
    out = []
    for i in range(len(spans)):
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


def test_rank_entities_matches_oracle_on_ragged_unordered_lists(params):
    ctx = make_context(np.random.default_rng(26))
    cands = [[15, 3, 8], [19, 2, 11, 0, 5], [7], [18, 4, 12, 3], [6, 1, 19, 14, 9, 10]]
    got = rank_entities(params, ctx.tokens, SPANS, cands, top_k=3)
    _assert_same_ranking(got, _oracle_ranking(params, ctx.tokens, SPANS, cands, 3))


def test_rank_entities_breaks_a_three_way_tie_at_top_k_toward_lowest_ids(params):
    ctx = make_context(np.random.default_rng(27))
    score = _plant_tie(params, ctx.tokens, 2, tied=[13, 4, 9], lower=[2, 16])
    cands = [[5, 1], [17, 0, 3], [16, 13, 2, 9, 4], [11, 6, 18], [13, 9, 4]]
    got = rank_entities(params, ctx.tokens, SPANS, cands, top_k=2)
    assert got[2] == [(4, score), (9, score)]
    _assert_same_ranking(got, _oracle_ranking(params, ctx.tokens, SPANS, cands, 2))


def test_rank_entities_top_k_past_a_list_returns_only_that_list(params):
    ctx = make_context(np.random.default_rng(28))
    cands = [[15, 3, 8], [19, 2], [7], [18, 4, 12, 3], [6, 1]]
    got = rank_entities(params, ctx.tokens, SPANS, cands, top_k=4)
    assert [sorted(e for e, _ in r) for r in got] == [sorted(c) for c in cands]
    _assert_same_ranking(got, _oracle_ranking(params, ctx.tokens, SPANS, cands, 4))


def test_rank_entities_empty_list_ranks_nothing(params):
    ctx = make_context(np.random.default_rng(29))
    cands = [[15, 3, 8], [], [7, 2], [], [6, 1]]
    got = rank_entities(params, ctx.tokens, SPANS, cands, top_k=2)
    assert got[1] == [] and got[3] == []
    _assert_same_ranking(got, _oracle_ranking(params, ctx.tokens, SPANS, cands, 2))
    assert rank_entities(params, ctx.tokens, SPANS[:2], [[], []]) == [[], []]


def test_rank_entities_full_vocabulary_matches_oracle(params):
    ctx = make_context(np.random.default_rng(30))
    score = _plant_tie(params, ctx.tokens, 1, tied=[17, 6, 11], lower=[0], scale=100.0)
    got = rank_entities(params, ctx.tokens, SPANS, None, top_k=2)
    assert got[1] == [(6, score), (11, score)]
    _assert_same_ranking(got, _oracle_ranking(params, ctx.tokens, SPANS, None, 2))
    everything = rank_entities(params, ctx.tokens, SPANS, None, top_k=TINY.n_entities + 3)
    assert all(len(r) == TINY.n_entities for r in everything)
    _assert_same_ranking(
        everything, _oracle_ranking(params, ctx.tokens, SPANS, None, TINY.n_entities)
    )


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


def test_end_to_end_empty_when_all_outside(params):
    rng = np.random.default_rng(23)
    ctx = make_context(rng)
    params["bio_w"].data[:] = 0.0
    params["bio_b"].data[:] = [50.0, 0.0, 0.0]  # O everywhere
    assert predict_end_to_end(params, ctx.tokens) == []


def test_end_to_end_decodes_spans_and_probabilities(params):
    rng = np.random.default_rng(24)
    ctx = make_context(rng, n_tokens=4)
    params["bio_w"].data[:] = 0.0
    params["bio_b"].data[:] = [0.0, 50.0, 0.0]  # B everywhere: four single spans
    out = predict_end_to_end(params, ctx.tokens)
    assert [span for span, _, _ in out] == [(0, 0), (1, 1), (2, 2), (3, 3)]
    H = encode(params, np.asarray(ctx.tokens)[None, :])
    for span, ent, prob in out:
        assert 0 <= ent < TINY.n_entities
        assert 0.0 < prob <= 1.0
        # reference: this span scored on its own against every entity
        sv = span_repr(params, H, [0], [span[0]], [span[1]]).data[0]
        scores, probs = score_and_prob(params, sv)
        assert ent == int(np.flatnonzero(scores == scores.max())[0])
        assert prob == pytest.approx(probs[ent], rel=1e-12)


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
    assert predict_disambiguation(loaded, ctx.tokens, spans) == \
        predict_disambiguation(load_checkpoint(path), ctx.tokens, spans)


def test_checkpoint_header_and_manifest(tmp_path, params):
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    assert blob[:4] == b"ELCK"
    manifest = json.loads((tmp_path / "model.elck.manifest.json").read_text())
    assert manifest["dtype"] == "<f4"
    names = [t["name"] for t in manifest["tensors"]]
    assert names[0] == "tok_emb" and names[-1] == "ent_emb"
    last = manifest["tensors"][-1]
    assert last["offset"] + last["nbytes"] == len(blob)
    for entry in manifest["tensors"]:
        expect = int(np.prod(entry["shape"])) * 4
        assert entry["nbytes"] == expect


def test_checkpoint_bytes_follow_documented_layout(tmp_path, params):
    # magic, version, config JSON length, config JSON, then every tensor in
    # declaration order as little-endian float32, row-major
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    cfg_json = json.dumps(asdict(TINY), sort_keys=True).encode("utf-8")
    tensors = [params[name].data.astype("<f4").tobytes(order="C") for name in params.names()]
    want = b"ELCK" + struct.pack("<II", 1, len(cfg_json)) + cfg_json + b"".join(tensors)
    assert path.read_bytes() == want


def test_checkpoint_bad_magic(tmp_path, params):
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path, params):
    path = tmp_path / "model.elck"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("fail_in", ["checkpoint", "manifest"])
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
        def dump(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(json, "dump", dump)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, newer)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_manifest_path_helper():
    assert manifest_path("a/b.elck") == "a/b.elck.manifest.json"
