"""Schedule, clipping, Adam, and the pretrain/finetune loops."""

import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_entity_accuracy, as_float64, attention_state_refs, dense_moments, make_world

from elink import autodiff as ad
from elink import model as M
from elink import threads, training
from elink.aliastable import AliasTable
from elink.autodiff import RowGrad, grad_values
from elink.candidates import CandidateConfig
from elink.corpus import Context, MentionLabel
from elink.model import ModelConfig, ModelParams, load_checkpoint
from elink.noising import NoiseConfig
from elink.training import (
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    clip_gradients,
    finetune,
    lr_schedule,
    pretrain,
)

SMALL_MODEL = dict(d_model=16, n_layers=1, n_heads=2, d_ff=32, d_entity=16, max_len=32)


# ---------------------------------------------------------------------------
# lr schedule
# ---------------------------------------------------------------------------


def test_warmup_midpoint():
    cfg = TrainConfig(base_lr=2.0, total_steps=1000)
    assert lr_schedule(50, cfg) == pytest.approx(1.0)


def test_peak_at_warmup_boundary():
    cfg = TrainConfig(base_lr=2.0, total_steps=1000)
    assert lr_schedule(100, cfg) == pytest.approx(2.0)


def test_linear_decay_midpoint():
    cfg = TrainConfig(base_lr=2.0, total_steps=1000)
    assert lr_schedule(550, cfg) == pytest.approx(1.0)


def test_schedule_endpoints_zero():
    cfg = TrainConfig(base_lr=3.0, total_steps=400)
    assert lr_schedule(0, cfg) == 0.0
    assert lr_schedule(400, cfg) == 0.0


def test_schedule_continuous_and_peaked():
    cfg = TrainConfig(base_lr=1.0, total_steps=200)
    values = [lr_schedule(s, cfg) for s in range(201)]
    assert max(values) == pytest.approx(1.0)
    assert values.index(max(values)) == 20
    diffs = np.abs(np.diff(values))
    assert diffs.max() <= 1.0 / 20 + 1e-12  # no jumps beyond the warmup slope


def test_schedule_rejects_out_of_range():
    cfg = TrainConfig(total_steps=10)
    with pytest.raises(ValueError):
        lr_schedule(11, cfg)


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def test_clip_halves_at_double_norm():
    grads = {"a": np.array([2.0]), "b": np.zeros(1)}
    # global norm 2.0 with clip 1.0: every gradient halved
    out = clip_gradients(grads, 1.0)
    assert out["a"][0] == pytest.approx(1.0)


def test_clip_leaves_small_gradients():
    grads = {"a": np.array([0.3]), "b": np.array([0.4])}
    out = clip_gradients(grads, 1.0)
    assert out["a"][0] == 0.3 and out["b"][0] == 0.4


def test_clip_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        clip_gradients({"a": np.array([np.nan])}, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["dense", "rows"])
def test_clip_names_the_nonfinite_group(bad, kind):
    """A NaN, +inf or -inf in a dense group or in a RowGrad's stored rows
    raises GradientError naming that group, before any group is scaled."""
    values = np.full((2, 3), 4.0, np.float32)
    values[1, 2] = bad
    bad_grad = values if kind == "dense" else RowGrad.of_rows(np.array([1, 4]), values, (6, 3))
    first = np.full(5, 9.0, np.float32)
    grads = {"first": first, "bad": bad_grad, "last": np.ones(2, np.float32)}
    with pytest.raises(M.GradientError, match="non-finite gradient in parameter group 'bad'"):
        clip_gradients(grads, 1.0)
    assert (first == 9.0).all()


def test_clip_scales_rowgrad_values_like_dense():
    rng = np.random.default_rng(5)
    rows = RowGrad(np.array([3, 0, 3]), rng.normal(size=(3, 2)) * 4, (6, 2))
    bias = rng.normal(size=4)
    dense = {"emb": rows.dense(), "b": bias.copy()}
    clip_gradients({"emb": rows, "b": bias}, 1.0)
    clip_gradients(dense, 1.0)
    assert isinstance(rows, RowGrad) and list(rows.rows) == [0, 3]
    # equal up to the summation order of the global norm
    np.testing.assert_allclose(rows.dense(), dense["emb"], rtol=1e-14, atol=0)
    np.testing.assert_allclose(bias, dense["b"], rtol=1e-14, atol=0)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20),
       st.floats(0.1, 10))
@settings(max_examples=200, deadline=None)
def test_clip_contract(values, clip_norm):
    grads = {"g": np.array(values)}
    clip_gradients(grads, clip_norm)
    assert np.linalg.norm(grads["g"]) <= clip_norm + 1e-9


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def tiny_params():
    cfg = ModelConfig(vocab_size=6, n_entities=3, d_model=4, n_layers=0,
                      n_heads=1, d_ff=4, d_entity=4, max_len=4)
    return ModelParams.initialize(cfg, seed=0)


def test_adam_zero_gradients_leave_params():
    params = tiny_params()
    before = {k: t.data.copy() for k, t in params.items()}
    grads = {k: np.zeros_like(t.data) for k, t in params.items()}
    adam_step(params, grads, OptimizerState.for_params(params), lr=1e-3, cfg=TrainConfig())
    for k, t in params.items():
        assert np.array_equal(t.data, before[k])


def test_adam_first_step_update_value():
    # scalar parameter, g=1, lr=1e-3: bias-corrected update is
    # -lr * 1 / (1 + eps) ~= -9.99999990e-4
    params = as_float64(tiny_params())
    grads = {k: np.zeros_like(t.data) for k, t in params.items()}
    grads["bio_b"] = np.zeros(3)
    grads["bio_b"][0] = 1.0
    before = params["bio_b"].data[0]
    adam_step(params, grads, OptimizerState.for_params(params), lr=1e-3, cfg=TrainConfig())
    delta = params["bio_b"].data[0] - before
    assert delta == pytest.approx(-1e-3 / (1.0 + 1e-8), abs=1e-15)


def test_adam_freeze_entity_embeddings():
    params = tiny_params()
    frozen_before = params["ent_emb"].data.tobytes()
    grads = {k: np.ones_like(t.data) for k, t in params.items()}
    cfg = TrainConfig(freeze_entity_embeddings=True)
    adam_step(params, grads, OptimizerState.for_params(params), lr=1e-2, cfg=cfg)
    assert params["ent_emb"].data.tobytes() == frozen_before
    assert not np.array_equal(params["bio_b"].data, np.zeros(3))


def test_adam_rejects_nonfinite_update():
    params = tiny_params()
    grads = {k: np.zeros_like(t.data) for k, t in params.items()}
    grads["bio_b"] = np.array([np.inf, 0.0, 0.0])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite Adam update for parameter group 'bio_b'"):
            adam_step(params, grads, OptimizerState.for_params(params), lr=1e-3,
                      cfg=TrainConfig())


def test_adam_rejects_nonfinite_row_update_in_a_later_chunk(monkeypatch):
    monkeypatch.setattr(training, "_ADAM_CHUNK", 4)   # one 4-wide row per chunk
    params = tiny_params()
    grads = {k: np.zeros_like(t.data) for k, t in params.items()}
    grads["ent_emb"] = RowGrad(np.array([2]), np.array([[0.0, np.nan, 0.0, 0.0]]), (3, 4))
    before = params["ent_emb"].data.copy()
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite Adam update for parameter group 'ent_emb'"):
            adam_step(params, grads, OptimizerState.for_params(params), lr=1e-3,
                      cfg=TrainConfig())
    # the offending chunk was never applied
    assert params["ent_emb"].data[2].tobytes() == before[2].tobytes()


def _reference_adam(params, grads, m, v, t, lr, cfg):
    """The textbook dense Adam step, one full-size temporary per term."""
    bc1, bc2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
    for name, p in params.items():
        g = grads[name]
        m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
        v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * g * g
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.eps)


@pytest.mark.parametrize("chunk", [3, 1 << 15])
def test_adam_rowgrad_equals_dense_bytewise(monkeypatch, chunk):
    """Three steps with row-sparse gradients give the same bytes as with
    their dense() form, and as the textbook dense formula."""
    monkeypatch.setattr(training, "_ADAM_CHUNK", chunk)
    cfg = ModelConfig(vocab_size=11, n_entities=9, d_model=4, n_layers=1,
                      n_heads=1, d_ff=4, d_entity=5, max_len=4)
    sparse, dense = (as_float64(ModelParams.initialize(cfg, seed=3)) for _ in range(2))
    ref = {k: t.data.copy() for k, t in sparse.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    s_state, d_state = OptimizerState.for_params(sparse), OptimizerState.for_params(dense)
    rng = np.random.default_rng(4)
    tc = TrainConfig()
    for t in range(1, 4):
        grads = {k: rng.normal(size=p.data.shape) for k, p in sparse.items()}
        for name in ("ent_emb", "tok_emb"):
            shape = sparse[name].data.shape
            idx = rng.integers(0, shape[0], size=6)
            grads[name] = RowGrad(idx, rng.normal(size=(6,) + shape[1:]), shape)
        as_dense = {k: g.dense() if isinstance(g, RowGrad) else g.copy() for k, g in grads.items()}
        lr = 1e-2 * t
        adam_step(sparse, grads, s_state, lr, tc)
        adam_step(dense, as_dense, d_state, lr, tc)
        _reference_adam(ref, as_dense, ref_m, ref_v, t, lr, tc)
    (s_m, s_v), (d_m, d_v) = dense_moments(s_state), dense_moments(d_state)
    for name, p in sparse.items():
        assert p.data.tobytes() == dense[name].data.tobytes() == ref[name].tobytes(), name
        assert s_m[name].tobytes() == d_m[name].tobytes() == ref_m[name].tobytes(), name
        assert s_v[name].tobytes() == d_v[name].tobytes() == ref_v[name].tobytes(), name


@pytest.mark.parametrize("chunk", [3, 1 << 15])
def test_adam_one_pass_matches_textbook_at_chunk_edges(monkeypatch, chunk):
    """Gradient rows on both sides of a chunk boundary, chunks no row
    touches, and an empty RowGrad all give the textbook formula's bytes."""
    monkeypatch.setattr(training, "_ADAM_CHUNK", chunk)
    width = 1 if chunk == 3 else 4
    per = chunk // width                      # ent_emb rows per chunk
    cfg = ModelConfig(vocab_size=7, n_entities=4 * per + 1, d_model=2, n_layers=0,
                      n_heads=1, d_ff=2, d_entity=width, max_len=2)
    params = as_float64(ModelParams.initialize(cfg, seed=5))
    ref = {k: t.data.copy() for k, t in params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    state = OptimizerState.for_params(params)
    shape = params["ent_emb"].data.shape
    touched = [
        [per - 1, per, per + 1, per, 3 * per, 4 * per],   # chunk 2 untouched
        [],                                              # no rows at all
        [2 * per + 1, 2 * per],                          # one chunk only
    ]
    rng = np.random.default_rng(6)
    tc = TrainConfig()
    for t, rows in enumerate(touched, start=1):
        grads = {k: rng.normal(size=p.data.shape) for k, p in params.items()}
        idx = np.array(rows, dtype=np.int64)
        grads["ent_emb"] = RowGrad(idx, rng.normal(size=(len(rows),) + shape[1:]), shape)
        as_dense = {k: g.dense() if isinstance(g, RowGrad) else g.copy() for k, g in grads.items()}
        adam_step(params, grads, state, 1e-2 * t, tc)
        _reference_adam(ref, as_dense, ref_m, ref_v, t, 1e-2 * t, tc)
    m, v = dense_moments(state)
    for name, p in params.items():
        assert p.data.tobytes() == ref[name].tobytes(), name
        assert m[name].tobytes() == ref_m[name].tobytes(), name
        assert v[name].tobytes() == ref_v[name].tobytes(), name


def test_adam_holds_rows_reached_over_steps_out_of_row_order(monkeypatch):
    """Rows first reached at steps 1, 2 and 3, and rows never reached: the
    held slots run out of row order across chunk edges, yet params, m and
    v are the textbook dense step's bytes and only reached rows are held."""
    monkeypatch.setattr(training, "_ADAM_CHUNK", 4)   # two 2-wide ent_emb rows per chunk
    cfg = ModelConfig(vocab_size=7, n_entities=12, d_model=2, n_layers=0,
                      n_heads=1, d_ff=2, d_entity=2, max_len=2)
    params = as_float64(ModelParams.initialize(cfg, seed=8))
    ref = {k: t.data.copy() for k, t in params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    state = OptimizerState.for_params(params)
    shape = params["ent_emb"].data.shape
    reached = [[7, 9, 10], [0, 4, 9], [2, 5, 10, 11]]   # 1, 3, 6 and 8 never
    rng = np.random.default_rng(9)
    tc = TrainConfig()
    for t, rows in enumerate(reached, start=1):
        grads = {k: rng.normal(size=p.data.shape) for k, p in params.items()}
        grads["ent_emb"] = RowGrad(np.array(rows), rng.normal(size=(len(rows),) + shape[1:]), shape)
        as_dense = {k: g.dense() if isinstance(g, RowGrad) else g.copy() for k, g in grads.items()}
        adam_step(params, grads, state, 1e-2 * t, tc)
        _reference_adam(ref, as_dense, ref_m, ref_v, t, 1e-2 * t, tc)
    held = state.moments["ent_emb"]
    assert sorted(held.order[: held.n]) == [0, 2, 4, 5, 7, 9, 10, 11]
    m, v = dense_moments(state)
    for name, p in params.items():
        assert p.data.tobytes() == ref[name].tobytes(), name
        assert m[name].tobytes() == ref_m[name].tobytes(), name
        assert v[name].tobytes() == ref_v[name].tobytes(), name


_HEAP_REUSE = """
import os
import numpy as np
from elink.training import HeldMoments

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

shape = (6144, 1024)
# glibc maps the first array of this size and, once it is freed, raises its
# mmap threshold: the second comes from the heap, which keeps it when freed
for _ in range(2):
    a = np.ones(shape, np.float32)
    del a
before = rss()
held = HeldMoments.for_shape(shape, np.float32)
slots = held.hold(np.arange(8))
held.m[slots] = 1.0
held.v[slots] = 1.0
b = np.ones(shape, np.float32)
print(rss() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/statm"),
                    reason="glibc's heap reuse, measured in /proc")
def test_held_moments_leave_freed_heap_pages_to_the_next_allocation():
    """In a fresh process that has freed a heap array the size of a moments
    group, HeldMoments with a few held rows leaves that array's pages to the
    next allocation of its size: RSS grows by about the held rows (one
    2 MB huge page for each of m and v at most), not by the group, as it
    would if calloc served the moments from the freed heap."""
    src = os.path.dirname(os.path.dirname(training.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _HEAP_REUSE], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    group = 6144 * 1024 * 4
    assert int(out.stdout) < 2 * (2 << 20) + (1 << 20), int(out.stdout) / group


def test_unlinked_batch_gives_ent_emb_an_empty_rowgrad_and_no_held_row():
    """A batch with no linked mention reaches no ent_emb row: backward gives
    an empty RowGrad, Adam holds no row for it, and the steps around it are
    the textbook dense step's bytes."""
    cfg = ModelConfig(vocab_size=30, n_entities=10, d_model=4, n_layers=1,
                      n_heads=1, d_ff=4, d_entity=4, max_len=8)
    params = ModelParams.initialize(cfg, seed=10, init_std=0.5)
    rng = np.random.default_rng(11)

    def context(labels):
        return Context(tokens=rng.integers(4, 30, size=6).tolist(),
                       char_offsets=[(i, i + 1) for i in range(6)], doc_id="d", labels=labels)

    unlinked = M.build_batch([context([MentionLabel((1, 2), None, None)])], 0, [[]])
    linked = M.build_batch([context([MentionLabel((2, 3), 4, None)])], 0,
                           [[M.MentionTarget((2, 3), 4)]], np.array([2, 4, 7]))
    ref = {k: t.data.copy() for k, t in params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    state = OptimizerState.for_params(params)
    tc = TrainConfig()
    for t, batch in enumerate([unlinked, linked, unlinked], start=1):
        grads = M.backward(M.total_loss(params, batch)[0], params)
        if batch is unlinked:
            g = grads["ent_emb"]
            assert isinstance(g, RowGrad) and len(g.rows) == 0 and g.values.shape == (0, 4)
        as_dense = {k: g.dense() if isinstance(g, RowGrad) else g.copy() for k, g in grads.items()}
        adam_step(params, grads, state, 1e-2, tc)
        _reference_adam(ref, as_dense, ref_m, ref_v, t, 1e-2, tc)
        if t == 1:
            assert state.moments["ent_emb"].n == 0
    assert sorted(state.moments["ent_emb"].order[: state.moments["ent_emb"].n]) == [2, 4, 7]
    for name, p in params.items():
        assert p.data.tobytes() == ref[name].tobytes(), name


# ---------------------------------------------------------------------------
# pretrain loop
# ---------------------------------------------------------------------------


def small_setup(seed=0, n_contexts=12, n_entities=20):
    vocab, contexts, phrase, pages = make_world(
        n_entities=n_entities, n_contexts=n_contexts, seed=seed
    )
    mcfg = ModelConfig(vocab_size=len(vocab), n_entities=n_entities, **SMALL_MODEL)
    ccfg = CandidateConfig(k=8, max_page=2, max_phrase=2, min_random=2, rng_seed=5)
    ncfg = NoiseConfig(rng_seed=11)
    return vocab, contexts, phrase, pages, mcfg, ccfg, ncfg


def test_pretrain_deterministic_logs_and_checkpoints(tmp_path):
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    tcfg = TrainConfig(base_lr=1e-3, total_steps=6, batch_size=4, log_interval=2, rng_seed=42)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase, out_dir=str(out))
        outs.append(out)
    for name in ("checkpoint.elck", "train_log.tsv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_pretrain_checkpoint_equals_textbook_adam_run(tmp_path, monkeypatch):
    """Three pretrain steps write the same checkpoint and log bytes as a run
    whose Adam step is the textbook dense formula."""
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    tcfg = TrainConfig(base_lr=1e-2, total_steps=3, batch_size=4, log_interval=1, rng_seed=12)
    pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase,
             out_dir=str(tmp_path / "held"))
    m, v = {}, {}

    def textbook(params, grads, state, lr, cfg):
        state.step += 1
        data = {k: t.data for k, t in params.items()}
        if not m:
            m.update({k: np.zeros_like(p) for k, p in data.items()})
            v.update({k: np.zeros_like(p) for k, p in data.items()})
        dense = {k: g.dense() if isinstance(g, RowGrad) else g for k, g in grads.items()}
        _reference_adam(data, dense, m, v, state.step, lr, cfg)
        return state

    monkeypatch.setattr(training, "adam_step", textbook)
    pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase,
             out_dir=str(tmp_path / "textbook"))
    for name in ("checkpoint.elck", "train_log.tsv"):
        assert (tmp_path / "held" / name).read_bytes() == (tmp_path / "textbook" / name).read_bytes()


def test_pretrain_loss_decreases_on_overfit_fixture():
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup(n_contexts=8)
    tcfg = TrainConfig(base_lr=3e-3, total_steps=120, batch_size=8, log_interval=1, rng_seed=1)
    _, rows = pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase)
    first = np.mean([r.loss for r in rows[:20]])
    last = np.mean([r.loss for r in rows[-20:]])
    assert last < first


def test_noise_toggle_changes_inputs_never_targets():
    vocab, contexts, phrase, pages, mcfg, ccfg, _ = small_setup()
    import elink.training as tr
    import elink.model as M

    captured = []
    orig = M.build_batch

    def capture(contexts_, pad, targets, shared=None, tokens_override=None):
        batch = orig(contexts_, pad, targets, shared, tokens_override)
        captured.append(batch)
        return batch

    tcfg = TrainConfig(base_lr=1e-3, total_steps=1, batch_size=12, log_interval=1, rng_seed=2)
    M_build, tr_build = M.build_batch, tr.build_batch
    tr.build_batch = capture
    try:
        pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, NoiseConfig(enabled=True, rng_seed=3),
                 pages, phrase)
        pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, NoiseConfig(enabled=False, rng_seed=3),
                 pages, phrase)
    finally:
        tr.build_batch = tr_build
        M.build_batch = M_build
    noised, clean = captured
    assert (noised.tokens != clean.tokens).any()          # inputs differ
    assert (noised.bio_targets == clean.bio_targets).all()  # targets identical
    assert (noised.gold_pos == clean.gold_pos).all()
    assert (noised.ment_start == clean.ment_start).all()


def test_each_gold_column_holds_the_gold_entity(monkeypatch):
    """batch.cand_rows[batch.gold_pos] are the batch's linked label entities
    in order, over the first-appearance pretraining union, over the sorted
    union of fine-tuning alias lists and, with cand_rows None, over the full
    vocabulary."""
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    captured = []
    orig = training.build_batch

    def capture(contexts_, *args):
        batch = orig(contexts_, *args)
        captured.append((contexts_, batch))
        return batch

    monkeypatch.setattr(training, "build_batch", capture)
    tcfg = TrainConfig(base_lr=1e-3, total_steps=2, batch_size=4, log_interval=1, rng_seed=2)
    full = replace(tcfg, softmax_mode="all_entities")
    # every name lists its two entities in descending order
    table = AliasTable({f"n{i}": [2 * i + 1, 2 * i] for i in range(10)})
    runs = {
        "union": lambda: pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase),
        "alias": lambda: finetune(ModelParams.initialize(mcfg, seed=1), contexts, vocab, tcfg,
                                  table),
        "full": lambda: pretrain(contexts, vocab, 20, mcfg, full, ccfg, ncfg, pages, phrase),
    }
    for kind, run in runs.items():
        captured.clear()
        run()
        assert len(captured) == 2
        for batch_ctx, batch in captured:
            want = [l.entity for c in batch_ctx for l in c.labels if l.entity is not None]
            rows = np.arange(20) if batch.cand_rows is None else batch.cand_rows
            assert len(want) > 0
            assert rows[batch.gold_pos].tolist() == want, kind
            assert (batch.cand_rows is None) == (kind == "full")
            assert (batch.cand_bias is None) == (kind != "alias")
        if kind == "union":  # the lookup also serves an unsorted union
            assert any((np.diff(b.cand_rows) < 0).any() for _, b in captured)


def test_pretrain_frees_each_step_tape_before_the_next_forward(monkeypatch):
    """When any shard's forward of step t+1 starts, no attention row
    statistics of step t, of either shard, are alive: each shard's tape
    has freed itself. The second shard of a step may already be recording,
    so each forward counts only the statistics of finished steps. No
    gradient array handed to step t's adam_step is alive either: a step's
    gradients die with it. Shards on two threads and on one."""
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    stats = attention_state_refs(monkeypatch)
    handed = []      # weakrefs to the arrays of every gradient handed to adam_step
    finished = [0]   # len(stats) when the last finished step reached Adam
    alive = []       # per forward: (statistics of finished steps, how many
                     # alive, how many handed gradient arrays alive)
    orig_loss, orig_adam = M.total_loss, training.adam_step

    def total_loss(*args, **kwargs):
        done = stats[: finished[0]]
        alive.append((len(done), sum(r() is not None for r in done),
                      sum(r() is not None for r in handed)))
        return orig_loss(*args, **kwargs)

    def adam_step(params, grads, *args, **kwargs):
        finished[0] = len(stats)
        for g in grads.values():
            arrays = (g.rows, g.values) if isinstance(g, RowGrad) else (g,)
            handed.extend(weakref.ref(a) for a in arrays)
        return orig_adam(params, grads, *args, **kwargs)

    monkeypatch.setattr(M, "total_loss", total_loss)
    monkeypatch.setattr(training, "adam_step", adam_step)
    tcfg = TrainConfig(base_lr=1e-3, total_steps=3, batch_size=4, log_interval=1, rng_seed=2)
    per_step = 2 * mcfg.n_layers   # shards x layers
    for cpus in (2, 1):
        monkeypatch.setattr(M, "_usable_cpus", lambda n=cpus: n)
        stats.clear()
        handed.clear()
        alive.clear()
        finished[0] = 0
        pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase)
        assert len(stats) == 3 * per_step
        assert handed
        assert alive == [(0, 0, 0)] * 2 + [(per_step, 0, 0)] * 2 + [(2 * per_step, 0, 0)] * 2


def test_pretrain_empty_corpus_rejected():
    vocab, _, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    with pytest.raises(ValueError, match="empty"):
        pretrain([], vocab, 20, mcfg, TrainConfig(), ccfg, ncfg, pages, phrase)


def test_pretrain_diverging_loss_aborts(tmp_path):
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    # an absurd learning rate, still finite in float32 (max ~3.4e38), makes
    # weights whose products overflow float32 on the next forward pass
    tcfg = TrainConfig(base_lr=1e30, total_steps=50, batch_size=8, log_interval=1,
                       clip_norm=1e18, rng_seed=3, checkpoint_interval=1)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged, match="last good checkpoint"):
            pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase,
                     out_dir=str(tmp_path))
    # periodic checkpoints from before the divergence survive
    assert any(p.name.startswith("ckpt_step") for p in tmp_path.iterdir())
    assert not (tmp_path / "checkpoint.elck").exists()


def test_pretrain_keeps_a_float32_tape_on_padded_batches(monkeypatch):
    """Two pretrain steps from float32 parameters on padded batches: the
    encoder output and loss of every shard, every gradient (dense or
    RowGrad), every held Adam moment and every parameter stay float32."""
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    # a filler tail of i tokens on context i, so every shard of two or more
    # contexts mixes lengths and pads
    contexts = [
        Context(c.tokens + [4] * i, c.char_offsets + [(0, 1)] * i, c.doc_id, c.labels)
        for i, c in enumerate(contexts)
    ]
    seen = {"encode": [], "loss": [], "grads": [], "moments": [], "params": [], "padded": []}

    def spy(module, name, record):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            record(args, out)
            return out

        monkeypatch.setattr(module, name, wrapper)

    spy(M, "encode", lambda args, H: seen["encode"].append(H.data.dtype))

    def on_loss(args, out):
        seen["loss"].append(out[0].data.dtype)
        seen["padded"].append(bool(args[1].pad_mask.any()))

    spy(M, "total_loss", on_loss)
    spy(M, "backward", lambda args, grads: seen["grads"].extend(
        (type(g).__name__, grad_values(g).dtype) for g in grads.values()))

    def on_adam(args, state):
        params = args[0]
        seen["params"].extend(t.data.dtype for _, t in params.items())
        seen["moments"].extend(a.dtype for h in state.moments.values() for a in (h.m, h.v))

    spy(training, "adam_step", on_adam)
    params = ModelParams.initialize(mcfg, seed=1)
    tcfg = TrainConfig(base_lr=1e-3, total_steps=2, batch_size=4, log_interval=1, rng_seed=2)
    pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase, params=params)
    assert seen["padded"] == [True] * 4   # 2 steps x 2 shards
    assert len(seen["encode"]) == len(seen["loss"]) == 4
    assert {"RowGrad", "ndarray"} <= {kind for kind, _ in seen["grads"]}
    for key in ("encode", "loss", "grads", "moments", "params"):
        dtypes = [d for _, d in seen[key]] if key == "grads" else seen[key]
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}, key


def test_loaded_checkpoint_is_writable_aligned_float32_and_finetunes(tmp_path):
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    path = tmp_path / "init.elck"
    M.save_checkpoint(path, ModelParams.initialize(mcfg, seed=1))
    params = load_checkpoint(path)
    for name, t in params.items():
        flags = t.data.flags
        assert t.data.dtype == np.float32 and flags.writeable and flags.aligned, name
    before = {name: t.data.copy() for name, t in params.items()}
    tcfg = TrainConfig(base_lr=1e-3, total_steps=2, batch_size=4, log_interval=1,
                       softmax_mode="all_entities", rng_seed=6)
    _, rows, _ = finetune(params, contexts, vocab, tcfg)
    assert len(rows) == 2 and np.isfinite([r.loss for r in rows]).all()
    assert all(not np.array_equal(t.data, before[name]) for name, t in params.items())


def test_pretrain_full_softmax_mode():
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    tcfg = TrainConfig(base_lr=1e-3, total_steps=3, batch_size=4, log_interval=1,
                       softmax_mode="all_entities", rng_seed=4)
    _, rows = pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, None, None)
    assert len(rows) == 3
    assert np.isfinite([r.loss for r in rows]).all()


def test_periodic_checkpoints_written(tmp_path):
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    tcfg = TrainConfig(base_lr=1e-3, total_steps=4, batch_size=4, log_interval=2,
                       checkpoint_interval=2, rng_seed=5)
    pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase, out_dir=str(tmp_path))
    assert (tmp_path / "ckpt_step2.elck").exists()
    assert (tmp_path / "ckpt_step4.elck").exists()
    assert (tmp_path / "checkpoint.elck").exists()
    loaded = load_checkpoint(tmp_path / "ckpt_step2.elck")
    assert loaded.config.vocab_size == len(vocab)


# ---------------------------------------------------------------------------
# sharded steps
# ---------------------------------------------------------------------------

SHARD_CASES = ["shared_union", "full_vocabulary", "alias_rows", "one_example",
               "links_in_one_half", "links_in_one_half_full_vocabulary"]


def _first_sharded_step(monkeypatch, case, cpus=2):
    """One training step of `case` from float64 parameters, on two shard
    threads where numpy's OpenBLAS is found and `cpus` is 2, else on one.
    Returns the parameters before the step, the step's whole batch, its log
    row and the summed gradients that reached clipping (dense copies)."""
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    if case.startswith("links_in_one_half"):
        # only the first context keeps its links; the others keep BIO labels
        contexts = contexts[:1] + [
            Context(c.tokens, c.char_offsets, c.doc_id,
                    [MentionLabel(l.span, None, l.surface) for l in c.labels])
            for c in contexts[1:]
        ]
    monkeypatch.setattr(M, "_usable_cpus", lambda: cpus)
    seen = {}
    orig_split, orig_clip = M.split_batch, training.clip_gradients

    def split_batch(batch, cut):
        seen["batch"], seen["cut"] = batch, cut
        return orig_split(batch, cut)

    def clip_gradients(grads, clip_norm):
        seen["grads"] = {k: g.dense() if isinstance(g, RowGrad) else g.copy()
                         for k, g in grads.items()}
        return orig_clip(grads, clip_norm)

    monkeypatch.setattr(M, "split_batch", split_batch)
    monkeypatch.setattr(training, "clip_gradients", clip_gradients)
    params = as_float64(ModelParams.initialize(mcfg, seed=1, init_std=0.3))
    before = as_float64(params)   # a copy: Adam updates params in place
    full = case.endswith("full_vocabulary")
    tcfg = TrainConfig(base_lr=1e-3, total_steps=1, batch_size=1 if case == "one_example" else 7,
                       log_interval=1, rng_seed=3,
                       softmax_mode="all_entities" if full else "candidates")
    if case == "alias_rows":
        # two or three candidates per name, so each mention's list is a part of the union
        table = AliasTable({f"n{i}": [2 * i, 2 * i + 1] + [(2 * i + 2) % 20] * (i % 2)
                            for i in range(10)})
        _, rows, _ = finetune(params, contexts, vocab, tcfg, table)
    else:
        _, rows = pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase,
                           params=params)
    return before, seen["batch"], seen["cut"], rows[0], seen["grads"]


@pytest.mark.parametrize("case", SHARD_CASES)
def test_sharded_step_equals_one_tape_in_float64(monkeypatch, case):
    """The shards' summed loss, linking accuracy and every gradient group
    equal those of one tape over the whole batch, in float64."""
    before, batch, cut, row, grads = _first_sharded_step(monkeypatch, case)
    B = batch.n_examples
    assert B == (1 if case == "one_example" else 7) and cut == (B + 1) // 2
    assert len(batch.ment_ex) > 0
    if case.startswith("links_in_one_half"):
        assert (batch.ment_ex < cut).all() or (batch.ment_ex >= cut).all()
    if case == "alias_rows":
        # a union column outside some mention's own list is masked for it
        assert batch.cand_bias.shape == (len(batch.ment_ex), len(batch.cand_rows))
        assert (batch.cand_bias == M.NEG_INF).any()
    else:
        assert batch.cand_bias is None
    if case.endswith("full_vocabulary"):
        assert batch.cand_rows is None
    else:
        assert batch.cand_rows.ndim == 1

    loss, metrics = M.total_loss(before, batch)
    ref = M.backward(loss, before)
    assert row.loss == pytest.approx(float(loss.data), rel=1e-14, abs=0)
    assert row.linking_acc == metrics["linking_acc"]
    assert list(grads) == list(ref)   # params' order, in which clipping sums
    for name, g in ref.items():
        want = g.dense() if isinstance(g, RowGrad) else g
        np.testing.assert_allclose(grads[name], want, rtol=1e-12, atol=1e-16, err_msg=name)


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("case", ["shared_union", "alias_rows", "full_vocabulary"])
def test_step_table_gradient_is_the_sum_of_the_shards_own(monkeypatch, case, cpus):
    """The one ent_emb gradient a step hands to clipping has the bytes of
    add_grads of the two shards' own gradients, each shard scoring rows it
    gathered itself: shared candidates, alias lists with a bias and the
    full vocabulary, on two shard threads and on one."""
    before, batch, cut, _, grads = _first_sharded_step(monkeypatch, case, cpus)
    own = []
    for shard in M.split_batch(batch, cut):
        assert len(shard.ment_ex) > 0
        own.append(M.backward(M.total_loss(before, shard)[0], before)["ent_emb"])
    want = ad.add_grads(*own)
    assert isinstance(want, RowGrad)
    if case == "full_vocabulary":   # a RowGrad over every row
        assert want.rows.tolist() == list(range(len(before["ent_emb"].data)))
    assert grads["ent_emb"].tobytes() == want.dense().tobytes()


@pytest.mark.parametrize("cpus", [2, 1])
def test_pretrain_step_holds_one_union_sized_buffer(monkeypatch, cpus):
    """From the batch's split to clipping, a pretrain step's traced memory
    peaks less than 1.5 union-sized buffers above where it started: the
    batch's entity rows are gathered once and take both shards' table
    gradient, whose sum needs no second buffer. The second of two steps is
    measured, so no first call's lazy imports count."""
    vocab, contexts, phrase, pages = make_world(n_entities=6000, n_contexts=16, seed=0)
    mcfg = ModelConfig(vocab_size=len(vocab), n_entities=6000,
                       **{**SMALL_MODEL, "d_entity": 256})
    ccfg = CandidateConfig(k=1024, max_page=2, max_phrase=2, min_random=2, rng_seed=5)
    tcfg = TrainConfig(base_lr=1e-3, total_steps=2, batch_size=8, log_interval=1, rng_seed=3)
    monkeypatch.setattr(M, "_usable_cpus", lambda: cpus)
    seen = {}
    orig_split, orig_clip = M.split_batch, training.clip_gradients

    def split_batch(batch, cut):
        seen["rows"] = len(batch.cand_rows)
        tracemalloc.reset_peak()
        seen["start"] = tracemalloc.get_traced_memory()[0]
        return orig_split(batch, cut)

    def clip_gradients(grads, clip_norm):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return orig_clip(grads, clip_norm)

    monkeypatch.setattr(M, "split_batch", split_batch)
    monkeypatch.setattr(training, "clip_gradients", clip_gradients)
    tracemalloc.start()
    try:
        pretrain(contexts, vocab, 6000, mcfg, tcfg, ccfg, NoiseConfig(rng_seed=11), pages, phrase)
    finally:
        tracemalloc.stop()
    buffer = seen["rows"] * mcfg.d_entity * np.dtype(M.DTYPE).itemsize
    # a buffer of over 4 MB: the step's other arrays, such as a block of the
    # table gradient (1 MB at most), are far smaller
    assert seen["rows"] > 4000
    assert seen["peak"] - seen["start"] < 1.5 * buffer, (seen["peak"] - seen["start"]) / buffer


class ShardFailure(Exception):
    pass


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_shard_backward_raises_its_own_error(monkeypatch, failing):
    """On two shard threads, a shard whose backward raises before it
    reaches the shards' meeting makes the step raise that error: the
    other shard, waiting there, is released, and nothing hangs."""
    if threads._openblas_controls() is None:
        pytest.skip("numpy's OpenBLAS is not found, so the shards share one thread")
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    monkeypatch.setattr(M, "_usable_cpus", lambda: 2)
    orig = M.backward
    caller = []

    def backward(loss, params):
        # shard 0 runs on the thread that called pretrain, shard 1 on the worker
        if (threading.get_ident() == caller[0]) == (failing == 0):
            raise ShardFailure(f"shard {failing}")
        return orig(loss, params)

    monkeypatch.setattr(M, "backward", backward)
    raised = []

    def run():
        caller.append(threading.get_ident())
        tcfg = TrainConfig(base_lr=1e-3, total_steps=2, batch_size=4, log_interval=1, rng_seed=3)
        try:
            pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase)
        except BaseException as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the step hung"
    assert len(raised) == 1 and isinstance(raised[0], ShardFailure)
    assert str(raised[0]) == f"shard {failing}"


def test_step_checks_the_one_table_gradient_for_finiteness(monkeypatch):
    """A non-finite value in the gradient the shards write into their one
    table buffer stops the step with GradientError naming ent_emb."""
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    orig = ad.TableRows._write

    def write(self, parts, share, writers):
        orig(self, parts, share, writers)
        self._buf[-1, -1] = np.nan

    monkeypatch.setattr(ad.TableRows, "_write", write)
    tcfg = TrainConfig(base_lr=1e-3, total_steps=1, batch_size=4, log_interval=1, rng_seed=3)
    with pytest.raises(M.GradientError, match="'ent_emb'"):
        pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase)


@pytest.mark.parametrize("run", ["pretrain", "finetune"])
def test_training_bytes_do_not_depend_on_the_shard_threads(tmp_path, monkeypatch, run):
    """Shards on one thread and on two write the same checkpoint and log
    bytes; batches of 5 and 2 give shards of 3 and 2 and of 1 and 1."""
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    tcfg = TrainConfig(base_lr=1e-3, total_steps=4, batch_size=5, log_interval=1, rng_seed=13)
    idents = {}
    orig = M.total_loss

    def total_loss(*args, **kwargs):
        idents[cpus].add(threading.get_ident())
        return orig(*args, **kwargs)

    monkeypatch.setattr(M, "total_loss", total_loss)
    for cpus in (1, 2):
        idents[cpus] = set()
        monkeypatch.setattr(M, "_usable_cpus", lambda n=cpus: n)
        out = str(tmp_path / str(cpus))
        if run == "pretrain":
            pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase, out_dir=out)
        else:
            table = AliasTable({f"n{i}": [2 * i, 2 * i + 1] for i in range(10)})
            finetune(ModelParams.initialize(mcfg, seed=1), contexts, vocab, tcfg, table,
                     out_dir=out)
    found = threads._openblas_controls() is not None
    assert len(idents[1]) == 1 and len(idents[2]) == (2 if found else 1)
    for name in ("checkpoint.elck", "train_log.tsv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_pretrain_pins_blas_to_one_thread_and_restores_its_count(tmp_path, monkeypatch):
    """OpenBLAS runs on one thread during every step, and its count is
    restored after pretrain, also when pretrain raises TrainingDiverged."""
    controls = threads._openblas_controls()
    if controls is None:
        pytest.skip("numpy's OpenBLAS is not found")
    set_threads, get_threads = controls
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    during = []
    orig = training.adam_step

    def adam_step(*args, **kwargs):
        during.append(get_threads())
        return orig(*args, **kwargs)

    monkeypatch.setattr(training, "adam_step", adam_step)
    before = get_threads()
    set_threads(2)
    try:
        tcfg = TrainConfig(base_lr=1e-3, total_steps=2, batch_size=4, log_interval=1, rng_seed=3)
        pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, ncfg, pages, phrase)
        assert during == [1, 1] and get_threads() == 2
        diverging = TrainConfig(base_lr=1e30, total_steps=50, batch_size=8, log_interval=1,
                                clip_norm=1e18, rng_seed=3)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            pretrain(contexts, vocab, 20, mcfg, diverging, ccfg, ncfg, pages, phrase)
        assert get_threads() == 2
    finally:
        set_threads(before)


# ---------------------------------------------------------------------------
# finetune loop
# ---------------------------------------------------------------------------


def test_finetune_all_entities_runs_without_table():
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    params = ModelParams.initialize(mcfg, seed=1)
    tcfg = TrainConfig(base_lr=1e-3, total_steps=4, batch_size=4, log_interval=2,
                       softmax_mode="all_entities", rng_seed=6)
    _, rows, report = finetune(params, contexts, vocab, tcfg)
    assert report.skipped_mentions == 0
    assert len(rows) == 2


def test_finetune_skips_mentions_missing_from_alias(tmp_path):
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    params = ModelParams.initialize(mcfg, seed=1)
    # table resolves only name "n0" (entities 0 and 1); everything else skips
    table = AliasTable({"n0": [0, 1]})
    tcfg = TrainConfig(base_lr=1e-3, total_steps=2, batch_size=4, log_interval=1, rng_seed=7)
    _, _, report = finetune(params, contexts, vocab, tcfg, table)
    total_mentions = sum(1 for c in contexts for l in c.labels if l.entity is not None)
    found = sum(
        1 for c in contexts for l in c.labels
        if l.entity is not None and l.entity in table.lookup(l.surface or "")
    )
    assert report.skipped_mentions == total_mentions - found


def test_finetune_freeze_entity_embeddings():
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    params = ModelParams.initialize(mcfg, seed=1)
    frozen_before = params["ent_emb"].data.tobytes()
    tcfg = TrainConfig(base_lr=1e-2, total_steps=5, batch_size=4, log_interval=5,
                       freeze_entity_embeddings=True, softmax_mode="all_entities", rng_seed=8)
    finetune(params, contexts, vocab, tcfg)
    assert params["ent_emb"].data.tobytes() == frozen_before


def test_finetune_requires_table_in_alias_mode():
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup()
    params = ModelParams.initialize(mcfg, seed=1)
    with pytest.raises(ValueError, match="alias table"):
        finetune(params, contexts, vocab, TrainConfig())


def test_finetune_improves_training_accuracy():
    vocab, contexts, phrase, pages, mcfg, ccfg, ncfg = small_setup(n_contexts=10)
    params = ModelParams.initialize(mcfg, seed=2)
    before = all_entity_accuracy(params, contexts)
    tcfg = TrainConfig(base_lr=3e-3, total_steps=150, batch_size=10, log_interval=150,
                       bio_weight=0.0, softmax_mode="all_entities", rng_seed=9)
    params, _, _ = finetune(params, contexts, vocab, tcfg)
    after = all_entity_accuracy(params, contexts)
    assert after > before
