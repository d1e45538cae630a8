"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    all_entity_accuracy,
    as_float64,
    candidate_invariant_sweep,
    fd_group_errors,
    make_world,
    oracle_bio_loss,
    oracle_linking_loss,
    oracle_micro_f1,
    top1,
)

from elink.aliastable import RedirectCycleError, RedirectMap, resolve, table_stats
from elink.candidates import CandidateConfig
from elink.corpus import Context, EntityVocab, MentionLabel, TokenVocab
from elink.evaluation import strong_matching_micro_f1
from elink.model import (
    MentionTarget,
    ModelConfig,
    ModelParams,
    bio_decode,
    bio_encode,
    bio_loss,
    build_batch,
    encode,
    linking_loss,
    load_checkpoint,
    predict_end_to_end,
    save_checkpoint,
    span_repr,
    total_loss,
)
from elink.noising import NoiseConfig, apply_noise
from elink.seeding import derive_rng, derive_seed
from elink.training import TrainConfig, finetune, pretrain


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    """Every parameter group's analytic gradient matches central finite
    differences (step 1e-3, float64) with relative error < 1e-4 on the tiny
    model; runtime under a minute."""
    with criterion(1, "gradient suite"):
        start = time.time()
        cfg = ModelConfig(vocab_size=50, n_entities=20, d_model=8, n_layers=2,
                          n_heads=2, d_ff=16, d_entity=8, max_len=16)
        # healthy parameter magnitudes keep gradients far from the FD noise
        # floor; correctness is scale-independent
        params = as_float64(ModelParams.initialize(cfg, seed=7, init_std=0.5))
        rng = np.random.default_rng(1)
        contexts, targets = [], []
        for _ in range(2):
            toks = rng.integers(4, 50, size=10).tolist()
            contexts.append(Context(
                tokens=toks, char_offsets=[(i, i + 1) for i in range(10)], doc_id="d",
                labels=[MentionLabel((2, 3), 5, None), MentionLabel((6, 6), None, None)],
            ))
            targets.append([MentionTarget((2, 3), 5)])
        batch = build_batch(contexts, 0, targets, np.array([3, 5, 9, 11, 4]))

        errors = fd_group_errors(lambda: total_loss(params, batch, 1.0, 1.0)[0],
                                 params, h=1e-3)
        worst = max(errors.values())
        assert worst < 1e-4, sorted(errors.items(), key=lambda kv: -kv[1])[:3]
        assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 2. loss oracles
# ---------------------------------------------------------------------------


def test_criterion_2_loss_oracles():
    """linking_loss and bio_loss agree with explicit-loop brute force within
    1e-6 on 1,000 random instances."""
    with criterion(2, "loss oracles"):
        cfg = ModelConfig(vocab_size=40, n_entities=25, d_model=8, n_layers=1,
                          n_heads=2, d_ff=16, d_entity=8, max_len=16)
        params = as_float64(ModelParams.initialize(cfg, seed=3, init_std=0.5))
        rng = np.random.default_rng(17)
        for trial in range(1000):
            n_ctx = int(rng.integers(1, 3))
            contexts, targets = [], []
            for _ in range(n_ctx):
                n_tok = int(rng.integers(3, 12))
                toks = rng.integers(4, 40, size=n_tok).tolist()
                n_ment = int(rng.integers(0, min(3, (n_tok + 1) // 2) + 1))
                labels, tgt = [], []
                used = 0
                for _ in range(n_ment):
                    if used >= n_tok:
                        break
                    s = used
                    e = min(n_tok - 1, s + int(rng.integers(0, 2)))
                    used = e + 2
                    gold = int(rng.integers(0, 25))
                    labels.append(MentionLabel((s, e), gold, None))
                    tgt.append((s, e, gold))
                contexts.append(Context(tokens=toks,
                                        char_offsets=[(i, i + 1) for i in range(n_tok)],
                                        doc_id="d", labels=labels))
                targets.append(tgt)

            if trial % 2 == 0:
                cand = rng.choice(25, size=int(rng.integers(2, 8)), replace=False)
                shared = np.asarray(cand, dtype=np.int64)
                prepared = []
                for tgt in targets:
                    row = []
                    for s, e, gold in tgt:
                        if gold not in shared:
                            shared = np.append(shared, gold)
                        row.append(MentionTarget((s, e), gold))
                    prepared.append(row)
                batch = build_batch(contexts, 0, prepared, shared)
                cand_matrix = None
            else:
                prepared = []
                rows = []
                for tgt in targets:
                    row = []
                    for s, e, gold in tgt:
                        k = int(rng.integers(1, 6))
                        cands = list(rng.choice(25, size=k, replace=False))
                        if gold not in cands:
                            cands.append(gold)
                        row.append(MentionTarget((s, e), gold, candidates=np.asarray(cands)))
                        rows.append(cands)
                    prepared.append(row)
                batch = build_batch(contexts, 0, prepared)
                cand_matrix = rows

            H = encode(params, batch.tokens, batch.pad_mask)
            link, _ = linking_loss(params, H, batch)
            bio = bio_loss(params, H, batch)

            svec = (span_repr(params, H, batch.ment_ex, batch.ment_start, batch.ment_end).data
                    if len(batch.ment_ex) else np.zeros((0, cfg.d_entity)))
            score_rows, gold_positions = [], []
            for i, t in enumerate(t for row in prepared for t in row):
                if cand_matrix is None:
                    ids = batch.cand_rows
                else:
                    ids = np.asarray(cand_matrix[i])
                score_rows.append(svec[i] @ params["ent_emb"].data[ids].T)
                gold_positions.append(int(np.flatnonzero(ids == t.gold)[0]))
            expected_link = oracle_linking_loss(score_rows, gold_positions,
                                                batch.n_examples, batch.ment_ex)
            logits = H.data @ params["bio_w"].data + params["bio_b"].data
            expected_bio = oracle_bio_loss(logits, batch.bio_targets, ~batch.pad_mask)

            assert abs(link.data - expected_link) < 1e-6
            assert abs(bio.data - expected_bio) < 1e-6


# ---------------------------------------------------------------------------
# 3. overfit experiment
# ---------------------------------------------------------------------------


def test_criterion_3_overfit():
    """Pretraining on the 50-context / 200-entity fixture reaches >= 99%
    training disambiguation accuracy within 2,000 steps in under 5 minutes."""
    with criterion(3, "overfit experiment"):
        start = time.time()
        vocab, contexts, phrase, pages = make_world(n_entities=200, n_contexts=50, seed=0)
        mcfg = ModelConfig(vocab_size=len(vocab), n_entities=200, d_model=32, n_layers=2,
                           n_heads=4, d_ff=64, d_entity=32, max_len=32)
        tcfg = TrainConfig(base_lr=3e-3, total_steps=1200, batch_size=16,
                           log_interval=200, rng_seed=3)
        assert tcfg.total_steps <= 2000
        ccfg = CandidateConfig(k=16, max_page=4, max_phrase=4, min_random=4, rng_seed=5)
        ncfg = NoiseConfig(rng_seed=11)
        params, _ = pretrain(contexts, vocab, 200, mcfg, tcfg, ccfg, ncfg,
                             page_links=pages, phrase_table=phrase)
        acc = all_entity_accuracy(params, contexts)
        elapsed = time.time() - start
        assert acc >= 99.0, f"train accuracy {acc}"
        assert elapsed < 300.0, f"took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 4. generalization direction check
# ---------------------------------------------------------------------------


def test_criterion_4_pretraining_beats_scratch():
    """On a 500-context synthetic corpus with a held-out split, pretraining
    then fine-tuning beats a no-pretraining model by >= 5 points of held-out
    disambiguation accuracy, averaged over 3 seeds."""
    with criterion(4, "pretraining beats no-pretraining"):
        gaps = []
        for seed in (1, 2, 3):
            vocab, contexts, phrase, pages = make_world(n_entities=200, n_contexts=500,
                                                        seed=seed)
            pre, ft_train, held = contexts[:400], contexts[400:440], contexts[440:]
            mcfg = ModelConfig(vocab_size=len(vocab), n_entities=200, d_model=32,
                               n_layers=2, n_heads=4, d_ff=64, d_entity=32, max_len=32)
            ccfg = CandidateConfig(k=16, max_page=4, max_phrase=4, min_random=4,
                                   rng_seed=derive_seed(seed, "cand"))
            ncfg = NoiseConfig(rng_seed=derive_seed(seed, "noise"))
            pre_cfg = TrainConfig(base_lr=3e-3, total_steps=800, batch_size=16,
                                  log_interval=800, rng_seed=derive_seed(seed, "pre"))
            ft_cfg = TrainConfig(base_lr=1e-3, total_steps=150, batch_size=16,
                                 log_interval=150, bio_weight=0.0,
                                 softmax_mode="all_entities", rng_seed=derive_seed(seed, "ft"))

            params, _ = pretrain(pre, vocab, 200, mcfg, pre_cfg, ccfg, ncfg, pages, phrase)
            params, _, _ = finetune(params, ft_train, vocab, ft_cfg)
            acc_pretrained = all_entity_accuracy(params, held)

            scratch = ModelParams.initialize(mcfg, derive_seed(seed, "scratch"))
            scratch, _, _ = finetune(scratch, ft_train, vocab, ft_cfg)
            acc_scratch = all_entity_accuracy(scratch, held)
            gaps.append(acc_pretrained - acc_scratch)
        mean_gap = float(np.mean(gaps))
        assert mean_gap >= 5.0, f"gaps {gaps}"


# ---------------------------------------------------------------------------
# 5. candidate invariants
# ---------------------------------------------------------------------------


def test_criterion_5_candidate_invariants():
    """10,000 randomized assemble_candidates calls: gold containment, exact
    size k, min_random floor, and determinism all hold."""
    with criterion(5, "candidate invariants"):
        candidate_invariant_sweep(derive_rng(2024, "acceptance"), 10_000)


# ---------------------------------------------------------------------------
# 6. noise statistics
# ---------------------------------------------------------------------------


def test_criterion_6_noise_statistics():
    """Over 1e5 tokens: selected fraction within 0.15 +- 0.01; mask/random/
    keep split among selected within +-3 points of 80/10/10."""
    with criterion(6, "noise statistics"):
        vocab = TokenVocab(["[PAD]", "[UNK]", "[MASK]", "[SEP]"]
                           + [f"w{i}" for i in range(5000)])
        tokens = derive_rng(0, "tokens").integers(4, len(vocab), size=100_000)
        out, mask = apply_noise(tokens, NoiseConfig(rng_seed=77), vocab)
        n_sel = mask.sum()
        assert abs(mask.mean() - 0.15) < 0.01
        masked = (out[mask] == vocab.mask_index).mean()
        kept = (out[mask] == tokens[mask]).mean()
        randomized = 1.0 - masked - kept
        assert abs(masked - 0.80) < 0.03
        assert abs(randomized - 0.10) < 0.03
        assert abs(kept - 0.10) < 0.03


# ---------------------------------------------------------------------------
# 7. BIO roundtrip
# ---------------------------------------------------------------------------


def test_criterion_7_bio_roundtrip():
    """decode(encode(spans)) == spans for 10,000 random non-overlapping span
    sets; stray-I decoding yields valid spans for arbitrary tag sequences."""
    with criterion(7, "BIO roundtrip"):
        rng = derive_rng(7, "bio")
        for _ in range(10_000):
            length = int(rng.integers(1, 40))
            spans = []
            i = 0
            while i < length:
                if rng.random() < 0.4:
                    j = min(length - 1, i + int(rng.integers(0, 4)))
                    spans.append((i, j))
                    i = j + 2
                else:
                    i += 1
            assert bio_decode(bio_encode(spans, length)) == spans
        for _ in range(10_000):
            tags = rng.integers(0, 3, size=int(rng.integers(0, 30)))
            decoded = bio_decode(tags)
            last_end = -1
            for s, e in decoded:
                assert 0 <= s <= e < len(tags)
                assert s > last_end
                last_end = e


# ---------------------------------------------------------------------------
# 8. micro-F1 oracle
# ---------------------------------------------------------------------------


def test_criterion_8_micro_f1_oracle():
    """strong_matching_micro_f1 equals brute-force set intersection on 1,000
    random instances, and the worked example P=1/3, R=1/2, F1=0.4 holds."""
    with criterion(8, "micro-F1 oracle"):
        gold = [{(0, 1, "E1"), (3, 4, "E2")}]
        pred = [{(0, 1, "E1"), (3, 4, "E3"), (5, 5, "E4")}]
        p, r, f1 = strong_matching_micro_f1(pred, gold)
        assert p == pytest.approx(1 / 3) and r == pytest.approx(1 / 2)
        assert f1 == pytest.approx(0.4)

        rng = derive_rng(8, "f1")
        for _ in range(1000):
            n_docs = int(rng.integers(1, 6))
            pred_docs, gold_docs = [], []
            for _ in range(n_docs):
                def draw():
                    n = int(rng.integers(0, 6))
                    return {(int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                             f"E{int(rng.integers(0, 5))}") for _ in range(n)}
                pred_docs.append(draw())
                gold_docs.append(draw())
            got = strong_matching_micro_f1(pred_docs, gold_docs)
            want = oracle_micro_f1(pred_docs, gold_docs)
            assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# 9. alias-table audit
# ---------------------------------------------------------------------------


def test_criterion_9_alias_table_audit():
    """The fixture table reproduces hand-computed conversion, gold recall,
    and ambiguity exactly; redirect cycles are rejected."""
    with criterion(9, "alias-table audit"):
        evocab = EntityVocab(["New_York_City", "Washington", "Paris", "Boston"])
        redirects = RedirectMap({"NYC_page": "New_York_City", "Old_Boston": "Boston"})
        entries = [
            ("nyc", "NYC_page"),          # resolves via redirect
            ("nyc", "Washington"),        # second candidate for the alias
            ("boston", "Old_Boston"),     # resolves via redirect
            ("paris", "Paris"),           # direct hit
            ("ghost", "Missing_Page"),    # dropped: not in vocabulary
        ]
        table, report = resolve(entries, redirects, evocab)
        # hand-computed: 4 of 5 entries resolved
        assert report.n_input == 5 and report.n_resolved == 4 and report.n_dropped == 1
        assert report.conversion == pytest.approx(80.0)
        mentions = [("nyc", 0), ("NYC", 1), ("boston", 2), ("paris", 2)]
        recall, ambiguity = table_stats(table, mentions)
        # hand-computed: golds found for "nyc"->0, "NYC"->1, "paris"->2: 3 of 4
        assert recall == pytest.approx(75.0)
        # candidates returned: 2 + 2 + 1 + 1 = 6 over 4 mentions
        assert ambiguity == pytest.approx(1.5)
        with pytest.raises(RedirectCycleError):
            RedirectMap({"A": "B", "B": "C", "C": "A"})


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_run_determinism(tmp_path):
    """Two identical pretrain runs produce bytewise-identical checkpoints
    and loss logs."""
    with criterion(10, "run determinism"):
        vocab, contexts, phrase, pages = make_world(n_entities=30, n_contexts=16, seed=4)
        mcfg = ModelConfig(vocab_size=len(vocab), n_entities=30, d_model=16, n_layers=2,
                           n_heads=2, d_ff=32, d_entity=16, max_len=32)
        tcfg = TrainConfig(base_lr=1e-3, total_steps=40, batch_size=8,
                           log_interval=5, rng_seed=123)
        ccfg = CandidateConfig(k=8, max_page=2, max_phrase=2, min_random=2, rng_seed=9)
        ncfg = NoiseConfig(rng_seed=21)
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / run
            pretrain(contexts, vocab, 30, mcfg, tcfg, ccfg, ncfg, pages, phrase,
                     out_dir=str(out))
            dirs.append(out)
        for name in ("checkpoint.elck", "train_log.tsv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# 11. checkpoint roundtrip
# ---------------------------------------------------------------------------


def test_criterion_11_checkpoint_roundtrip(tmp_path):
    """save -> load -> re-evaluate yields identical predictions on a fixed
    batch (gold-span disambiguation and end-to-end)."""
    with criterion(11, "checkpoint roundtrip"):
        vocab, contexts, phrase, pages = make_world(n_entities=40, n_contexts=20, seed=6)
        mcfg = ModelConfig(vocab_size=len(vocab), n_entities=40, d_model=16, n_layers=2,
                           n_heads=2, d_ff=32, d_entity=16, max_len=32)
        tcfg = TrainConfig(base_lr=3e-3, total_steps=250, batch_size=10,
                           log_interval=250, rng_seed=5)
        ccfg = CandidateConfig(k=8, max_page=2, max_phrase=2, min_random=2, rng_seed=2)
        params, _ = pretrain(contexts, vocab, 40, mcfg, tcfg, ccfg,
                             NoiseConfig(rng_seed=1), pages, phrase)
        path = tmp_path / "model.elck"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        for ctx in contexts[:10]:
            spans = [l.span for l in ctx.labels]
            assert (top1(loaded, ctx.tokens, spans)
                    == top1(params, ctx.tokens, spans))
            before = [(span, ent) for span, ent, _ in predict_end_to_end(params, ctx.tokens)]
            after = [(span, ent) for span, ent, _ in predict_end_to_end(loaded, ctx.tokens)]
            assert before == after
