"""Disambiguation accuracy and strong-matching micro-F1."""

import numpy as np
import pytest

from helpers import as_float64, oracle_micro_f1

from elink import evaluation as ev
from elink import model
from elink.aliastable import AliasTable
from elink.corpus import Context, EntityVocab, MentionLabel
from elink.evaluation import (
    ErrorRecord,
    disambiguation_accuracy,
    strong_matching_micro_f1,
    write_error_dump,
)
from elink.model import ModelConfig, ModelParams, encode, span_repr


# ---------------------------------------------------------------------------
# disambiguation accuracy
# ---------------------------------------------------------------------------


def test_accuracy_all_correct():
    assert disambiguation_accuracy([1, 2, 3], [1, 2, 3]) == 100.0


def test_accuracy_half():
    assert disambiguation_accuracy([1, 9], [1, 2]) == 50.0


def test_accuracy_excludes_null_golds():
    assert disambiguation_accuracy([1, 7, 2], [1, None, 2]) == 100.0


def test_accuracy_none_prediction_is_wrong():
    assert disambiguation_accuracy([None, 2], [1, 2]) == 50.0


def test_accuracy_count_mismatch():
    with pytest.raises(ValueError):
        disambiguation_accuracy([1], [1, 2])


def test_accuracy_no_labeled_mentions():
    with pytest.raises(ValueError):
        disambiguation_accuracy([None], [None])


# ---------------------------------------------------------------------------
# strong matching micro-F1
# ---------------------------------------------------------------------------


def test_f1_worked_example():
    gold = [{(0, 1, "E1"), (3, 4, "E2")}]
    pred = [{(0, 1, "E1"), (3, 4, "E3"), (5, 5, "E4")}]
    p, r, f1 = strong_matching_micro_f1(pred, gold)
    assert p == pytest.approx(1 / 3)
    assert r == pytest.approx(1 / 2)
    assert f1 == pytest.approx(0.4)


def test_f1_perfect():
    gold = [{(0, 1, "E1")}, {(2, 2, "E2")}]
    p, r, f1 = strong_matching_micro_f1(gold, gold)
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_f1_zero_when_no_overlap():
    p, r, f1 = strong_matching_micro_f1([{(0, 0, "A")}], [{(1, 1, "A")}])
    assert f1 == 0.0


def test_f1_empty_predictions():
    p, r, f1 = strong_matching_micro_f1([set()], [{(0, 0, "A")}])
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_f1_entity_must_match():
    p, r, f1 = strong_matching_micro_f1([{(0, 1, "A")}], [{(0, 1, "B")}])
    assert f1 == 0.0


def test_f1_boundary_off_by_one_removed():
    gold = [{(3, 5, "A")}]
    for shifted in [{(2, 5, "A")}, {(4, 5, "A")}, {(3, 4, "A")}, {(3, 6, "A")}]:
        _, _, f1 = strong_matching_micro_f1([shifted], gold)
        assert f1 == 0.0


def test_f1_micro_pooling_weights_by_content():
    # a duplicated document doubles its weight in the pooled score
    doc_good = ({(0, 0, "A")}, {(0, 0, "A")})
    doc_bad = ({(1, 1, "B")}, {(2, 2, "C")})
    _, _, f1_once = strong_matching_micro_f1(
        [doc_good[0], doc_bad[0]], [doc_good[1], doc_bad[1]]
    )
    _, _, f1_doubled = strong_matching_micro_f1(
        [doc_good[0], doc_good[0], doc_bad[0]], [doc_good[1], doc_good[1], doc_bad[1]]
    )
    assert f1_doubled > f1_once


def test_f1_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n_docs = rng.integers(1, 5)
        pred_docs, gold_docs = [], []
        for _ in range(n_docs):
            mk = lambda: {
                (int(s), int(s) + int(w), f"E{int(e)}")
                for s, w, e in zip(
                    rng.integers(0, 6, size=rng.integers(0, 5)),
                    rng.integers(0, 2, size=10),
                    rng.integers(0, 4, size=10),
                )
            }
            pred_docs.append(mk())
            gold_docs.append(mk())
        assert strong_matching_micro_f1(pred_docs, gold_docs) == pytest.approx(
            oracle_micro_f1(pred_docs, gold_docs)
        )


def test_f1_bounds_and_relation():
    rng = np.random.default_rng(9)
    for _ in range(100):
        pred = [{(int(i), int(i), "A") for i in rng.integers(0, 8, size=rng.integers(0, 6))}]
        gold = [{(int(i), int(i), "A") for i in rng.integers(0, 8, size=rng.integers(0, 6))}]
        p, r, f1 = strong_matching_micro_f1(pred, gold)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
        assert f1 <= max(p, r) + 1e-12
        if f1 == 0.0:
            assert not (set.union(*pred) & set.union(*gold)) or p == 0 or r == 0


def test_f1_doc_count_mismatch():
    with pytest.raises(ValueError):
        strong_matching_micro_f1([set()], [set(), set()])


def test_error_dump_keeps_a_surface_with_tabs_and_newlines_in_one_cell(tmp_path):
    path = tmp_path / "errors.tsv"
    rec = ErrorRecord(surface="New\tYork\nCity", gold="E1", top=[("E2", 1.5), ("E1", 0.25)])
    write_error_dump(path, [rec])
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    assert rows == [
        ["surface", "gold", "pred1", "score1", "pred2", "score2"],
        ["New York City", "E1", "E2", "1.500000", "E1", "0.250000"],
    ]


# ---------------------------------------------------------------------------
# run_disambiguation
# ---------------------------------------------------------------------------


def _disambig_oracle(params, contexts, vocab, table):
    """The report and error records of brute-force per-mention scoring: a
    labeled mention's context encoded on its own, its span vector scored in
    Python against every entity or its alias lookup, sorted by (-score, id)."""
    ent = params["ent_emb"].data
    golds, preds, errors, n_none = [], [], [], 0
    for ctx in contexts:
        H = encode(params, np.asarray(ctx.tokens))
        for l in (l for l in ctx.labels if l.entity is not None):
            sv = span_repr(params, H, [0], [l.span[0]], [l.span[1]]).data[0]
            ids = range(len(ent)) if table is None else table.lookup(l.surface)
            pairs = [(int(c), float(sv @ ent[c])) for c in ids]
            top = sorted(pairs, key=lambda p: (-p[1], p[0]))[:2]
            golds.append(l.entity)
            preds.append(top[0][0] if top else None)
            n_none += not top
            if preds[-1] != l.entity:
                errors.append((l.surface, vocab.ids[l.entity], [(vocab.ids[e], s) for e, s in top]))
    accuracy = 100.0 * sum(p == g for p, g in zip(preds, golds)) / len(golds)
    return {"accuracy": accuracy, "n_mentions": len(golds), "n_no_candidates": n_none}, errors


@pytest.mark.parametrize("mode", ["all", "alias"])
def test_run_disambiguation_equals_per_mention_scoring(monkeypatch, mode):
    """Five contexts (one with no linked mention, one mention without
    candidates), ranked in one rank_entities call at three rows a block,
    give the report and error records of scoring each mention alone."""
    cfg = ModelConfig(vocab_size=50, n_entities=20, d_model=8, n_layers=2, n_heads=2,
                      d_ff=16, d_entity=8, max_len=16)
    params = as_float64(ModelParams.initialize(cfg, seed=9, init_std=0.5))
    vocab = EntityVocab([f"E{i}" for i in range(cfg.n_entities)])
    table = AliasTable({"alpha": [3, 17, 8], "beta": [12], "gamma": [19, 0, 5, 11], "delta": [4, 6]})
    labels = [
        [((0, 1), 17, "alpha"), ((3, 3), 12, "beta"), ((5, 8), 6, "delta"), ((10, 10), 2, "alpha")],
        [((1, 2), None, "gamma")],
        [((0, 0), 5, "gamma"), ((2, 4), 9, "nowhere"), ((6, 6), None, "beta"), ((7, 8), 11, "gamma")],
        [((4, 5), 3, "alpha"), ((9, 13), 4, "delta")],
        [((0, 4), 12, "beta")],
    ]
    rng = np.random.default_rng(40)
    contexts = []
    for n, ls in zip((12, 6, 9, 14, 5), labels):
        contexts.append(Context(tokens=rng.integers(4, cfg.vocab_size, size=n).tolist(),
                                char_offsets=[(i, i + 1) for i in range(n)], doc_id="d",
                                labels=[MentionLabel(*label) for label in ls]))
    calls = []
    rank = ev.rank_entities
    monkeypatch.setattr(ev, "rank_entities", lambda *a, **k: calls.append(1) or rank(*a, **k))
    monkeypatch.setattr(model, "SCORE_BLOCK_VALUES", 3 * cfg.n_entities)
    table = table if mode == "alias" else None
    result = ev.run_disambiguation(params, contexts, vocab, table)
    report, errors = _disambig_oracle(params, contexts, vocab, table)
    assert len(calls) == 1
    assert result.report() == report
    assert report["n_no_candidates"] == (mode == "alias") and errors
    assert [(e.surface, e.gold, [i for i, _ in e.top]) for e in result.errors] == \
        [(surface, gold, [i for i, _ in top]) for surface, gold, top in errors]
    for got, (_, _, top) in zip(result.errors, errors):
        assert [s for _, s in got.top] == pytest.approx([s for _, s in top], rel=1e-12, abs=1e-12)
