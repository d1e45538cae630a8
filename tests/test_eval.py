"""Disambiguation accuracy and strong-matching micro-F1."""

import numpy as np
import pytest

from helpers import oracle_micro_f1

from elink.evaluation import (
    ErrorRecord,
    disambiguation_accuracy,
    strong_matching_micro_f1,
    write_error_dump,
)


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
