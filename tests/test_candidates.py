"""Candidate assembly: sources, budgets, dedup priority, in-batch union."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elink.aliastable import AliasTable, normalize_alias
from elink.candidates import (
    CandidateBudgetError,
    CandidateConfig,
    CandidateSet,
    PageLinks,
    assemble_candidates,
    batch_negatives,
    load_phrase_table,
    page_candidates,
    phrase_candidates,
    random_candidates,
)
from elink.corpus import CorpusFormatError, EntityVocab, MentionLabel
from elink.seeding import derive_rng


def lab(entity, span=(0, 0), surface=None):
    return MentionLabel(span, entity, surface)


def gold_columns(cs, labels):
    """Where each linked label's gold entity id sits in cs.entities."""
    return [cs.entities.index(l.entity) for l in labels if l.entity is not None]


@pytest.fixture
def rng():
    return derive_rng(7)


# ---------------------------------------------------------------------------
# page / phrase sources
# ---------------------------------------------------------------------------


def test_page_fewer_than_budget(rng):
    links = PageLinks({"d": [1, 2, 3]})
    assert sorted(page_candidates("d", links, 10, rng)) == [1, 2, 3]


def test_page_samples_distinct_under_budget(rng):
    links = PageLinks({"d": list(range(500))})
    picks = page_candidates("d", links, 256, rng)
    assert len(picks) == 256
    assert len(set(picks)) == 256


def test_page_unknown_doc(rng):
    assert page_candidates("nope", PageLinks({}), 5, rng) == []


def test_phrase_prefix_rule():
    table = AliasTable({"washington": [5, 9, 1, 7, 3]})
    assert phrase_candidates("washington", table, 3) == [5, 9, 1]


def test_phrase_lookup_normalizes_the_surface():
    table = AliasTable({"washington": [5, 9, 1]})
    assert phrase_candidates("  WASHINGTON ", table, 2) == phrase_candidates("washington", table, 2) == [5, 9]


def test_phrase_absent_surface():
    assert phrase_candidates("nope", AliasTable({}), 3) == []


def test_phrase_zero_budget():
    table = AliasTable({"washington": [5, 9]})
    assert phrase_candidates("washington", table, 0) == []


def test_phrase_table_tsv_rank_order(tmp_path):
    from elink.corpus import EntityVocab

    evocab = EntityVocab(["E0", "E1", "E2"])
    path = tmp_path / "phrase.tsv"
    path.write_text("NYC\tE2\t1\nnyc\tE0\t0\nnyc\tE2\t2\nnyc\tUNKNOWN\t3\n")
    table = load_phrase_table(path, evocab)
    assert table.lookup("nyc") == [0, 2]  # rank order, deduped, unknown skipped


def _row_by_row_phrase_table(path, evocab) -> dict:
    """Reference loader: one line at a time, a per-surface stable rank sort,
    then the first row of each entity."""
    rows = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) != 3:
                raise CorpusFormatError(f"{path}:{lineno}: expected surface<TAB>entity<TAB>rank")
            surface, entity, rank = cells
            try:
                rank = int(rank)
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: rank {rank!r} is not an integer")
            if entity in evocab:
                rows.setdefault(normalize_alias(surface), []).append((rank, evocab.get(entity)))
    table = {}
    for key, pairs in rows.items():
        pairs.sort(key=lambda p: p[0])
        table[key] = list(dict.fromkeys(e for _, e in pairs))
    return table


PHRASE_LINE = st.one_of(
    st.sampled_from(["", "  ", " \t "]),
    st.builds(
        "{}\t{}\t{}".format,
        st.sampled_from(["NYC", "nyc", " nyc ", "New  York", "new york", "café", "Cafe\u0301", "x"]),
        st.sampled_from(["E0", "E1", "E2", "E3", "NOPE"]),
        st.one_of(st.integers(-2, 2), st.just(2**70), st.just(" 1")),
    ),
)
BAD_PHRASE_LINE = st.sampled_from(["x\tE0\tfirst", "x\tE0", "x\tNOPE\t1.5", "a\tb\tc\td"])


def _load_outcome(load, path, evocab):
    try:
        return list(load(path, evocab).items())
    except CorpusFormatError as exc:
        return str(exc)


@given(
    st.lists(PHRASE_LINE, max_size=30),
    st.one_of(st.just([]), st.lists(st.tuples(st.integers(0, 30), BAD_PHRASE_LINE), max_size=2)),
)
@settings(max_examples=300, deadline=None)
def test_phrase_table_tsv_matches_the_row_by_row_reference(lines, bad_lines):
    """Blank and whitespace-only lines, rank ties, one (surface, entity) pair
    at several ranks, surfaces that normalize alike and unknown entities
    load to the reference's contents and key order; with bad lines, the
    first one is reported as the reference reports it."""
    for at, bad in bad_lines:
        lines.insert(at, bad)
    evocab = EntityVocab(["E0", "E1", "E2", "E3"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "phrase.tsv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines))
        want = _load_outcome(_row_by_row_phrase_table, path, evocab)
        got = _load_outcome(lambda p, v: load_phrase_table(p, v).table, path, evocab)
    assert got == want


def test_page_links_tsv_keeps_order_and_skips_unknown_entities(tmp_path, caplog):
    from elink.corpus import EntityVocab

    evocab = EntityVocab(["E0", "E1", "E2"])
    path = tmp_path / "page_links.tsv"
    path.write_text("d0\tE2\nd1\tE1\nd0\tNOPE\nd0\tE0\nd0\tE2\n")
    links = PageLinks.from_tsv(path, evocab)
    assert links.links == {"d0": [2, 0], "d1": [1]}  # file order, duplicates dropped
    assert f"page links {path}: skipped 1 rows with unknown entities" in caplog.messages


# ---------------------------------------------------------------------------
# assemble_candidates
# ---------------------------------------------------------------------------


def world(n_entities=1000):
    # page links and phrase lists that contain the golds, as real data would
    links = PageLinks({"d": list(range(0, 500))})
    phrase = AliasTable({
        "alpha": list(range(0, 400)),
        "beta": list(range(400, 800)),
    })
    return links, phrase, n_entities


def test_paper_shaped_assembly():
    links, phrase, n_ent = world()
    cfg = CandidateConfig(k=768, max_page=256, max_phrase=384, min_random=128, rng_seed=1)
    labels = [lab(3, surface="alpha"), lab(450, surface="beta")]
    cs = assemble_candidates(labels, "d", cfg, links, phrase, n_ent)
    assert len(cs.entities) == 768
    assert len(set(cs.entities)) == 768
    assert cs.entities[0] == 3 and cs.entities[1] == 450
    assert gold_columns(cs, labels) == [0, 1]
    # non-random portion is capped at k - min_random, so >= 128 randoms
    non_random_cap = 768 - 128
    randoms = len(cs.entities) - non_random_cap
    assert randoms >= 128


def test_fill_with_random_when_no_sources():
    cfg = CandidateConfig(k=16, max_page=4, max_phrase=4, min_random=4, rng_seed=2)
    labels = [lab(1), lab(2)]
    cs = assemble_candidates(labels, "d", cfg, None, None, 100)
    assert len(cs.entities) == 16
    assert cs.entities[:2] == [1, 2]
    assert len(set(cs.entities)) == 16


def _explicit_pool_fill(seen, n_entities, n, rng):
    """Brute-force oracle: draw from the explicit list of ids not in seen."""
    pool = np.array([e for e in range(n_entities) if e not in seen], dtype=np.int64)
    picks = rng.choice(len(pool), size=n, replace=False)
    return [int(pool[i]) for i in picks]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_random_fill_equals_explicit_pool(data):
    n_entities = data.draw(st.integers(1, 3000), label="n_entities")
    seen = data.draw(st.sets(st.integers(0, n_entities - 1), max_size=min(n_entities, 64)))
    if data.draw(st.booleans(), label="dense block"):
        lo = data.draw(st.integers(0, n_entities - 1))
        seen |= set(range(lo, min(n_entities, lo + 40)))
    n = data.draw(st.integers(0, n_entities - len(seen)), label="n")
    seen |= data.draw(st.sets(st.integers(n_entities, n_entities + 9)), label="out of range")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_candidates(seen, n_entities, n, got_rng)
    assert got == _explicit_pool_fill(seen, n_entities, n, want_rng)
    # the same draws leave the stream in the same place
    assert got_rng.integers(2**62) == want_rng.integers(2**62)


def test_random_fill_large_table():
    rng = np.random.default_rng(0)
    seen = set(rng.choice(100_000, size=640, replace=False).tolist())
    got = random_candidates(seen, 100_000, 128, np.random.default_rng(1))
    assert got == _explicit_pool_fill(seen, 100_000, 128, np.random.default_rng(1))


def test_budget_too_small_for_golds():
    cfg = CandidateConfig(k=4, max_page=0, max_phrase=0, min_random=0, rng_seed=0)
    labels = [lab(i) for i in range(5)]
    with pytest.raises(CandidateBudgetError, match="candidate budget too small"):
        assemble_candidates(labels, "d", cfg, None, None, 100)


def test_phrase_budget_split_evenly_with_remainder():
    links = PageLinks({})
    phrase = AliasTable({"a": [10, 11, 12, 13], "b": [20, 21, 22, 23], "c": [30, 31, 32, 33]})
    cfg = CandidateConfig(k=32, max_page=0, max_phrase=8, min_random=8, rng_seed=0)
    labels = [lab(None, surface="a"), lab(None, surface="b"), lab(None, surface="c")]
    cs = assemble_candidates(labels, "d", cfg, links, phrase, 200)
    # budgets 3, 3, 2: earliest mentions get the remainder
    assert [e for e in cs.entities if 10 <= e < 20] == [10, 11, 12]
    assert [e for e in cs.entities if 20 <= e < 30] == [20, 21, 22]
    assert [e for e in cs.entities if 30 <= e < 40] == [30, 31]


def test_dedup_priority_gold_over_sources():
    links = PageLinks({"d": [5]})
    phrase = AliasTable({"s": [5, 6]})
    cfg = CandidateConfig(k=8, max_page=2, max_phrase=2, min_random=2, rng_seed=0)
    labels = [lab(5, surface="s")]
    cs = assemble_candidates(labels, "d", cfg, links, phrase, 100)
    assert cs.entities[0] == 5
    assert cs.entities.count(5) == 1
    assert 6 in cs.entities


def test_determinism_same_seed():
    links, phrase, n_ent = world()
    cfg = CandidateConfig(k=64, max_page=16, max_phrase=16, min_random=16, rng_seed=11)
    labels = [lab(3, surface="alpha")]
    a = assemble_candidates(labels, "d", cfg, links, phrase, n_ent)
    b = assemble_candidates(labels, "d", cfg, links, phrase, n_ent)
    assert a.entities == b.entities
    assert gold_columns(a, labels) == gold_columns(b, labels)


def test_ablation_configs_expressible():
    # the candidate-source ablation arms are plain budget settings
    links, phrase, n_ent = world()
    labels = [lab(3, surface="alpha")]
    for max_page, max_phrase in ((0, 384), (256, 0), (0, 0)):
        cfg = CandidateConfig(k=768, max_page=max_page, max_phrase=max_phrase,
                              min_random=128, rng_seed=3)
        cs = assemble_candidates(labels, "d", cfg, links, phrase, n_ent)
        assert len(cs.entities) == 768
        assert cs.entities[0] == 3
        if max_page == 0 and max_phrase == 0:
            # pure random arm: nothing besides the gold comes from the tables
            non_gold = cs.entities[1:]
            assert len(set(non_gold)) == 767


def test_config_validation():
    with pytest.raises(ValueError):
        CandidateConfig(k=10, max_page=5, max_phrase=5, min_random=5)
    with pytest.raises(ValueError):
        CandidateConfig(k=-1)


# ---------------------------------------------------------------------------
# batch_negatives
# ---------------------------------------------------------------------------


def test_union_disjoint_sets():
    a = CandidateSet([1, 2, 3])
    b = CandidateSet([4, 5, 6])
    out = batch_negatives([a, b])
    assert out[0].entities == [1, 2, 3, 4, 5, 6]
    assert out[1].entities == [1, 2, 3, 4, 5, 6]
    assert gold_columns(out[0], [lab(1)]) == [0]
    assert gold_columns(out[1], [lab(6)]) == [5]


def test_union_identical_sets():
    a = CandidateSet([7, 8])
    b = CandidateSet([7, 8])
    out = batch_negatives([a, b])
    assert out[0].entities == [7, 8]
    assert gold_columns(out[1], [lab(7)]) == [0]


def test_union_batch_of_one():
    a = CandidateSet([3, 1, 2])
    (out,) = batch_negatives([a])
    assert out.entities == [3, 1, 2]
    assert gold_columns(out, [lab(None), lab(2)]) == [2]


def test_union_is_shared():
    a = CandidateSet([1, 2])
    b = CandidateSet([2, 3])
    out = batch_negatives([a, b])
    assert out[0].entities is out[1].entities


def test_union_order_is_first_appearance():
    a = CandidateSet([5, 1])
    b = CandidateSet([1, 9])
    out = batch_negatives([a, b])
    assert out[0].entities == [5, 1, 9]


# ---------------------------------------------------------------------------
# randomized invariants (scaled-down version of the acceptance sweep)
# ---------------------------------------------------------------------------


def test_randomized_invariants():
    from helpers import candidate_invariant_sweep

    candidate_invariant_sweep(derive_rng(123, "unit"), 300)


def test_adversarial_golds_outside_sources():
    # golds absent from both sources still land in the set, size stays k
    links, phrase, n_ent = world()
    cfg = CandidateConfig(k=32, max_page=8, max_phrase=8, min_random=8, rng_seed=5)
    labels = [lab(900, surface="alpha"), lab(901, surface="alpha")]
    cs = assemble_candidates(labels, "d", cfg, links, phrase, n_ent)
    assert len(cs.entities) == 32
    assert cs.entities[0] == 900 and cs.entities[1] == 901
