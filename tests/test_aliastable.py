"""Alias normalization, redirect resolution, and table statistics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elink.aliastable import (
    AliasTable,
    ConversionReport,
    RedirectCycleError,
    RedirectMap,
    load_alias_tsv,
    normalize_alias,
    resolve,
    table_stats,
)
from elink.corpus import EntityVocab


# ---------------------------------------------------------------------------
# normalize_alias
# ---------------------------------------------------------------------------


def test_normalize_collapses_whitespace():
    assert normalize_alias("  New   York ") == "new york"


def test_normalize_nfkc_fullwidth():
    assert normalize_alias("Ｎｙｃ") == "nyc"


@given(st.text(max_size=60))
@settings(max_examples=500, deadline=None)
def test_normalize_idempotent(s):
    once = normalize_alias(s)
    assert normalize_alias(once) == once


# ---------------------------------------------------------------------------
# redirects and resolution
# ---------------------------------------------------------------------------


@pytest.fixture
def evocab():
    return EntityVocab(["New_York_City", "Washington", "Paris"])


def test_resolve_follows_redirects(evocab):
    redirects = RedirectMap({"NYC_(page)": "NYC_old", "NYC_old": "New_York_City"})
    table, report = resolve([("nyc", "NYC_(page)")], redirects, evocab)
    assert table.lookup("nyc") == [0]
    assert report.n_resolved == 1
    assert report.conversion == 100.0


def test_resolve_drops_unknown_target(evocab):
    redirects = RedirectMap({})
    table, report = resolve(
        [("nyc", "New_York_City"), ("zzz", "Missing_Page")], redirects, evocab
    )
    assert report.n_resolved == 1
    assert report.n_dropped == 1
    assert report.conversion == 50.0
    assert table.lookup("zzz") == []


def test_redirect_cycle_rejected():
    with pytest.raises(RedirectCycleError, match="A -> B -> A"):
        RedirectMap({"A": "B", "B": "A"})


def test_redirect_self_loop_rejected():
    with pytest.raises(RedirectCycleError):
        RedirectMap({"X": "X"})


def test_resolve_without_redirects(evocab):
    table, report = resolve([("paris", "Paris")], None, evocab)
    assert table.lookup("paris") == [2]
    assert report.conversion == 100.0


def test_conversion_accounting(evocab):
    entries = [("a", "Paris"), ("a", "Washington"), ("b", "Nope"), ("c", "Paris")]
    _, report = resolve(entries, None, evocab)
    assert report.n_resolved + report.n_dropped == report.n_input == 4


def test_duplicate_targets_kept_once(evocab):
    redirects = RedirectMap({"P2": "Paris"})
    table, report = resolve([("paris", "Paris"), ("paris", "P2")], redirects, evocab)
    assert table.lookup("paris") == [2]
    assert report.n_resolved == 2  # both entries resolved; list deduplicates


def _entry_by_entry_resolve(entries, redirects, vocab):
    """Reference resolver: one entry at a time, a list and a seen-set per
    normalized alias, each target chased through the redirects on its own."""
    table: dict[str, list[int]] = {}
    seen: dict[str, set[int]] = {}
    n_resolved = n_dropped = 0
    for alias, entity_id in entries:
        target = redirects.resolve_id(entity_id) if redirects is not None else entity_id
        if target not in vocab:
            n_dropped += 1
            continue
        n_resolved += 1
        key, idx = normalize_alias(alias), vocab.get(target)
        bucket = seen.setdefault(key, set())
        if idx not in bucket:
            bucket.add(idx)
            table.setdefault(key, []).append(idx)
    return table, ConversionReport(len(entries), n_resolved, n_dropped)


# a redirect chain R2 -> R1 -> Paris, a redirect to a missing page, and
# entity ids that are neither in the vocabulary nor redirected
REDIRECTS = {"R2": "R1", "R1": "Paris", "Gone": "Missing_Page"}
ALIAS_ENTRY = st.tuples(
    st.sampled_from(["nyc", "NYC", " nyc ", "New  York", "new york", "café", "Cafe\u0301", "", " "]),
    st.sampled_from(["New_York_City", "Washington", "Paris", "R1", "R2", "Gone", "Nope", ""]),
)


@given(st.lists(ALIAS_ENTRY, max_size=30), st.booleans())
@example([], True)
@example([("NYC", "R2"), ("nyc", "Paris"), ("nyc", "R1"), (" ", "Nope"), ("", "")], True)
@settings(max_examples=300, deadline=None)
def test_resolve_matches_the_entry_by_entry_reference(entries, with_redirects):
    """Redirect chains, unknown targets, aliases that normalize alike,
    repeated (alias, entity) pairs and empty aliases or targets resolve to
    the reference's table, in its key order, and to its report."""
    vocab = EntityVocab(["New_York_City", "Washington", "Paris"])
    redirects = RedirectMap(REDIRECTS) if with_redirects else None
    table, report = resolve(entries, redirects, vocab)
    want_table, want_report = _entry_by_entry_resolve(entries, redirects, vocab)
    assert list(table.table.items()) == list(want_table.items())
    assert report == want_report


@pytest.mark.parametrize("cands", [[14, 15, 14], [3, -1]], ids=["repeated", "negative"])
def test_alias_table_rejects_a_repeated_or_negative_entity(cands):
    with pytest.raises(ValueError, match="alias 'n7'"):
        AliasTable({"n6": [1, 2], "n7": cands})


def test_lookup_normalizes_queries(evocab):
    table, _ = resolve([("New  York", "New_York_City")], None, evocab)
    assert table.lookup("  NEW   YORK ") == [0]
    assert table.lookup("new york") == [0]


@given(st.text(max_size=30))
@settings(max_examples=200, deadline=None)
def test_lookup_equals_lookup_of_normalized(s):
    table = AliasTable({normalize_alias("some alias"): [1, 2]})
    assert table.lookup(s) == table.lookup(normalize_alias(s))


# ---------------------------------------------------------------------------
# table_stats
# ---------------------------------------------------------------------------


def test_stats_fixture():
    table = AliasTable({
        "a": [0, 1, 2],
        "b": [3, 4, 5],
        "c": [6, 7, 8],
    })
    mentions = [("a", 0), ("b", 4), ("c", 9)]  # gold found for 2 of 3; 9 candidates
    recall, ambiguity = table_stats(table, mentions)
    assert recall == pytest.approx(100.0 * 2 / 3)
    assert ambiguity == pytest.approx(3.0)


def test_stats_all_lookups_empty():
    table = AliasTable({})
    recall, ambiguity = table_stats(table, [("x", 0), ("y", 1)])
    assert recall == 0.0
    assert ambiguity == 0.0


def test_stats_empty_dataset_error():
    with pytest.raises(ValueError):
        table_stats(AliasTable({}), [])


def test_stats_bounds_random():
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(50):
        # an alias table's lists are duplicate-free: keep each draw's first copy
        draws = [rng.integers(0, 20, size=rng.integers(0, 5)) for _ in range(10)]
        table = AliasTable({f"s{i}": list(dict.fromkeys(d)) for i, d in enumerate(draws)})
        mentions = [(f"s{rng.integers(0, 12)}", int(rng.integers(0, 20))) for _ in range(8)]
        recall, ambiguity = table_stats(table, mentions)
        assert 0.0 <= recall <= 100.0
        assert ambiguity >= 0.0


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def test_alias_tsv_loader(tmp_path):
    path = tmp_path / "aliases.tsv"
    path.write_text("nyc\tNew_York_City\nbig apple\tNew_York_City\n")
    assert load_alias_tsv(path) == [("nyc", "New_York_City"), ("big apple", "New_York_City")]


def test_redirect_tsv_loader(tmp_path):
    path = tmp_path / "redirects.tsv"
    path.write_text("Old\tNew\n")
    rm = RedirectMap.from_tsv(path)
    assert rm.resolve_id("Old") == "New"
    assert rm.resolve_id("Other") == "Other"
