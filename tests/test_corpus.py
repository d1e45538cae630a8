"""Tokenization, chunking, alignment, eval contexts, and corpus files."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elink import corpus as cp
from elink.aliastable import RedirectMap, load_alias_tsv
from elink.candidates import PageLinks, PhraseTable
from elink.corpus import (
    CharMention,
    Context,
    CorpusFormatError,
    Document,
    EntityVocab,
    MentionLabel,
    TokenVocab,
    align_spans,
    chunk_document,
    chunk_ranges,
    load_contexts,
    load_documents,
    make_eval_context,
    newline_sentences,
    save_contexts,
    save_documents,
    tokenize,
    window_context,
)

RESERVED = ["[PAD]", "[UNK]", "[MASK]", "[SEP]"]


@pytest.fixture
def vocab():
    return TokenVocab(RESERVED + ["yuri", "gagarin", "new", "york", "x", "y", "z", "a", "b", ".", ","])


@pytest.fixture
def evocab():
    return EntityVocab([f"E{i}" for i in range(10)])


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_whitespace_split(vocab):
    ids, offsets = tokenize("Yuri Gagarin", vocab)
    assert offsets == [(0, 4), (5, 12)]
    assert ids == [vocab.lookup("yuri"), vocab.lookup("gagarin")]


def test_tokenize_empty(vocab):
    assert tokenize("", vocab) == ([], [])


def test_tokenize_oov_single_token(vocab):
    ids, offsets = tokenize("zzz-unknown", vocab)
    assert offsets == [(0, 11)]
    assert ids == [vocab.unk_index]


def test_tokenize_boundary_punctuation_split(vocab):
    ids, offsets = tokenize("new york.", vocab)
    assert offsets == [(0, 3), (4, 8), (8, 9)]
    assert ids[-1] == vocab.lookup(".")


def test_tokenize_nfkc_and_case(vocab):
    ids, offsets = tokenize("ＮＥＷ York", vocab)  # fullwidth
    assert ids == [vocab.lookup("new"), vocab.lookup("york")]
    assert offsets == [(0, 3), (4, 8)]


@given(st.text(max_size=80))
@settings(max_examples=200, deadline=None)
def test_tokenize_offsets_cover_non_whitespace(text):
    vocab = TokenVocab(RESERVED)
    _, offsets = tokenize(text, vocab)
    covered = set()
    prev_end = 0
    for s, e in offsets:
        assert s < e
        assert s >= prev_end
        prev_end = e
        covered.update(range(s, e))
    expected = {i for i, c in enumerate(text) if not c.isspace()}
    assert covered == expected


# ---------------------------------------------------------------------------
# align_spans
# ---------------------------------------------------------------------------


def test_align_exact_token(vocab):
    aligned, dropped = align_spans([CharMention(5, 12, "E1")], [(0, 4), (5, 12)])
    assert dropped == 0
    assert aligned[0][1] == (1, 1)


def test_align_expands_to_cover(vocab):
    aligned, _ = align_spans([CharMention(2, 7, "E1")], [(0, 4), (5, 12)])
    assert aligned[0][1] == (0, 1)


def test_align_whitespace_only_dropped(vocab):
    aligned, dropped = align_spans([CharMention(4, 5, "E1")], [(0, 4), (5, 12)])
    assert aligned == []
    assert dropped == 1


# ---------------------------------------------------------------------------
# chunk_document
# ---------------------------------------------------------------------------


def make_doc(n_chars, mentions=(), doc_id="d0"):
    text = " ".join("ab" for _ in range(n_chars))[:n_chars]
    return Document(doc_id=doc_id, title="T", text=text, mentions=mentions)


def test_chunk_counts(vocab, evocab):
    doc = make_doc(2500)
    contexts, _ = chunk_document(doc, vocab, evocab, chunk_chars=1000)
    assert len(contexts) == 3
    assert chunk_ranges(2500, 1000) == [(0, 1000), (1000, 2000), (2000, 2500)]


def test_short_doc_single_chunk(vocab, evocab):
    contexts, _ = chunk_document(make_doc(120), vocab, evocab, chunk_chars=1000)
    assert len(contexts) == 1


def test_straddling_mention_dropped(vocab, evocab):
    doc = make_doc(1200, mentions=(CharMention(995, 1005, "E1"),))
    contexts, drops = chunk_document(doc, vocab, evocab, chunk_chars=1000)
    assert drops.straddled == 1
    assert all(not c.labels for c in contexts)


def test_truncated_mention_dropped(vocab, evocab):
    # chunk has more tokens than max_len; a late mention's tokens are cut off
    text = " ".join(["x"] * 30)
    doc = Document("d", "T", text, mentions=(CharMention(len(text) - 1, len(text), "E1"),))
    contexts, drops = chunk_document(doc, vocab, evocab, chunk_chars=1000, max_len=8)
    assert drops.truncated == 1
    assert len(contexts[0].tokens) == 8


def test_unknown_entity_dropped(vocab, evocab):
    doc = Document("d", "T", "x y", mentions=(CharMention(0, 1, "NOPE"),))
    contexts, drops = chunk_document(doc, vocab, evocab)
    assert drops.unknown_entity == 1
    assert contexts[0].labels == []


def test_null_labeled_mention_survives(vocab, evocab):
    doc = Document("d", "T", "x y", mentions=(CharMention(0, 1, None),))
    contexts, drops = chunk_document(doc, vocab, evocab)
    assert drops.total == 0
    assert contexts[0].labels == [MentionLabel((0, 0), None, "x")]


@given(st.integers(1, 5000), st.integers(1, 997))
@settings(max_examples=200, deadline=None)
def test_chunk_ranges_partition(n_chars, chunk_chars):
    ranges = chunk_ranges(n_chars, chunk_chars)
    assert ranges[0][0] == 0
    assert ranges[-1][1] == n_chars
    for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
        assert e1 == s2
        assert e1 - s1 == chunk_chars


@st.composite
def doc_with_mentions(draw):
    words = draw(st.lists(st.sampled_from(["yuri", "gagarin", "nyc", "a", "bb", "ccc", "café"]),
                          min_size=1, max_size=40))
    seps = draw(st.lists(st.sampled_from([" ", " ", " ", "\n", "\n "]),
                         min_size=len(words), max_size=len(words)))
    starts, text = [], ""
    for w, sep in zip(words, seps):
        starts.append(len(text))
        text += w + sep
    # a mention covers one word, or two across the separator between them;
    # two mentions inside one word share its token and collide
    mentions = []
    i = 0
    while i < len(words) and len(mentions) < 6:
        n = draw(st.sampled_from(["", "one", "two", "split"]))
        entity = draw(st.sampled_from(["E0", "E1", "NOPE", None]))
        if n == "split" and len(words[i]) >= 3:
            mentions.append(CharMention(starts[i], starts[i] + 1, entity))
            mentions.append(CharMention(starts[i] + 2, starts[i] + 3, "E0"))
        elif n:
            j = min(i + (n == "two"), len(words) - 1)
            mentions.append(CharMention(starts[i], starts[j] + len(words[j]), entity))
            i = j
        i += 1
    return Document("d", "T", text, mentions=tuple(mentions))


def long_document(n_words=4000):
    """~22k characters with a mention on every fourth word, a quarter of
    them multibyte: window mode must not rebuild the byte table per mention."""
    words = ["yuri", "gagarin", "café", "a"] * (n_words // 4)
    entities = ["E0", "NOPE", None, "E1", "E0"]
    text, mentions = "", []
    for i, w in enumerate(words):
        if i % 4 == 2:
            mentions.append(CharMention(len(text), len(text) + len(w), entities[i % 5]))
        text += w + ("\n" if i % 50 == 49 else " ")
    return Document("long", "T", text, mentions=tuple(mentions))


@given(doc_with_mentions(), st.integers(5, 60), st.integers(3, 16),
       st.sampled_from(("chunk", "window", *cp.CONTEXT_MODES)))
@example(long_document(), 60, 16, "window")
@settings(max_examples=300, deadline=None)
def test_drop_accounting_and_alignment_soundness(doc, width, max_len, builder):
    """chunk: every mention gives one label or one drop; window: so does
    each mention's own window; sentence (a context mode): so does every
    mention that starts inside some sentence."""
    vocab = TokenVocab(RESERVED + ["yuri", "gagarin", "nyc", "a", "bb", "ccc"])
    evocab = EntityVocab(["E0", "E1"])
    if builder == "chunk":
        contexts, drops = chunk_document(doc, vocab, evocab, chunk_chars=width, max_len=max_len)
        n_labels = sum(len(c.labels) for c in contexts)
        assert n_labels + drops.total == len(doc.mentions)
    elif builder == "window":
        contexts = []
        byte_at = cp.utf8_offsets(doc.text)
        for m in doc.mentions:
            ctx, drops = window_context(
                doc, m, vocab, evocab, window_bytes=width, max_len=max_len, byte_at=byte_at
            )
            assert len(ctx.labels) + drops.total == 1
            contexts.append(ctx)
    else:
        sentences = newline_sentences(doc.text)
        contexts, drops = [], cp.DropCounter()
        for sent in sentences:
            ctx, d = make_eval_context(doc, sent, builder, vocab, evocab, max_len=max_len)
            contexts.append(ctx)
            drops.merge(d)
        n_labels = sum(len(c.labels) for c in contexts)
        n_starting = sum(any(s <= m.start_char < e for s, e in sentences) for m in doc.mentions)
        assert n_labels + drops.total == n_starting
    # every label's implied character range contains a source mention's range
    for ctx in contexts:
        for lab in ctx.labels:
            s, e = lab.span
            lo, hi = ctx.char_offsets[s][0], ctx.char_offsets[e][1]
            assert any(
                lo <= m.start_char and m.end_char <= hi for m in doc.mentions
            ), (lab, ctx.char_offsets)


# ---------------------------------------------------------------------------
# make_eval_context
# ---------------------------------------------------------------------------


@pytest.fixture
def eval_doc():
    text = "x y\na b\nnew york z"
    return Document(
        "d", "yuri", text,
        mentions=(CharMention(8, 16, "E2"),),  # "new york" in the third sentence
    )


def test_eval_context_mode_none(vocab, evocab, eval_doc):
    sent = newline_sentences(eval_doc.text)[2]
    ctx, _ = make_eval_context(eval_doc, sent, "none", vocab, evocab)
    assert ctx.tokens == [vocab.lookup(w) for w in ["new", "york", "z"]]
    assert ctx.labels == [MentionLabel((0, 1), 2, "new york")]


def test_eval_context_mode_title(vocab, evocab, eval_doc):
    sent = newline_sentences(eval_doc.text)[2]
    ctx, _ = make_eval_context(eval_doc, sent, "title", vocab, evocab)
    expected = [vocab.lookup("yuri"), vocab.sep_index] + [
        vocab.lookup(w) for w in ["new", "york", "z"]
    ]
    assert ctx.tokens == expected
    assert ctx.labels == [MentionLabel((2, 3), 2, "new york")]
    # a mention starting on the sentence's leading space still labels only
    # sentence tokens, never the prepended [SEP]
    doc = Document("d", "yuri", "x\n  new york", mentions=(CharMention(3, 12, "E2"),))
    ctx, _ = make_eval_context(doc, newline_sentences(doc.text)[1], "title", vocab, evocab)
    assert ctx.labels == [MentionLabel((2, 3), 2, " new york")]


def test_eval_context_mode_title_lead2(vocab, evocab, eval_doc):
    sent = newline_sentences(eval_doc.text)[2]
    ctx, _ = make_eval_context(eval_doc, sent, "title_lead2", vocab, evocab)
    words = ["yuri", "[SEP]", "x", "y", "[SEP]", "a", "b", "[SEP]", "new", "york", "z"]
    assert ctx.tokens == [vocab.lookup(w) if w != "[SEP]" else vocab.sep_index for w in words]
    assert ctx.labels == [MentionLabel((8, 9), 2, "new york")]
    # prepended tokens carry the sentinel offset
    assert ctx.char_offsets[:8].count(cp.NO_OFFSET) == 8


def test_eval_context_one_sentence_doc(vocab, evocab):
    doc = Document("d", "yuri", "a b", mentions=())
    sent = newline_sentences(doc.text)[0]
    ctx, _ = make_eval_context(doc, sent, "title_lead2", vocab, evocab)
    # title + the only lead sentence + target sentence (duplicated)
    words = ["yuri", "[SEP]", "a", "b", "[SEP]", "a", "b"]
    assert ctx.tokens == [vocab.lookup(w) if w != "[SEP]" else vocab.sep_index for w in words]


# ---------------------------------------------------------------------------
# window_context
# ---------------------------------------------------------------------------


def test_window_clamps_at_doc_start(vocab, evocab):
    doc = Document("d", "T", "x " * 300, mentions=(CharMention(0, 1, "E1"),))
    ctx, _ = window_context(doc, doc.mentions[0], vocab, evocab, window_bytes=16)
    assert ctx.char_offsets[0][0] == 0
    assert ctx.labels[0].span == (0, 0)


def test_window_small_doc_whole_text(vocab, evocab):
    doc = Document("d", "T", "a b x", mentions=(CharMention(4, 5, "E1"),))
    ctx, _ = window_context(doc, doc.mentions[0], vocab, evocab, window_bytes=256)
    assert [o for o in ctx.char_offsets] == [(0, 1), (2, 3), (4, 5)]


def test_window_bytes_each_side(vocab, evocab):
    text = "x " * 400
    start = 400  # mention "x" at char 400
    doc = Document("d", "T", text, mentions=(CharMention(start, start + 1, "E1"),))
    ctx, _ = window_context(doc, doc.mentions[0], vocab, evocab, window_bytes=256, max_len=512)
    lo = ctx.char_offsets[0][0]
    hi = ctx.char_offsets[-1][1]
    # ASCII text: bytes == chars; window spans 256 each side of the mention
    assert lo == start - 256
    assert hi >= start + 1 + 255
    assert any(lab.span for lab in ctx.labels)


def test_window_snaps_outward_on_multibyte(vocab, evocab):
    # é is 2 bytes in UTF-8; a window boundary falling inside it moves outward
    text = "é" * 40
    doc = Document("d", "T", text, mentions=(CharMention(20, 21, "E1"),))
    ctx, _ = window_context(doc, doc.mentions[0], vocab, evocab, window_bytes=5)
    lo, hi = ctx.char_offsets[0][0], ctx.char_offsets[-1][1]
    assert lo <= 18  # 5 bytes = 2.5 chars, snapped outward to 3 chars
    assert hi >= 24


# ---------------------------------------------------------------------------
# vocabularies and files
# ---------------------------------------------------------------------------


def test_vocab_requires_reserved_tokens():
    with pytest.raises(CorpusFormatError):
        TokenVocab(["[PAD]", "[UNK]"])  # no [MASK]


def test_vocab_rejects_duplicates():
    with pytest.raises(CorpusFormatError):
        TokenVocab(RESERVED + ["x", "x"])


def test_sep_required_only_when_used():
    vocab = TokenVocab(["[PAD]", "[UNK]", "[MASK]", "w"])
    with pytest.raises(CorpusFormatError):
        _ = vocab.sep_index


TSV_EVOCAB = EntityVocab(["E0", "E1"])
# reader name -> (load(path), a good row, what that row alone loads to)
TSV_READERS = {
    "phrase_table": (lambda p: PhraseTable.from_tsv(p, TSV_EVOCAB).table, "NYC\tE1\t0",
                     {"nyc": [1]}),
    "page_links": (lambda p: PageLinks.from_tsv(p, TSV_EVOCAB).links, "d0\tE1", {"d0": [1]}),
    "alias_table": (load_alias_tsv, "nyc\tE1", [("nyc", "E1")]),
    "redirects": (lambda p: RedirectMap.from_tsv(p).redirects, "E9\tE1", {"E9": "E1"}),
}


@pytest.mark.parametrize(
    "reader, bad_row, message",
    [
        ("phrase_table", "nyc\tE0", "expected surface<TAB>entity<TAB>rank"),
        ("phrase_table", "nyc\tE0\tfirst", "rank 'first' is not an integer"),
        ("page_links", "d0\tE0\t1", "expected doc_id<TAB>entity_id"),
        ("alias_table", "nyc", "expected alias<TAB>entity_id"),
        ("redirects", "E8\tE0\tE1", "expected from<TAB>to"),
    ],
)
def test_tsv_readers_skip_blank_lines_and_name_the_bad_row(tmp_path, reader, bad_row, message):
    load, row, loaded = TSV_READERS[reader]
    path = tmp_path / "table.tsv"
    path.write_text(f"\n{row}\n \t \n", encoding="utf-8")
    assert load(path) == loaded
    path.write_text(f"\n{row}\n \t \n{bad_row}\n{row}\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        load(path)
    assert str(exc.value) == f"{path}:4: {message}"


def test_vocab_file_roundtrip(tmp_path):
    vocab = TokenVocab(RESERVED + ["alpha", "beta"])
    path = tmp_path / "tokens.txt"
    vocab.save(path)
    assert TokenVocab.from_file(path).tokens == vocab.tokens
    evocab = EntityVocab(["E1", "E0"])
    epath = tmp_path / "entities.txt"
    evocab.save(epath)
    assert EntityVocab.from_file(epath).ids == ["E1", "E0"]


def test_load_documents_duplicate_id(tmp_path):
    path = tmp_path / "docs.jsonl"
    rec = {"doc_id": "a", "title": "", "text": "x", "mentions": []}
    path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(CorpusFormatError, match="duplicate doc_id"):
        load_documents(path)


def test_load_documents_malformed_line_number(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"doc_id": "a", "title": "", "text": "x", "mentions": []}\nnot json\n')
    with pytest.raises(CorpusFormatError, match=":2"):
        load_documents(path)


def test_document_rejects_overlapping_mentions():
    with pytest.raises(ValueError, match="overlap"):
        Document("d", "T", "abcdef", mentions=(CharMention(0, 3, "E"), CharMention(2, 5, "E")))


def test_document_roundtrip(tmp_path):
    docs = [
        Document("a", "T", "hello world", mentions=(CharMention(0, 5, "E0"), CharMention(6, 11, None))),
        Document("b", "U", "", mentions=()),
    ]
    path = tmp_path / "docs.jsonl"
    save_documents(path, docs)
    assert load_documents(path) == docs


@st.composite
def random_context(draw):
    n = draw(st.integers(0, 12))
    tokens = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    offsets = []
    pos = 0
    for _ in range(n):
        width = draw(st.integers(1, 4))
        offsets.append((pos, pos + width))
        pos += width + draw(st.integers(0, 2))
    labels = []
    i = 0
    while i < n:
        if draw(st.booleans()):
            j = min(n - 1, i + draw(st.integers(0, 2)))
            labels.append(
                MentionLabel((i, j), draw(st.one_of(st.none(), st.integers(0, 5))),
                             draw(st.one_of(st.none(), st.text(max_size=5))))
            )
            i = j + 2
        else:
            i += 1
    return Context(tokens=tokens, char_offsets=offsets, doc_id=draw(st.text(max_size=8)), labels=labels)


@given(st.lists(random_context(), max_size=8))
@settings(max_examples=100, deadline=None)
def test_context_cache_roundtrip(tmp_path_factory, contexts):
    path = tmp_path_factory.mktemp("ctx") / "cache.jsonl"
    save_contexts(path, contexts)
    loaded = load_contexts(path)
    assert loaded == contexts
