"""Tokenization, chunking, alignment, eval contexts, and corpus files."""

import json
import re
import unicodedata
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import save_documents

from elink import corpus as cp
from elink.aliastable import RedirectMap, load_alias_tsv
from elink.candidates import PageLinks, load_phrase_table
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
    load_contexts,
    load_documents,
    newline_sentences,
    save_contexts,
    sentence_contexts,
    tokenize,
    window_contexts,
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


def _brute_force_align(mentions, char_offsets):
    """align_spans by its rule, one overlap test per token."""
    aligned, dropped = [], 0
    for m in mentions:
        overlap = [k for k, (ts, te) in enumerate(char_offsets)
                   if ts < m.end_char and te > m.start_char]
        if not overlap:
            dropped += 1
            continue
        aligned.append((m, (overlap[0], overlap[-1])))
    return aligned, dropped


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=12),
       st.lists(st.tuples(st.integers(0, 40), st.integers(1, 8)), max_size=6))
@settings(max_examples=300, deadline=None)
def test_align_spans_matches_the_brute_force_rule(gaps_widths, mentions):
    offsets, pos = [], 0
    for gap, width in gaps_widths:
        offsets.append((pos + gap, pos + gap + width))
        pos += gap + width
    ms = [CharMention(s, s + w, None) for s, w in mentions]
    assert align_spans(ms, offsets) == _brute_force_align(ms, offsets)


# ---------------------------------------------------------------------------
# chunk_document
# ---------------------------------------------------------------------------


def make_doc(n_chars, mentions=(), doc_id="d0"):
    text = " ".join("ab" for _ in range(n_chars))[:n_chars]
    return Document(doc_id=doc_id, title="T", text=text, mentions=mentions)


def test_chunk_counts(vocab, evocab):
    doc = make_doc(2500)
    contexts, _ = chunk_document(doc, vocab, evocab, chunk_chars=1000, max_len=512)
    assert len(contexts) == 3
    # whole tokens: each chunk ends on the last "ab" that fits in 1000 chars
    assert [(c.char_offsets[0][0], c.char_offsets[-1][1]) for c in contexts] == [
        (0, 998), (999, 1997), (1998, 2500)
    ]
    # at the default max_len, 256 tokens (768 chars) fill a chunk first
    contexts, _ = chunk_document(doc, vocab, evocab, chunk_chars=1000)
    assert [len(c.tokens) for c in contexts] == [256, 256, 256, 66]


def test_short_doc_single_chunk(vocab, evocab):
    contexts, _ = chunk_document(make_doc(120), vocab, evocab, chunk_chars=1000)
    assert len(contexts) == 1


def test_chunk_cut_never_splits_a_mention(vocab, evocab):
    # "ab ab ab" at 996-1004 crosses char 1000, where the 1000-char budget
    # would cut; the chunk ends before it instead
    doc = make_doc(1200, mentions=(CharMention(996, 1004, "E1"),))
    contexts, drops = chunk_document(doc, vocab, evocab, chunk_chars=1000, max_len=512)
    assert drops.total == 0
    assert contexts[0].char_offsets[-1] == (993, 995)
    assert contexts[1].labels == [MentionLabel((0, 2), 1, "ab ab ab")]


def test_straddling_mention_dropped(vocab, evocab):
    # a cut falls inside a mention only when the mention alone is over the
    # budget: here three tokens against max_len 2
    doc = make_doc(1200, mentions=(CharMention(996, 1004, "E1"),))
    contexts, drops = chunk_document(doc, vocab, evocab, chunk_chars=1000, max_len=2)
    assert drops.straddled == 1
    assert all(not c.labels for c in contexts)


def test_truncated_mention_dropped(vocab, evocab):
    # chunks never truncate, but a sentence longer than max_len is cut off
    text = " ".join(["x"] * 30)
    doc = Document("d", "T", text, mentions=(CharMention(len(text) - 1, len(text), "E1"),))
    contexts, drops = sentence_contexts(doc, "none", vocab, evocab, max_len=8)
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


def test_a_document_without_tokens_gives_no_chunk(vocab, evocab):
    doc = Document("d", "T", " \n ", mentions=(CharMention(1, 2, "E1"),))
    contexts, drops = chunk_document(doc, vocab, evocab)
    assert contexts == [] and drops.whitespace == 1


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
    # a mention covers one word, or two across the separator between them,
    # and may start in the separator before its first word; two mentions
    # inside one word share its token and collide
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
            lead = i > 0 and draw(st.booleans())
            mentions.append(CharMention(starts[i] - lead, starts[j] + len(words[j]), entity))
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


@given(doc_with_mentions(), st.integers(1, 60), st.integers(1, 16))
@settings(max_examples=300, deadline=None)
def test_chunks_partition_the_document_tokens(doc, chunk_chars, max_len):
    """The chunks concatenate to tokenize(doc.text), each within both
    budgets unless it is one longer token; without mentions to keep whole,
    each chunk but the last is as long as the budgets allow."""
    vocab = TokenVocab(RESERVED + ["yuri", "gagarin", "nyc", "a", "bb", "ccc"])
    evocab = EntityVocab(["E0", "E1"])
    ids, offsets = tokenize(doc.text, vocab)
    bare = Document(doc.doc_id, doc.title, doc.text)
    for d in (doc, bare):
        contexts, _ = chunk_document(d, vocab, evocab, chunk_chars, max_len)
        assert [t for c in contexts for t in c.tokens] == ids
        assert [o for c in contexts for o in c.char_offsets] == offsets
        for c in contexts:
            width = c.char_offsets[-1][1] - c.char_offsets[0][0]
            assert 1 <= len(c.tokens) <= max_len
            assert width <= chunk_chars or len(c.tokens) == 1
    for c, after in zip(contexts, contexts[1:]):
        longer = len(c.tokens) + 1
        assert longer > max_len or after.char_offsets[0][1] - c.char_offsets[0][0] > chunk_chars


@given(doc_with_mentions(), st.integers(5, 60), st.integers(3, 16),
       st.sampled_from(("chunk", "window", *cp.CONTEXT_MODES)))
@example(long_document(), 60, 16, "window")
@example(Document("d", "T", "yuri a\n  yuri", (CharMention(7, 13, "E0"),)), 60, 16, "chunk")
@settings(max_examples=300, deadline=None)
def test_drop_accounting_and_alignment_soundness(doc, width, max_len, builder):
    """Every mention gives one label or one drop over the document's
    contexts, in every builder; a window labels at most its own mention, and
    a mention dropped as whitespace or collided gets no window.
    A label's tokens are exactly the context's tokens that overlap its
    source mention, and its surface is that mention's text."""
    vocab = TokenVocab(RESERVED + ["yuri", "gagarin", "nyc", "a", "bb", "ccc"])
    evocab = EntityVocab(["E0", "E1"])
    sources = repeat(doc.mentions)  # the mentions each context may label
    if builder == "chunk":
        contexts, drops = chunk_document(doc, vocab, evocab, chunk_chars=width, max_len=max_len)
    elif builder == "window":
        contexts, drops = window_contexts(doc, vocab, evocab, window_bytes=width, max_len=max_len)
        # one window per mention but those dropped as whitespace or collided
        assert len(contexts) == len(doc.mentions) - drops.whitespace - drops.collided
        aligned = dict(cp.TokenizedDoc(doc, vocab).spans)
        sources = [[m] for m in doc.mentions if m in aligned]
    else:
        contexts, drops = sentence_contexts(doc, builder, vocab, evocab, max_len=max_len)
    assert sum(len(c.labels) for c in contexts) + drops.total == len(doc.mentions)
    for ctx, mentions in zip(contexts, sources):
        assert len(ctx.labels) <= len(mentions)
        for lab in ctx.labels:
            s, e = lab.span
            assert any(
                lab.surface == doc.text[m.start_char : m.end_char]
                and [k for k, (ts, te) in enumerate(ctx.char_offsets)
                     if ts < m.end_char and te > m.start_char] == list(range(s, e + 1))
                for m in mentions
            ), (lab, ctx.char_offsets)


def test_a_mention_starting_in_no_sentence_is_counted(vocab, evocab):
    # a mention of a line break alone, or of a whitespace-only line, overlaps
    # no token; one that starts on a line break labels the next line's tokens
    doc = Document("d", "T", "x y\n  \nnew york",
                   mentions=(CharMention(3, 4, "E1"), CharMention(4, 6, None),
                             CharMention(6, 15, "E2")))
    contexts, drops = sentence_contexts(doc, "none", vocab, evocab)
    assert [c.labels for c in contexts] == [[], [MentionLabel((0, 1), 2, "\nnew york")]]
    assert drops.whitespace == 2 and drops.total == 2


@pytest.mark.parametrize("builder", ["chunk", "window", *cp.CONTEXT_MODES])
def test_every_builder_labels_the_tokens_a_mention_overlaps(vocab, evocab, builder):
    """A mention's label holds exactly the document tokens it overlaps, in
    every builder and wherever its context starts; two mentions in one
    token give one label and one collided drop, and one window."""
    cases = [
        # starts in the whitespace after "y": the label takes no "y"
        (Document("d", "T", "x y\n  new york", (CharMention(4, 14, "E1"),)),
         [(1, [(6, 9), (10, 14)])], 0),
        # starts in the whitespace after "ab": the label takes no "ab"
        (Document("d", "T", "ab  cd", (CharMention(3, 6, "E1"),)), [(1, [(4, 6)])], 0),
        # one token: the first mention labels it, the second collides
        (Document("d", "T", "new-york", (CharMention(0, 3, "E1"), CharMention(4, 8, "E2"))),
         [(1, [(0, 8)])], 1),
    ]
    for doc, want, collided in cases:
        if builder == "chunk":
            contexts, drops = chunk_document(doc, vocab, evocab)
        elif builder == "window":
            contexts, drops = window_contexts(doc, vocab, evocab)
        else:
            contexts, drops = sentence_contexts(doc, builder, vocab, evocab)
        got = [(lab.entity, ctx.char_offsets[lab.span[0] : lab.span[1] + 1])
               for ctx in contexts for lab in ctx.labels]
        assert got == want, doc.text
        assert drops.collided == drops.total == collided
        if builder == "window":   # no window for the collided mention
            assert len(contexts) == len(want)


def _reference_eval_tokens(doc, sentence, mode, vocab):
    """A sentence context's tokens and offsets as they were built before a
    document was tokenized once: the title, each lead sentence and the
    sentence each tokenized as a text of their own."""
    parts = []
    if mode in ("title", "title_lead2"):
        parts.append(doc.title)
    if mode == "title_lead2":
        parts.extend(doc.text[a:b] for a, b in newline_sentences(doc.text)[:2])
    tokens, offsets = [], []
    for part in parts:
        part_ids, _ = tokenize(part, vocab)
        tokens += part_ids + [vocab.sep_index]
        offsets += [cp.NO_OFFSET] * (len(part_ids) + 1)
    ss, se = sentence
    ids, offs = tokenize(doc.text[ss:se], vocab)
    return tokens + ids, offsets + [(s + ss, e + ss) for s, e in offs]


SENTENCE_TEXT = st.text(st.sampled_from("ab yz.,-'\n\t\u00e9\u3000!"), max_size=60)


@given(SENTENCE_TEXT, SENTENCE_TEXT, st.sampled_from(cp.CONTEXT_MODES))
@settings(max_examples=300, deadline=None)
def test_sentence_contexts_equal_per_range_tokenization(title, text, mode):
    vocab = TokenVocab(RESERVED + ["a", "b", "yz", ".", ",", "-", "!", "a-b", "\u00e9"])
    doc = Document("d", title, text)
    contexts, _ = sentence_contexts(doc, mode, vocab, EntityVocab([]), max_len=10_000)
    sentences = newline_sentences(text)
    assert len(contexts) == len(sentences)
    for ctx, sent in zip(contexts, sentences):
        assert (ctx.tokens, ctx.char_offsets) == _reference_eval_tokens(doc, sent, mode, vocab)


# ---------------------------------------------------------------------------
# sentence_contexts
# ---------------------------------------------------------------------------


@pytest.fixture
def eval_doc():
    text = "x y\na b\nnew york z"
    return Document(
        "d", "yuri", text,
        mentions=(CharMention(8, 16, "E2"),),  # "new york" in the third sentence
    )


def test_eval_context_mode_none(vocab, evocab, eval_doc):
    ctx = sentence_contexts(eval_doc, "none", vocab, evocab)[0][2]
    assert ctx.tokens == [vocab.lookup(w) for w in ["new", "york", "z"]]
    assert ctx.labels == [MentionLabel((0, 1), 2, "new york")]


def test_eval_context_mode_title(vocab, evocab, eval_doc):
    ctx = sentence_contexts(eval_doc, "title", vocab, evocab)[0][2]
    expected = [vocab.lookup("yuri"), vocab.sep_index] + [
        vocab.lookup(w) for w in ["new", "york", "z"]
    ]
    assert ctx.tokens == expected
    assert ctx.labels == [MentionLabel((2, 3), 2, "new york")]
    # a mention starting on the sentence's leading space still labels only
    # sentence tokens, never the prepended [SEP]
    doc = Document("d", "yuri", "x\n  new york", mentions=(CharMention(3, 12, "E2"),))
    ctx = sentence_contexts(doc, "title", vocab, evocab)[0][1]
    assert ctx.labels == [MentionLabel((2, 3), 2, " new york")]


def test_eval_context_mode_title_lead2(vocab, evocab, eval_doc):
    ctx = sentence_contexts(eval_doc, "title_lead2", vocab, evocab)[0][2]
    words = ["yuri", "[SEP]", "x", "y", "[SEP]", "a", "b", "[SEP]", "new", "york", "z"]
    assert ctx.tokens == [vocab.lookup(w) if w != "[SEP]" else vocab.sep_index for w in words]
    assert ctx.labels == [MentionLabel((8, 9), 2, "new york")]
    # prepended tokens carry the sentinel offset
    assert ctx.char_offsets[:8].count(cp.NO_OFFSET) == 8


def test_eval_context_one_sentence_doc(vocab, evocab):
    doc = Document("d", "yuri", "a b", mentions=())
    (ctx,), _ = sentence_contexts(doc, "title_lead2", vocab, evocab)
    # title + the only lead sentence + target sentence (duplicated)
    words = ["yuri", "[SEP]", "a", "b", "[SEP]", "a", "b"]
    assert ctx.tokens == [vocab.lookup(w) if w != "[SEP]" else vocab.sep_index for w in words]


# ---------------------------------------------------------------------------
# window_contexts
# ---------------------------------------------------------------------------


def test_window_clamps_at_doc_start(vocab, evocab):
    doc = Document("d", "T", "x " * 300, mentions=(CharMention(0, 1, "E1"),))
    (ctx,), _ = window_contexts(doc, vocab, evocab, window_bytes=16)
    assert ctx.char_offsets[0][0] == 0
    assert ctx.labels[0].span == (0, 0)


def test_window_small_doc_whole_text(vocab, evocab):
    doc = Document("d", "T", "a b x", mentions=(CharMention(4, 5, "E1"),))
    (ctx,), _ = window_contexts(doc, vocab, evocab, window_bytes=256)
    assert [o for o in ctx.char_offsets] == [(0, 1), (2, 3), (4, 5)]


def test_window_bytes_each_side(vocab, evocab):
    text = "x " * 400
    start = 400  # mention "x" at char 400
    doc = Document("d", "T", text, mentions=(CharMention(start, start + 1, "E1"),))
    (ctx,), _ = window_contexts(doc, vocab, evocab, window_bytes=256, max_len=512)
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
    (ctx,), _ = window_contexts(doc, vocab, evocab, window_bytes=5)
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


def test_vocab_files_name_the_bad_line(tmp_path):
    # blank lines are skipped but counted: the repeat is on line 5 of the file
    path = tmp_path / "tokens.txt"
    path.write_text("\n".join(RESERVED[:2] + ["", "foo", "foo", RESERVED[2]]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        TokenVocab.from_file(path)
    assert str(exc.value) == f"{path}:5: duplicate token 'foo' in vocabulary"
    path.write_text("[PAD]\n\n[UNK]\nfoo\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        TokenVocab.from_file(path)
    assert str(exc.value) == f"{path}: vocabulary is missing [MASK]"
    epath = tmp_path / "entities.txt"
    epath.write_text("E1\n\n\nE0\nE1\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        EntityVocab.from_file(epath)
    assert str(exc.value) == f"{epath}:5: duplicate entity id 'E1' in vocabulary"


@pytest.mark.parametrize("lines, lineno, shown", [
    (["Yuri", "gagarin"], 5, "'Yuri'"),             # lowercasing changes it
    (["yuri ", "gagarin"], 5, "'yuri '"),           # holds whitespace
    (["yuri", "ga garin"], 6, "'ga garin'"),
    (["yuri", "ｙｕｒｉ"], 6, "'ｙｕｒｉ'"),            # NFKC changes it
    (["yuri", "yuri", "Yuri"], 6, "duplicate token 'yuri'"),   # the repeat comes first
    (["Yuri", "yuri", "yuri"], 5, "'Yuri'"),        # the bad entry comes first
])
def test_token_vocab_rejects_an_entry_tokenize_cannot_give(tmp_path, lines, lineno, shown):
    """An entry other than [PAD]/[UNK]/[MASK]/[SEP] that holds whitespace
    or that NFKC and lowercasing change can never be looked up; the first
    such entry or repeat fails the file with its path:line."""
    path = tmp_path / "tokens.txt"
    path.write_text("\n".join(RESERVED + lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        TokenVocab.from_file(path)
    assert str(exc.value).startswith(f"{path}:{lineno}: ") and shown in str(exc.value)
    with pytest.raises(CorpusFormatError):
        TokenVocab(RESERVED + lines)


def test_sep_required_only_when_used():
    vocab = TokenVocab(["[PAD]", "[UNK]", "[MASK]", "w"])
    with pytest.raises(CorpusFormatError):
        _ = vocab.sep_index


TSV_EVOCAB = EntityVocab(["E0", "E1"])
# reader name -> (load(path), a good row, what that row alone loads to)
TSV_READERS = {
    "phrase_table": (lambda p: load_phrase_table(p, TSV_EVOCAB).table, "NYC\tE1\t0",
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


@pytest.mark.parametrize("bad_line, message", [
    ("[1, 2]", "the line is not a JSON object"),
    ('{"doc_id": 7, "text": "x"}', "doc_id 7 is not a string"),
])
def test_load_documents_names_a_line_of_the_wrong_shape(tmp_path, bad_line, message):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"doc_id": "a", "title": "", "text": "x", "mentions": []}\n' + bad_line + "\n")
    with pytest.raises(CorpusFormatError) as exc:
        load_documents(path)
    assert str(exc.value) == f"{path}:2: {message}"


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


@pytest.mark.parametrize("field, value, message", [
    ("token", -1, "token id -1 outside"),
    ("token", 10**7, "token id 10000000 outside"),
    ("entity", 10**7, "entity index 10000000 outside"),
    ("entity", -1, "entity index -1 outside"),
])
def test_load_contexts_checks_ids_against_the_vocabulary_sizes(tmp_path, field, value, message):
    """An id outside its vocabulary fails with path:line once the sizes are
    given; without them the file loads as written."""
    good = Context(tokens=[4, 5, 6], char_offsets=[(0, 1), (2, 3), (4, 5)], doc_id="d",
                   labels=[MentionLabel((0, 1), 2, "yuri gagarin")])
    bad = Context(tokens=[4, value, 6] if field == "token" else [4, 5, 6],
                  char_offsets=good.char_offsets, doc_id="e",
                  labels=[MentionLabel((0, 1), value if field == "entity" else 2, "x")])
    path = tmp_path / "cache.jsonl"
    save_contexts(path, [good, bad])
    assert load_contexts(path) == [good, bad]
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:2: {message}")):
        load_contexts(path, 10, 3)


@pytest.mark.parametrize("field, value, message", [
    ("token", 5.7, "token id 5.7 is not an integer"),
    ("token", True, "token id true is not an integer"),
    ("token", "5", 'token id "5" is not an integer'),
    ("span", 1.0, "span end 1.0 is not an integer"),
    ("entity", 1.9, "entity index 1.9 is not an integer"),
    ("entity", False, "entity index false is not an integer"),
])
def test_load_contexts_rejects_ids_that_are_not_integers(tmp_path, field, value, message):
    """A float, boolean or string where an id belongs fails with path:line,
    with or without the vocabulary sizes; batching would truncate 5.7 to 5
    and take true as 1."""
    good = Context(tokens=[4, 5, 6], char_offsets=[(0, 1), (2, 3), (4, 5)], doc_id="d",
                   labels=[MentionLabel((0, 1), 2, "yuri gagarin")])
    bad = Context(tokens=[4, value, 6] if field == "token" else [4, 5, 6],
                  char_offsets=good.char_offsets, doc_id="e",
                  labels=[MentionLabel((0, value) if field == "span" else (0, 1),
                                       value if field == "entity" else 2, "x")])
    path = tmp_path / "cache.jsonl"
    save_contexts(path, [good, bad])
    for sizes in ((), (10, 3)):
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:2: {message}")):
            load_contexts(path, *sizes)


def test_load_contexts_accepts_ids_at_the_vocabulary_edges(tmp_path):
    ctx = Context(tokens=[0, 9], char_offsets=[(0, 1), (2, 3)], doc_id="d",
                  labels=[MentionLabel((0, 0), 2), MentionLabel((1, 1), None)])
    path = tmp_path / "cache.jsonl"
    save_contexts(path, [ctx])
    assert load_contexts(path, 10, 3) == [ctx]


# A valid context file, one record per line; [-1, -1] marks a prepended token.
VALID_RECORDS = [
    {"doc_id": "d0", "tokens": [4, 5, 6], "char_offsets": [[0, 1], [2, 3], [4, 5]],
     "labels": [{"span": [0, 1], "entity": 2, "surface": "yuri gagarin"},
                {"span": [2, 2], "entity": None}]},
    {"doc_id": "d1", "tokens": [0, 9], "char_offsets": [[-1, -1], [0, 2]], "labels": []},
    {"doc_id": "d2", "tokens": [7], "char_offsets": [[3, 4]]},
]
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.integers(-2**70, 2**70),
              st.floats(), st.text(max_size=4)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(["doc_id", "tokens", "span", "entity", "surface", "x",
                                         "text", "start_char", "end_char"]),
                        kids, max_size=3),
    ),
    max_leaves=6,
)
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                    max_size=30)


def _int(v) -> bool:
    return type(v) is int  # not bool


def _denoted_context(text: str, n_tokens, n_entities):
    """The Context a non-blank context-file line denotes under the format
    load_contexts documents, or None if the line breaks that format. Each
    rule is checked on the parsed JSON, apart from the loader's code."""
    try:
        rec = json.loads(text)
    except ValueError:
        return None
    if type(rec) is not dict:
        return None
    doc_id, tokens, offsets = rec.get("doc_id"), rec.get("tokens"), rec.get("char_offsets")
    labels = rec.get("labels", [])
    if not (type(doc_id) is str and type(tokens) is list and type(offsets) is list
            and type(labels) is list and len(offsets) == len(tokens)):
        return None
    if not all(_int(t) and (n_tokens is None or 0 <= t < n_tokens) for t in tokens):
        return None
    if not all(type(o) is list and len(o) == 2 and all(map(_int, o)) for o in offsets):
        return None
    out = []
    for lab in labels:
        if type(lab) is not dict or "span" not in lab or "entity" not in lab:
            return None
        span, ent, surface = lab["span"], lab["entity"], lab.get("surface")
        if not (type(span) is list and len(span) == 2 and all(map(_int, span))
                and 0 <= span[0] <= span[1] < len(tokens)):
            return None
        if not (ent is None or _int(ent) and (n_entities is None or 0 <= ent < n_entities)):
            return None
        if not (surface is None or type(surface) is str):
            return None
        out.append(MentionLabel(tuple(span), ent, surface))
    spans = sorted(lab.span for lab in out)
    if any(b[0] <= a[1] for a, b in zip(spans, spans[1:])):
        return None
    return Context(tokens=tokens, char_offsets=[tuple(o) for o in offsets], doc_id=doc_id,
                   labels=out)


def _node_paths(node, at=()):
    """The path (keys and indices) to node and to every node inside it."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _node_paths(child, at + (key,))


def _corrupt_line(draw, rec: dict, keys=("doc_id", "tokens", "labels", "surface", "x")) -> str:
    """One line of a JSON-lines file with one random change to rec: a node
    replaced, deleted or inserted (under one of keys, in an object), the
    line cut short, or other text."""
    kind = draw(st.sampled_from(["replace", "delete", "insert", "truncate", "text"]))
    line = json.dumps(rec, ensure_ascii=False)
    if kind == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))]
    if kind == "text":
        return draw(LINE_TEXT)
    paths = list(_node_paths(rec))
    if kind == "insert":
        at = draw(st.sampled_from([p for p in paths if isinstance(_node_at(rec, p), (dict, list))]))
        node = _node_at(rec, at)
        if isinstance(node, dict):
            node[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(JSON_VALUES))
        return json.dumps(rec, ensure_ascii=False)
    at = draw(st.sampled_from(paths if kind == "replace" else paths[1:]))
    if not at:
        return json.dumps(draw(JSON_VALUES), ensure_ascii=False)
    parent = _node_at(rec, at[:-1])
    if kind == "replace":
        parent[at[-1]] = draw(JSON_VALUES)
    else:
        del parent[at[-1]]
    return json.dumps(rec, ensure_ascii=False)


def _node_at(rec, path):
    for key in path:
        rec = rec[key]
    return rec


@given(st.data(), st.sampled_from([(10, 3), (None, None)]))
@settings(max_examples=300, deadline=None)
def test_load_contexts_under_a_random_corruption(tmp_path_factory, data, sizes):
    """One random change to one line of a valid context file: the file
    either loads to the contexts it denotes (the change kept the format) or
    raises CorpusFormatError naming that line. It never raises anything
    else, and never loads a line that breaks the format."""
    lines = [json.dumps(rec) for rec in VALID_RECORDS]
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = _corrupt_line(data.draw, json.loads(lines[i]))
    path = tmp_path_factory.mktemp("corrupt") / "cache.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want, bad = [], None
    for lineno, text in enumerate(lines, 1):
        if text.strip():
            ctx = _denoted_context(text, *sizes)
            if ctx is None:
                bad = lineno
                break
            want.append(ctx)
    try:
        got = load_contexts(path, *sizes)
    except CorpusFormatError as exc:
        assert bad is not None and str(exc).startswith(f"{path}:{bad}: "), str(exc)
    else:
        assert bad is None and got == want


VALID_DOCUMENTS = [
    {"doc_id": "a", "title": "Yuri", "text": "yuri gagarin flew", "mentions": [
        {"start_char": 0, "end_char": 12, "entity": "E1"},
        {"start_char": 13, "end_char": 17, "entity": None}]},
    {"doc_id": "b", "text": "x", "mentions": []},
    {"doc_id": "c", "title": "", "text": "new york"},
]
DOCUMENT_KEYS = ("doc_id", "title", "text", "mentions", "start_char", "end_char", "entity", "x")


def _denoted_document(text: str):
    """The Document a non-blank documents-file line denotes under the format
    load_documents documents, or None if the line breaks that format. Each
    rule is checked on the parsed JSON, apart from the loader's code."""
    try:
        rec = json.loads(text)
    except ValueError:
        return None
    if type(rec) is not dict:
        return None
    doc_id, title, body = rec.get("doc_id"), rec.get("title", ""), rec.get("text")
    mentions = rec.get("mentions", [])
    if not (type(doc_id) is str and type(title) is str and type(body) is str
            and type(mentions) is list):
        return None
    out = []
    for m in mentions:
        if type(m) is not dict or not {"start_char", "end_char", "entity"} <= m.keys():
            return None
        s, e, ent = m["start_char"], m["end_char"], m["entity"]
        if not (_int(s) and _int(e) and 0 <= s < e <= len(body)):
            return None
        if not (ent is None or type(ent) is str):
            return None
        out.append(CharMention(s, e, ent))
    ranges = sorted((m.start_char, m.end_char) for m in out)
    if any(b[0] < a[1] for a, b in zip(ranges, ranges[1:])):
        return None
    return Document(doc_id, title, body, tuple(out))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_load_documents_under_a_random_corruption(tmp_path_factory, data):
    """One random change to one line of a valid documents file: the file
    either loads to the documents it denotes or raises CorpusFormatError
    naming the first bad line, a repeated doc_id included. It never raises
    anything else, and never loads a line that breaks the format."""
    lines = [json.dumps(rec) for rec in VALID_DOCUMENTS]
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = _corrupt_line(data.draw, json.loads(lines[i]), DOCUMENT_KEYS)
    path = tmp_path_factory.mktemp("corrupt") / "docs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want, bad, seen = [], None, set()
    for lineno, text in enumerate(lines, 1):
        if text.strip():
            doc = _denoted_document(text)
            if doc is None or doc.doc_id in seen:
                bad = lineno
                break
            seen.add(doc.doc_id)
            want.append(doc)
    try:
        got = load_documents(path)
    except CorpusFormatError as exc:
        assert bad is not None and str(exc).startswith(f"{path}:{bad}: "), str(exc)
    else:
        assert bad is None and got == want


# The line-based files: name -> (fields, int fields, valid rows). The four
# tables are read_tsv's shapes; a vocabulary (no fields) has one cell a row.
LINE_FILES = {
    "phrase_table": (("surface", "entity", "rank"), ("rank",),
                     ["NYC\tE1\t0", "new york\tE1\t1", "nyc\tE0\t-2"]),
    "page_links": (("doc_id", "entity_id"), (), ["d0\tE1", "d0\tE0", "d1\tE1"]),
    "alias_table": (("alias", "entity_id"), (), ["nyc\tE1", "big apple\tE1", "nyc\tE0"]),
    "redirects": (("from", "to"), (), ["E9\tE1", "E8\tE0", "E7\tE9"]),
    "token_vocab": (None, (), RESERVED + ["yuri", "gagarin"]),
    "entity_vocab": (None, (), ["E0", "E1", "E2"]),
}
CELL_TEXT = st.one_of(
    st.sampled_from(["", " ", "E1", "nyc", "[PAD]", "0", "-3", " 7", "1.5", "x\ty"]), LINE_TEXT
)
# whitespace only: no line end, but spaces, tabs and other Unicode whitespace
BLANK_TEXT = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=3)


def _corrupt_rows(draw, rows: list[str]) -> list[str]:
    """The lines of a file of tab-separated rows after one random change: a
    cell replaced, deleted or inserted, a line cut short, a line repeated,
    or blank or whitespace-only lines added."""
    cells = [row.split("\t") for row in rows]
    kind = draw(st.sampled_from(["replace", "delete", "insert", "truncate", "repeat", "blank"]))
    i = draw(st.integers(0, len(rows) - 1))
    row = cells[i]
    if kind == "replace":
        row[draw(st.integers(0, len(row) - 1))] = draw(CELL_TEXT)
    elif kind == "delete":
        del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "insert":
        row.insert(draw(st.integers(0, len(row))), draw(CELL_TEXT))
    lines = ["\t".join(row) for row in cells]
    if kind == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    elif kind == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif kind == "blank":
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(BLANK_TEXT))
    return lines


def _denoted_table(lines: list[str], fields, ints):
    """(columns, None) for the table that lines denote under read_tsv's
    format, or (None, ":<line>: ") naming its first bad line."""
    columns = [[] for _ in fields]
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(fields):
            return None, f":{lineno}: "
        for name, cell, column in zip(fields, cells, columns):
            if name in ints:
                try:
                    cell = int(cell)
                except ValueError:
                    return None, f":{lineno}: "
            column.append(cell)
    return columns, None


def _denoted_vocab(lines: list[str], required=(), tokens=False):
    """(entries, None) for the vocabulary that lines denote, one entry per
    non-blank line as written, or (None, where): ":<line>: " of the first
    repeated entry or, for tokens, of the first entry that tokenize cannot
    give (one other than RESERVED that holds whitespace or that NFKC and
    lowercasing change), else ": " if an entry in required is missing."""
    entries, seen = [], set()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        untokenizable = tokens and line not in RESERVED and (
            any(c.isspace() for c in line)
            or unicodedata.normalize("NFKC", line).lower() != line
        )
        if line in seen or untokenizable:
            return None, f":{lineno}: "
        seen.add(line)
        entries.append(line)
    if set(required) - seen:
        return None, ": "
    return entries, None


@pytest.mark.parametrize("name", list(LINE_FILES))
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_line_files_under_a_random_corruption(tmp_path_factory, name, data):
    """One random change to a valid table or vocabulary file, written with
    LF, CRLF or CR line ends: the file either loads to what an independent
    reading of its format gives, or raises CorpusFormatError naming the
    first bad line (a vocabulary missing a reserved token names only the
    path). It never raises anything else."""
    fields, ints, rows = LINE_FILES[name]
    lines = _corrupt_rows(data.draw, rows)
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    path = tmp_path_factory.mktemp("corrupt") / name
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    if fields is not None:
        want, where = _denoted_table(lines, fields, ints)
    else:
        tokens = name == "token_vocab"
        want, where = _denoted_vocab(lines, RESERVED[:3] if tokens else (), tokens)
    try:
        if fields is not None:
            got = cp.read_tsv(path, fields, ints)
        elif name == "token_vocab":
            got = TokenVocab.from_file(path).tokens
        else:
            got = EntityVocab.from_file(path).ids
    except CorpusFormatError as exc:
        assert where is not None and str(exc).startswith(f"{path}{where}"), str(exc)
    else:
        assert where is None and got == want


@pytest.mark.parametrize("mention, message", [
    ({"start_char": 0.5, "end_char": 1, "entity": "E1"}, "start_char 0.5 is not an integer"),
    ({"start_char": False, "end_char": True, "entity": "E1"}, "start_char false is not an integer"),
    ({"start_char": 0, "end_char": 1, "entity": 3}, "entity 3 is not a string or null"),
    ({"start_char": 0, "end_char": 1}, "missing key 'entity'"),
])
def test_load_documents_checks_mention_types(tmp_path, mention, message):
    path = tmp_path / "docs.jsonl"
    path.write_text(json.dumps({"doc_id": "a", "text": "xy", "mentions": [mention]}) + "\n")
    with pytest.raises(CorpusFormatError) as exc:
        load_documents(path)
    assert str(exc.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("field, value, message", [
    ("text", ["x"], 'text ["x"] is not a string'),
    ("title", 7, "title 7 is not a string"),
    ("mentions", {}, "mentions is not a list of JSON objects"),
    ("mentions", [[0, 1, "E1"]], "mentions is not a list of JSON objects"),
])
def test_load_documents_checks_document_types(tmp_path, field, value, message):
    path = tmp_path / "docs.jsonl"
    path.write_text(json.dumps({"doc_id": "a", "text": "xy", field: value}) + "\n")
    with pytest.raises(CorpusFormatError) as exc:
        load_documents(path)
    assert str(exc.value) == f"{path}:1: {message}"
