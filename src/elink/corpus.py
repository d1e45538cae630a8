"""Corpus construction: documents, tokenization, chunking, and context files.

Raw documents carry character-offset mentions. Each document is tokenized
once with a deterministic simplified tokenizer (NFKC + lowercase,
whitespace/punctuation split), and its mentions are aligned to those tokens
once: a mention's tokens are the run of tokens it overlaps. Every context (a
chunk, a sentence or a window around a mention) is a run of whole tokens cut
from that one tokenization, and takes its labels from that one alignment.
Contexts round-trip through a JSON-lines cache; `read_tsv` reads the
tab-separated table files. Every input file is read through `read_text`
(UTF-8, line ends as written) and split into lines by `split_lines`.
"""

import json
import logging
import sys
import unicodedata
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

log = logging.getLogger(__name__)

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
SEP_TOKEN = "[SEP]"
RESERVED_TOKENS = frozenset((PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, SEP_TOKEN))

CONTEXT_MODES = ("none", "title", "title_lead2")

# Sentinel offset for tokens that were prepended (title/lead sentences,
# separators) and therefore have no position in the source document.
NO_OFFSET = (-1, -1)


class CorpusFormatError(ValueError):
    """Raised for malformed corpus, vocabulary and TSV table files, and for
    any input file that is not UTF-8."""


def _shown(value) -> str:
    """value as an error message shows it: JSON where it has a JSON form."""
    return json.dumps(value, default=repr)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharMention:
    """A character-offset mention; entity None encodes an unlinked span."""

    start_char: int
    end_char: int
    entity: str | None

    def __post_init__(self):
        for name in ("start_char", "end_char"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass, and is rejected too
                raise ValueError(f"{name} {_shown(value)} is not an integer")
        if not (0 <= self.start_char < self.end_char):
            raise ValueError(
                f"invalid mention range ({self.start_char}, {self.end_char})"
            )
        if self.entity is not None and type(self.entity) is not str:
            raise ValueError(f"entity {_shown(self.entity)} is not a string or null")


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str
    mentions: tuple[CharMention, ...] = ()

    def __post_init__(self):
        for name in ("doc_id", "title", "text"):
            value = getattr(self, name)
            if type(value) is not str:
                raise ValueError(f"{name} {_shown(value)} is not a string")
        object.__setattr__(self, "mentions", tuple(self.mentions))
        last_end = 0
        for m in sorted(self.mentions, key=lambda m: m.start_char):
            if m.end_char > len(self.text):
                raise ValueError(
                    f"doc {self.doc_id!r}: mention ({m.start_char},{m.end_char}) "
                    f"outside text of length {len(self.text)}"
                )
            if m.start_char < last_end:
                raise ValueError(f"doc {self.doc_id!r}: overlapping mentions")
            last_end = m.end_char


@dataclass(frozen=True)
class MentionLabel:
    """Token-level mention: inclusive span plus entity index (None = unlinked)."""

    span: tuple[int, int]
    entity: int | None
    surface: str | None = None

    def __post_init__(self):
        s, e = self.span
        if not (0 <= s <= e):
            raise ValueError(f"invalid token span {self.span}")


@dataclass
class Context:
    """A tokenized window with provenance offsets and aligned mention labels."""

    tokens: list[int]
    char_offsets: list[tuple[int, int]]
    doc_id: str
    labels: list[MentionLabel] = field(default_factory=list)

    def __post_init__(self):
        t = len(self.tokens)
        if len(self.char_offsets) != t:
            raise ValueError("tokens and char_offsets length mismatch")
        seen_end = -1
        for lab in sorted(self.labels, key=lambda l: l.span):
            s, e = lab.span
            if e >= t:
                raise ValueError(f"label span {lab.span} outside context of {t} tokens")
            if s <= seen_end:
                raise ValueError("overlapping label spans")
            seen_end = e


@dataclass
class DropCounter:
    """Why input mentions did not survive into labels. A mention overlaps
    no token (whitespace), or shares a token with an earlier mention
    (collided); or its context ends inside its tokens (straddled), cuts
    them off at max_len (truncated), or its entity is missing from the
    vocabulary (unknown_entity). Every mention is labelled or counted once."""

    straddled: int = 0
    truncated: int = 0
    whitespace: int = 0
    unknown_entity: int = 0
    collided: int = 0

    @property
    def total(self) -> int:
        return sum(vars(self).values())

    def merge(self, other: "DropCounter") -> None:
        for name, n in vars(other).items():
            setattr(self, name, getattr(self, name) + n)


# ---------------------------------------------------------------------------
# Vocabularies
# ---------------------------------------------------------------------------


class TokenVocab:
    """Ordered token vocabulary; [PAD]/[UNK]/[MASK] must be present, and no
    token but them and [SEP] may be one that tokenize never gives.

    Given the file it was read from (path, and each token's line number in
    it), an error names `path:line` of the first repeated or untokenizable
    token, or `path` for a missing reserved token.
    """

    def __init__(self, tokens, *, path=None, linenos=None):
        self.tokens = list(tokens)
        bad = _first_untokenizable(self.tokens)
        # a repeat before the first untokenizable token is named instead
        self.index = _vocab_index(self.tokens[:bad], "token", path, linenos)
        if bad is not None:
            where = "" if path is None else f"{path}:{linenos[bad]}: "
            raise CorpusFormatError(
                f"{where}token {self.tokens[bad]!r} holds whitespace or is not normalized,"
                " so tokenize never gives it"
            )
        for required in (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN):
            if required not in self.index:
                where = "" if path is None else f"{path}: "
                raise CorpusFormatError(f"{where}vocabulary is missing {required}")

    def __len__(self):
        return len(self.tokens)

    @property
    def pad_index(self) -> int:
        return self.index[PAD_TOKEN]

    @property
    def unk_index(self) -> int:
        return self.index[UNK_TOKEN]

    @property
    def mask_index(self) -> int:
        return self.index[MASK_TOKEN]

    @property
    def sep_index(self) -> int:
        if SEP_TOKEN not in self.index:
            raise CorpusFormatError(
                f"{SEP_TOKEN} is required for prepended context but absent from the vocabulary"
            )
        return self.index[SEP_TOKEN]

    @property
    def reserved_indices(self) -> frozenset:
        return frozenset(self.index[t] for t in RESERVED_TOKENS if t in self.index)

    def lookup(self, token: str) -> int:
        return self.index.get(token, self.unk_index)

    def non_reserved_ids(self):
        """Indices of tokens eligible as random noise replacements (cached)."""
        cached = getattr(self, "_non_reserved", None)
        if cached is None:
            reserved = self.reserved_indices
            cached = np.array(
                [i for i in range(len(self.tokens)) if i not in reserved], dtype=np.int64
            )
            self._non_reserved = cached
        return cached

    @classmethod
    def from_file(cls, path) -> "TokenVocab":
        lines, linenos = split_lines(read_text(path))
        return cls(lines, path=path, linenos=linenos)

    def save(self, path) -> None:
        _write_lines(path, self.tokens)


class EntityVocab:
    """Ordered entity-id vocabulary with dense indices. Given the file it
    was read from, as TokenVocab is, a repeated id names `path:line`."""

    def __init__(self, ids, *, path=None, linenos=None):
        self.ids = list(ids)
        self.index = _vocab_index(self.ids, "entity id", path, linenos)

    def __len__(self):
        return len(self.ids)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self.index

    def get(self, entity_id: str) -> int:
        return self.index[entity_id]

    @classmethod
    def from_file(cls, path) -> "EntityVocab":
        lines, linenos = split_lines(read_text(path))
        return cls(lines, path=path, linenos=linenos)

    def save(self, path) -> None:
        _write_lines(path, self.ids)


def _vocab_index(items: list, what: str, path=None, linenos=None) -> dict:
    """Each item's position in items. A repeated item raises
    CorpusFormatError; given the file path and each item's line number in
    it, the error names `path:line` of the second occurrence."""
    index = {}
    for i, x in enumerate(items):
        if index.setdefault(x, i) != i:
            where = "" if path is None else f"{path}:{linenos[i]}: "
            raise CorpusFormatError(f"{where}duplicate {what} {x!r} in vocabulary")
    return index


def _first_untokenizable(tokens: list[str]) -> int | None:
    """Index of the first non-reserved token that holds whitespace or is not
    its own normalize_token, or None. All are normalized at once, joined by
    line feeds, which NFKC and lowercasing never reach across; each token is
    checked only if that finds one."""
    plain = [t for t in tokens if t not in RESERVED_TOKENS]
    joined = "\n".join(plain)
    if joined.split() == plain and normalize_token(joined) == joined:
        return None
    for i, t in enumerate(tokens):
        if t not in RESERVED_TOKENS and (t.split() != [t] or normalize_token(t) != t):
            return i
    return None


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


def _is_punct(c: str) -> bool:
    return unicodedata.category(c)[0] in ("P", "S")


def normalize_token(s: str) -> str:
    return unicodedata.normalize("NFKC", s).lower()


def _token_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of tokens: word runs, with punctuation split off.

    A punctuation character directly between two word characters (as in
    "zzz-unknown" or "don't") stays inside the word run; any other
    punctuation character is its own token. Whitespace separates tokens and
    belongs to none.
    """
    n = len(text)

    def wordish(j: int) -> bool:
        c = text[j]
        if c.isspace():
            return False
        if not _is_punct(c):
            return True
        if j == 0 or j == n - 1:
            return False
        prev_c, next_c = text[j - 1], text[j + 1]
        return (
            not prev_c.isspace()
            and not _is_punct(prev_c)
            and not next_c.isspace()
            and not _is_punct(next_c)
        )

    spans = []
    i = 0
    while i < n:
        if text[i].isspace():
            i += 1
        elif wordish(i):
            j = i + 1
            while j < n and wordish(j):
                j += 1
            spans.append((i, j))
            i = j
        else:
            spans.append((i, i + 1))
            i += 1
    return spans


def tokenize(text: str, vocab: TokenVocab) -> tuple[list[int], list[tuple[int, int]]]:
    """Token indices plus (start, end) character offsets into `text`.

    Offsets are non-overlapping, increasing, and cover every non-whitespace
    character. Out-of-vocabulary tokens map to [UNK]. Empty text gives
    empty sequences.
    """
    spans = _token_spans(text)
    ids = [vocab.lookup(normalize_token(text[s:e])) for s, e in spans]
    return ids, spans


# ---------------------------------------------------------------------------
# Span alignment
# ---------------------------------------------------------------------------


def align_spans(
    mentions, char_offsets: list[tuple[int, int]]
) -> tuple[list[tuple["CharMention", tuple[int, int]]], int]:
    """Map character mentions to the tokens they overlap.

    Returns (list of (mention, token_span) pairs, number dropped). A
    mention's span is the inclusive run of tokens whose characters overlap
    the mention's; one that overlaps no token (whitespace only) is dropped.
    char_offsets are increasing and non-overlapping, as `tokenize` gives
    them.
    """
    starts = [s for s, _ in char_offsets]
    ends = [e for _, e in char_offsets]
    aligned = []
    dropped = 0
    for m in mentions:
        first = bisect_right(ends, m.start_char)
        last = bisect_left(starts, m.end_char) - 1
        if first > last:
            dropped += 1
            log.debug("mention (%d,%d) covers no token; dropped", m.start_char, m.end_char)
            continue
        aligned.append((m, (first, last)))
    return aligned, dropped


def drop_colliding_spans(aligned, drops: DropCounter):
    """Greedily keep mentions whose token spans do not overlap, in span order.

    Distinct character mentions can overlap one token (two mentions inside
    one word); the later one is dropped and counted as collided.
    """
    kept = []
    last_end = -1
    for m, span in sorted(aligned, key=lambda pair: pair[1]):
        if span[0] <= last_end:
            drops.collided += 1
            continue
        kept.append((m, span))
        last_end = span[1]
    return kept


# ---------------------------------------------------------------------------
# Context construction
# ---------------------------------------------------------------------------


class TokenizedDoc:
    """A document tokenized once, and its mentions aligned to the tokens
    once. Every context builder cuts its runs of whole tokens from these ids
    and offsets, and takes its labels from `spans`; none tokenizes or aligns
    a character range of its own.

    `spans` holds the (mention, (i, j)) pairs of align_spans that survive
    drop_colliding_spans, sorted by span; `drops` counts the document's
    dropped mentions, those two steps' and each context's alike.
    """

    def __init__(self, doc: Document, vocab: TokenVocab):
        self.doc = doc
        self.ids, self.offsets = tokenize(doc.text, vocab)
        self.starts = [s for s, _ in self.offsets]
        self.ends = [e for _, e in self.offsets]
        self.drops = DropCounter()
        aligned, self.drops.whitespace = align_spans(doc.mentions, self.offsets)
        self.spans = drop_colliding_spans(aligned, self.drops)
        self._span_starts = [i for _, (i, _) in self.spans]

    def covering(self, start: int, end: int) -> tuple[int, int]:
        """[lo, hi): the tokens that overlap text[start:end]; a token the
        range cuts is taken whole."""
        return bisect_right(self.ends, start), bisect_left(self.starts, end)

    def spans_from(self, lo: int, hi: int) -> list:
        """The spans that start in tokens [lo, hi)."""
        return self.spans[bisect_left(self._span_starts, lo) : bisect_left(self._span_starts, hi)]

    def context(
        self, lo: int, hi: int, spans, entity_vocab: EntityVocab, max_len: int, prefix=()
    ) -> Context:
        """The Context of the prefix ids (unlabelled, with no offsets) and
        then tokens [lo, hi), cut to max_len, labelled with the given spans,
        each starting in [lo, hi). A span is counted, not labelled, if it
        ends past hi (straddled) or past max_len (truncated), or if its
        entity is absent from entity_vocab (unknown_entity)."""
        shift = len(prefix) - lo
        labels = []
        for m, (i, j) in spans:
            if j >= hi:
                self.drops.straddled += 1
            elif j + shift >= max_len:
                self.drops.truncated += 1
            elif m.entity is not None and m.entity not in entity_vocab:
                self.drops.unknown_entity += 1
            else:
                entity = None if m.entity is None else entity_vocab.get(m.entity)
                surface = self.doc.text[m.start_char : m.end_char]
                labels.append(MentionLabel((i + shift, j + shift), entity, surface))
        return Context(
            tokens=(list(prefix) + self.ids[lo:hi])[:max_len],
            char_offsets=([NO_OFFSET] * len(prefix) + self.offsets[lo:hi])[:max_len],
            doc_id=self.doc.doc_id,
            labels=labels,
        )


def _chunk_cuts(toks: TokenizedDoc, joined: list[bool], chunk_chars: int, max_len: int):
    """Token indices where consecutive chunks start, then the token count.

    Each chunk is the longest run of tokens from its start that spans at
    most chunk_chars characters and holds at most max_len tokens (a single
    longer token is a chunk alone), shortened to the last cut k with
    joined[k] False; with no such cut, the run is cut where it ends.
    """
    n = len(toks.ids)
    cuts = [0]
    while cuts[-1] < n:
        lo = cuts[-1]
        fits = min(lo + max_len, bisect_right(toks.ends, toks.starts[lo] + chunk_chars))
        fits = max(fits, lo + 1)
        k = fits
        while k > lo and joined[k]:
            k -= 1
        cuts.append(k if k > lo else fits)
    return cuts


def chunk_document(
    doc: Document,
    vocab: TokenVocab,
    entity_vocab: EntityVocab,
    chunk_chars: int = 1000,
    max_len: int = 256,
) -> tuple[list[Context], DropCounter]:
    """Cut a document into consecutive chunks of whole tokens.

    Each chunk is the longest run of tokens that spans at most chunk_chars
    characters and holds at most max_len tokens; a single longer token is a
    chunk alone. A cut never falls inside a mention's token span unless
    that mention alone is over the budget; such a mention is dropped and
    counted as straddled. So the chunks partition the document's tokens and
    nothing is truncated.
    """
    if chunk_chars <= 0 or max_len <= 0:
        raise ValueError("chunk_chars and max_len must be positive")
    toks = TokenizedDoc(doc, vocab)
    # joined[k]: tokens k-1 and k lie in one mention's span, so no cut at k
    joined = [False] * (len(toks.ids) + 1)
    for _, (i, j) in toks.spans:
        joined[i + 1 : j + 1] = [True] * (j - i)
    cuts = _chunk_cuts(toks, joined, chunk_chars, max_len)
    contexts = [
        toks.context(lo, hi, toks.spans_from(lo, hi), entity_vocab, max_len)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    return contexts, toks.drops


def newline_sentences(text: str) -> list[tuple[int, int]]:
    """Character ranges of newline-delimited sentences (blank segments skipped)."""
    ranges = []
    start = 0
    for i, c in enumerate(text + "\n"):
        if c == "\n":
            if text[start:i].strip():
                ranges.append((start, i))
            start = i + 1
    return ranges


def sentence_contexts(
    doc: Document, mode: str, vocab: TokenVocab, entity_vocab: EntityVocab, max_len: int = 256
) -> tuple[list[Context], DropCounter]:
    """One evaluation context per newline-sentence of the document.

    mode "none" uses the sentence alone; "title" prepends the document
    title; "title_lead2" prepends the title and the document's first two
    newline-sentences. Prepended parts are joined with a single [SEP] token
    each and carry no labels. A sentence's context is labelled with the
    spans that start in its tokens; every token lies in some sentence.
    """
    if mode not in CONTEXT_MODES:
        raise ValueError(f"unknown context mode {mode!r}")
    toks = TokenizedDoc(doc, vocab)
    runs = [toks.covering(a, b) for a, b in newline_sentences(doc.text)]
    prefix = []
    if mode in ("title", "title_lead2"):
        prefix += tokenize(doc.title, vocab)[0] + [vocab.sep_index]
    if mode == "title_lead2":
        for lo, hi in runs[:2]:
            prefix += toks.ids[lo:hi] + [vocab.sep_index]
    contexts = [
        toks.context(lo, hi, toks.spans_from(lo, hi), entity_vocab, max_len, prefix)
        for lo, hi in runs
    ]
    return contexts, toks.drops


def utf8_offsets(text: str) -> list[int]:
    """UTF-8 byte offset of each character of text, then the total length."""
    return list(accumulate((len(c.encode("utf-8")) for c in text), initial=0))


def window_contexts(
    doc: Document,
    vocab: TokenVocab,
    entity_vocab: EntityVocab,
    window_bytes: int = 256,
    max_len: int = 256,
) -> tuple[list[Context], DropCounter]:
    """One context per mention of the document: window_bytes UTF-8 bytes
    either side of it, labelled with that mention alone. A mention dropped
    as whitespace or collided is counted in the drops and gets no context.

    The byte range snaps outward to whole characters, so the window never
    cuts a multi-byte character, and then to whole tokens.
    """
    if window_bytes <= 0:
        raise ValueError("window_bytes must be positive")
    if not doc.mentions:
        return [], DropCounter()
    toks = TokenizedDoc(doc, vocab)
    span_of = dict(toks.spans)
    byte_at = utf8_offsets(doc.text)
    contexts = []
    for m in doc.mentions:
        if m not in span_of:
            continue
        lo = max(0, byte_at[m.start_char] - window_bytes)
        hi = min(byte_at[-1], byte_at[m.end_char] + window_bytes)
        # the byte range, outward to whole characters, then to whole tokens
        lo, hi = toks.covering(bisect_right(byte_at, lo) - 1, bisect_left(byte_at, hi))
        contexts.append(toks.context(lo, hi, [(m, span_of[m])], entity_vocab, max_len))
    return contexts, toks.drops


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def read_text(path) -> str:
    """The text of a UTF-8 file, its line ends as written; a path of "-"
    reads the bytes of stdin. Every input file is read through here.

    Bytes that are not UTF-8 raise CorpusFormatError naming `path:line`
    (`<stdin>:line` for stdin), lines counted as split_lines counts them.
    """
    if path == "-":
        name, data = "<stdin>", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            name, data = path, f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        lineno = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise CorpusFormatError(
            f"{name}:{lineno}: not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None


def split_lines(text: str) -> tuple[list[str], list[int]]:
    """The non-blank lines of text, without their line ends, and the 1-based
    number of each. A line ends at "\\n", "\\r\\n" or "\\r"; a blank line is
    empty or whitespace only."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    linenos = [i for i, line in enumerate(lines, 1) if line and not line.isspace()]
    if len(linenos) < len(lines):
        lines = [lines[i - 1] for i in linenos]
    return lines, linenos


def read_tsv(path, fields: tuple[str, ...], ints: tuple[str, ...] = ()) -> list[list]:
    """The columns of a TSV file, one list per name in fields, each holding
    that cell of every non-blank line in file order. The columns named in
    ints hold int() of their cells.

    The file is split in bulk, but its first bad line, in file order,
    raises CorpusFormatError: a line without exactly one cell per field
    gives `path:line: expected a<TAB>b...`, and a cell int() rejects gives
    `path:line: <field> '<cell>' is not an integer`.
    """
    lines, linenos = split_lines(read_text(path))
    n = len(fields)
    good = next((k for k, line in enumerate(lines) if line.count("\t") != n - 1), len(lines))
    error = None if good == len(lines) else (good, f"expected {'<TAB>'.join(fields)}")
    cells = "\t".join(lines[:good]).split("\t") if good else []
    columns = [cells[j::n] for j in range(n)]
    for name in ints:
        j = fields.index(name)
        try:
            columns[j] = list(map(int, columns[j]))
        except ValueError:
            k = next(k for k, text in enumerate(columns[j]) if not _is_int(text))
            if error is None or k < error[0]:
                error = (k, f"{name} {columns[j][k]!r} is not an integer")
    if error is not None:
        raise CorpusFormatError(f"{path}:{linenos[error[0]]}: {error[1]}")
    return columns


def tsv_cell(text: str) -> str:
    """text as one TSV cell: each tab, line feed and carriage return
    becomes a space."""
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _json_lines(path, parse) -> list:
    """parse(record) for the JSON object on each non-blank line of a file,
    in file order. A line that is not a JSON object, or whose parse raises
    KeyError, TypeError or ValueError, raises CorpusFormatError naming
    path:line."""
    out = []
    lines, linenos = split_lines(read_text(path))
    for lineno, line in zip(linenos, lines):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("the line is not a JSON object")
            out.append(parse(rec))
        except KeyError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
    return out


def load_documents(path) -> list[Document]:
    """The documents of a JSON-lines file, one per non-blank line.

    Each line is a JSON object. Its doc_id and text are strings, unique
    doc_ids; its optional title is a string and its optional mentions a
    list of objects, whose start_char and end_char are JSON integers (not
    floats or booleans) and whose entity is a string or null. A malformed
    line raises CorpusFormatError naming path:line.
    """
    seen = set()

    def parse(rec: dict) -> Document:
        mentions = rec.get("mentions", [])
        if type(mentions) is not list or set(map(type, mentions)) - {dict}:
            raise ValueError("mentions is not a list of JSON objects")
        doc = Document(
            doc_id=rec["doc_id"],
            title=rec.get("title", ""),
            text=rec["text"],
            mentions=tuple(
                CharMention(m["start_char"], m["end_char"], m["entity"]) for m in mentions
            ),
        )
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        return doc

    return _json_lines(path, parse)


def save_contexts(path, contexts) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for c in contexts:
            rec = {
                "doc_id": c.doc_id,
                "tokens": c.tokens,
                "char_offsets": [list(o) for o in c.char_offsets],
                "labels": [
                    {"span": list(l.span), "entity": l.entity, "surface": l.surface}
                    for l in c.labels
                ],
            }
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_contexts(
    path, n_tokens: int | None = None, n_entities: int | None = None,
    max_len: int | None = None,
) -> list[Context]:
    """The contexts of a JSONL context cache, one per non-blank line.

    Each line is a JSON object. Its doc_id is a string; its tokens,
    char_offsets and optional labels are lists; token ids, span ends,
    non-null entity indices and both ends of each char offset pair are JSON
    integers (not floats or booleans); a label's surface is a string or
    null. Given the vocabulary sizes, every token id must lie in
    [0, n_tokens) and every label's entity index in [0, n_entities) or be
    null; given the model's max_len, a context holds at most that many
    tokens. A malformed line raises CorpusFormatError naming path:line.
    """

    def parse(rec: dict) -> Context:
        for key in ("tokens", "char_offsets", "labels"):
            if not isinstance(rec.get(key, []), list):
                raise ValueError(f"{key} is not a list")
        ctx = Context(
            tokens=list(rec["tokens"]),
            char_offsets=[tuple(o) for o in rec["char_offsets"]],
            doc_id=rec["doc_id"],
            labels=[
                MentionLabel(tuple(l["span"]), l["entity"], l.get("surface"))
                for l in rec.get("labels", [])
            ],
        )
        _check_fields(ctx, n_tokens, n_entities)
        if max_len is not None and len(ctx.tokens) > max_len:
            raise ValueError(f"{len(ctx.tokens)} tokens exceed the model's max_len {max_len}")
        return ctx

    return _json_lines(path, parse)


def _check_fields(ctx: Context, n_tokens: int | None, n_entities: int | None) -> None:
    """Raise ValueError if a field of ctx has the wrong JSON type (see
    load_contexts), or if a token id or entity index falls outside its
    vocabulary (a size of None skips that check)."""
    if type(ctx.doc_id) is not str:
        raise ValueError(f"doc_id {json.dumps(ctx.doc_id)} is not a string")
    if set(map(len, ctx.char_offsets)) - {2}:
        o = next(o for o in ctx.char_offsets if len(o) != 2)
        raise ValueError(f"char offset {json.dumps(o)} is not a pair")
    for l in ctx.labels:
        if l.surface is not None and type(l.surface) is not str:
            raise ValueError(f"surface {json.dumps(l.surface)} is not a string")
    for what, values in (
        ("token id", ctx.tokens),
        ("char offset", list(chain.from_iterable(ctx.char_offsets))),
        ("span end", [e for l in ctx.labels for e in l.span]),
        ("entity index", [l.entity for l in ctx.labels if l.entity is not None]),
    ):
        # exact types, in bulk: bool is an int subclass, and is rejected too
        if set(map(type, values)) - {int}:
            v = next(v for v in values if type(v) is not int)
            raise ValueError(f"{what} {json.dumps(v)} is not an integer")
    if n_tokens is not None and ctx.tokens:
        for t in (min(ctx.tokens), max(ctx.tokens)):
            if not 0 <= t < n_tokens:
                raise ValueError(f"token id {t} outside [0, {n_tokens})")
    if n_entities is not None:
        for l in ctx.labels:
            if l.entity is not None and not 0 <= l.entity < n_entities:
                raise ValueError(f"entity index {l.entity} outside [0, {n_entities})")
