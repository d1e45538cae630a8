"""Corpus construction: documents, tokenization, chunking, and context files.

Raw documents carry character-offset mentions. They are chunked into
fixed-size character windows, tokenized with a deterministic simplified
tokenizer (NFKC + lowercase, whitespace/punctuation split), and the
mentions are re-aligned to token spans. Contexts round-trip through a
JSON-lines cache; `read_tsv` reads the tab-separated table files.
"""

import json
import logging
import unicodedata
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

log = logging.getLogger(__name__)

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
SEP_TOKEN = "[SEP]"

CONTEXT_MODES = ("none", "title", "title_lead2")

# Sentinel offset for tokens that were prepended (title/lead sentences,
# separators) and therefore have no position in the source document.
NO_OFFSET = (-1, -1)


class CorpusFormatError(ValueError):
    """Raised for malformed corpus, vocabulary and TSV table files."""


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
        if not (0 <= self.start_char < self.end_char):
            raise ValueError(
                f"invalid mention range ({self.start_char}, {self.end_char})"
            )


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str
    mentions: tuple[CharMention, ...] = ()

    def __post_init__(self):
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
    """Why input mentions did not survive into aligned labels."""

    straddled: int = 0
    truncated: int = 0
    whitespace: int = 0
    unknown_entity: int = 0
    collided: int = 0

    @property
    def total(self) -> int:
        return (
            self.straddled
            + self.truncated
            + self.whitespace
            + self.unknown_entity
            + self.collided
        )

    def merge(self, other: "DropCounter") -> None:
        self.straddled += other.straddled
        self.truncated += other.truncated
        self.whitespace += other.whitespace
        self.unknown_entity += other.unknown_entity
        self.collided += other.collided


# ---------------------------------------------------------------------------
# Vocabularies
# ---------------------------------------------------------------------------


class TokenVocab:
    """Ordered token vocabulary; [PAD]/[UNK]/[MASK] must be present."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.index = {}
        for i, t in enumerate(self.tokens):
            if t in self.index:
                raise CorpusFormatError(f"duplicate token {t!r} in vocabulary")
            self.index[t] = i
        for required in (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN):
            if required not in self.index:
                raise CorpusFormatError(f"vocabulary is missing {required}")

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
        res = {self.pad_index, self.unk_index, self.mask_index}
        if SEP_TOKEN in self.index:
            res.add(self.index[SEP_TOKEN])
        return frozenset(res)

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
        return cls(_read_lines(path))

    def save(self, path) -> None:
        _write_lines(path, self.tokens)


class EntityVocab:
    """Ordered entity-id vocabulary with dense indices."""

    def __init__(self, ids):
        self.ids = list(ids)
        self.index = {}
        for i, e in enumerate(self.ids):
            if e in self.index:
                raise CorpusFormatError(f"duplicate entity id {e!r} in vocabulary")
            self.index[e] = i

    def __len__(self):
        return len(self.ids)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self.index

    def get(self, entity_id: str) -> int:
        return self.index[entity_id]

    @classmethod
    def from_file(cls, path) -> "EntityVocab":
        return cls(_read_lines(path))

    def save(self, path) -> None:
        _write_lines(path, self.ids)


def _read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.rstrip("\n")]


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
    """Map character mentions to minimal covering token spans.

    Returns (list of (mention, token_span) pairs, number dropped). A mention
    that overlaps no token (whitespace only) is dropped. The chosen span is
    expanded outward so the implied character range contains the mention
    whenever the mention starts/ends on tokenized characters.
    """
    starts = [s for s, _ in char_offsets]
    aligned = []
    dropped = 0
    for m in mentions:
        overlap = [
            i
            for i, (ts, te) in enumerate(char_offsets)
            if ts < m.end_char and te > m.start_char
        ]
        if not overlap:
            dropped += 1
            log.debug("mention (%d,%d) covers no token; dropped", m.start_char, m.end_char)
            continue
        i = bisect_right(starts, m.start_char) - 1
        if i < 0:
            i = overlap[0]
        j = overlap[-1]
        while j < len(char_offsets) - 1 and char_offsets[j][1] < m.end_char:
            j += 1
        aligned.append((m, (i, j)))
    return aligned, dropped


def drop_colliding_spans(aligned, drops: DropCounter):
    """Greedily keep mentions whose token spans do not overlap.

    Distinct character mentions can expand onto a shared token (sub-token
    adjacency, whitespace expansion); the later one is dropped and counted.
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


def _tokenize_range(text: str, start: int, end: int, vocab: TokenVocab):
    """Tokens of text[start:end], with character offsets into the whole text."""
    ids, offs = tokenize(text[start:end], vocab)
    return ids, [(s + start, e + start) for s, e in offs]


def _mentions_in(doc: Document, start: int, end: int, drops: DropCounter) -> list[CharMention]:
    """Mentions that start in [start, end); those ending past it are
    counted as straddled and left out."""
    inside = []
    for m in doc.mentions:
        if not (start <= m.start_char < end):
            continue
        if m.end_char > end:
            drops.straddled += 1
        else:
            inside.append(m)
    return inside


def _labeled_context(
    doc: Document,
    mentions,
    tokens: list[int],
    offsets: list[tuple[int, int]],
    shift: int,
    entity_vocab: EntityVocab,
    max_len: int,
    drops: DropCounter,
) -> Context:
    """The Context of tokens cut to max_len, labelled with the mentions.

    The mentions are aligned to offsets[shift:], the document's own tokens
    (any before them are prepended ones), and each drop is counted: no
    token covered, a colliding span, a span past max_len, or an entity
    absent from entity_vocab.
    """
    aligned, n_ws = align_spans(mentions, offsets[shift:])
    drops.whitespace += n_ws
    labels = []
    for m, (i, j) in drop_colliding_spans(aligned, drops):
        if j + shift >= max_len:
            drops.truncated += 1
        elif m.entity is not None and m.entity not in entity_vocab:
            drops.unknown_entity += 1
        else:
            entity = None if m.entity is None else entity_vocab.get(m.entity)
            surface = doc.text[m.start_char : m.end_char]
            labels.append(MentionLabel((i + shift, j + shift), entity, surface))
    return Context(
        tokens=tokens[:max_len], char_offsets=offsets[:max_len], doc_id=doc.doc_id, labels=labels
    )


def chunk_ranges(n_chars: int, chunk_chars: int) -> list[tuple[int, int]]:
    """Character ranges that partition [0, n_chars) into chunk_chars pieces."""
    if chunk_chars <= 0:
        raise ValueError("chunk_chars must be positive")
    return [(s, min(s + chunk_chars, n_chars)) for s in range(0, n_chars, chunk_chars)]


def chunk_document(
    doc: Document,
    vocab: TokenVocab,
    entity_vocab: EntityVocab,
    chunk_chars: int = 1000,
    max_len: int = 256,
) -> tuple[list[Context], DropCounter]:
    """Split a document into fixed-character chunks of tokenized contexts.

    Mentions are assigned to the chunk containing their start character;
    mentions that straddle a chunk boundary or whose tokens fall beyond the
    max_len truncation are dropped and counted.
    """
    drops = DropCounter()
    contexts = []
    for cs, ce in chunk_ranges(len(doc.text), chunk_chars):
        ids, offs = _tokenize_range(doc.text, cs, ce, vocab)
        mentions = _mentions_in(doc, cs, ce, drops)
        contexts.append(_labeled_context(doc, mentions, ids, offs, 0, entity_vocab, max_len, drops))
    return contexts, drops


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


def make_eval_context(
    doc: Document,
    sentence: tuple[int, int],
    mode: str,
    vocab: TokenVocab,
    entity_vocab: EntityVocab,
    max_len: int = 256,
) -> tuple[Context, DropCounter]:
    """Build one evaluation context for a newline-sentence of the document.

    mode "none" uses the sentence alone; "title" prepends the document
    title; "title_lead2" prepends the title and the document's first two
    newline-sentences. Prepended parts are joined with a single [SEP] token
    each and contribute no mention labels.
    """
    if mode not in CONTEXT_MODES:
        raise ValueError(f"unknown context mode {mode!r}")
    ss, se = sentence
    if not (0 <= ss <= se <= len(doc.text)):
        raise ValueError(f"sentence range ({ss},{se}) outside document")

    parts: list[str] = []
    if mode in ("title", "title_lead2"):
        parts.append(doc.title)
    if mode == "title_lead2":
        parts.extend(doc.text[a:b] for a, b in newline_sentences(doc.text)[:2])

    tokens: list[int] = []
    offsets: list[tuple[int, int]] = []
    for part in parts:
        part_ids, _ = tokenize(part, vocab)
        tokens.extend(part_ids)
        offsets.extend([NO_OFFSET] * len(part_ids))
        tokens.append(vocab.sep_index)
        offsets.append(NO_OFFSET)
    shift = len(tokens)

    sent_ids, sent_offs = _tokenize_range(doc.text, ss, se, vocab)
    tokens.extend(sent_ids)
    offsets.extend(sent_offs)

    drops = DropCounter()
    mentions = _mentions_in(doc, ss, se, drops)
    ctx = _labeled_context(doc, mentions, tokens, offsets, shift, entity_vocab, max_len, drops)
    return ctx, drops


def utf8_offsets(text: str) -> list[int]:
    """UTF-8 byte offset of each character of text, then the total length."""
    return list(accumulate((len(c.encode("utf-8")) for c in text), initial=0))


def window_context(
    doc: Document,
    mention: CharMention,
    vocab: TokenVocab,
    entity_vocab: EntityVocab,
    window_bytes: int = 256,
    max_len: int = 256,
    byte_at: list[int] | None = None,
) -> tuple[Context, DropCounter]:
    """Context of window_bytes UTF-8 bytes either side of a mention.

    Byte boundaries are snapped outward to whole characters, so the window
    never cuts a multi-byte character. byte_at is the document's
    `utf8_offsets`; a caller windowing many mentions of one document
    passes it in, so the table is built once rather than per mention.
    """
    if window_bytes <= 0:
        raise ValueError("window_bytes must be positive")
    if byte_at is None:
        byte_at = utf8_offsets(doc.text)
    lo = max(0, byte_at[mention.start_char] - window_bytes)
    hi = min(byte_at[-1], byte_at[mention.end_char] + window_bytes)
    cs = bisect_right(byte_at, lo) - 1
    ce = bisect_left(byte_at, hi)

    ids, offs = _tokenize_range(doc.text, cs, ce, vocab)
    drops = DropCounter()
    ctx = _labeled_context(doc, [mention], ids, offs, 0, entity_vocab, max_len, drops)
    return ctx, drops


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def read_tsv(path, fields: tuple[str, ...], ints: tuple[str, ...] = ()) -> list[list]:
    """The columns of a TSV file, one list per name in fields, each holding
    that cell of every non-blank line in file order. The columns named in
    ints hold int() of their cells.

    The file is split in bulk, but its first bad line, in file order,
    raises CorpusFormatError: a line without exactly one cell per field
    gives `path:line: expected a<TAB>b...`, and a cell int() rejects gives
    `path:line: <field> '<cell>' is not an integer`.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    linenos = [i for i, line in enumerate(lines, 1) if line.strip()]
    if len(linenos) < len(lines):
        lines = [lines[i - 1] for i in linenos]
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


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def load_documents(path) -> list[Document]:
    """Read documents from JSON-lines; duplicate doc_ids are an error."""
    docs = []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                mentions = tuple(
                    CharMention(m["start_char"], m["end_char"], m["entity"])
                    for m in rec.get("mentions", [])
                )
                doc = Document(
                    doc_id=rec["doc_id"],
                    title=rec.get("title", ""),
                    text=rec["text"],
                    mentions=mentions,
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
            if doc.doc_id in seen:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)
            docs.append(doc)
    return docs


def save_documents(path, docs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for d in docs:
            rec = {
                "doc_id": d.doc_id,
                "title": d.title,
                "text": d.text,
                "mentions": [
                    {"start_char": m.start_char, "end_char": m.end_char, "entity": m.entity}
                    for m in d.mentions
                ],
            }
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


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


def load_contexts(path) -> list[Context]:
    contexts = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                labels = [
                    MentionLabel(tuple(l["span"]), l["entity"], l.get("surface"))
                    for l in rec.get("labels", [])
                ]
                contexts.append(
                    Context(
                        tokens=list(rec["tokens"]),
                        char_offsets=[tuple(o) for o in rec["char_offsets"]],
                        doc_id=rec["doc_id"],
                        labels=labels,
                    )
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
    return contexts
