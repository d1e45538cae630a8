"""Synthetic linking world written as elink CLI input files.

The world keeps the planted structure of the test suite's toy world, at
benchmark scale: entities 2p and 2p+1 share the ambiguous two-token name
"n<a> n<b>" (p = 250a + b), and entity i co-occurs with its own two-token
topic "t<c> t<d>" (i = 320c + d). The token vocabulary has a fixed 30,000
entries whatever the entity count, so the encoder's shape does not change
between workloads. Everything is derived from one seed; this module imports
nothing from the tests, so editing them cannot change the benchmark inputs.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

SPECIALS = ["[PAD]", "[UNK]", "[MASK]", "[SEP]"]
NAME_BASE = 250
TOPIC_BASE = 320
VOCAB_SIZE = 30_000
N_FILLERS = VOCAB_SIZE - len(SPECIALS) - NAME_BASE - TOPIC_BASE
MAX_ENTITIES = 2 * NAME_BASE * NAME_BASE

CTX_TOKENS = (96, 128)      # inclusive token-length range of a context
CTX_MENTIONS = (6, 10)      # inclusive linked-mention range of a context
EVAL_MENTIONS = 8           # linked mentions of every held-out context
EXTRA_PAGE_LINKS = 24       # non-gold entities linked from each training page


@dataclass(frozen=True)
class WorldSpec:
    n_entities: int
    n_train: int            # training contexts, a whole number of batches
    link_chars: int         # characters of raw text in the link input
    n_disambig_all: int     # contexts for eval-disambig --candidates all
    n_disambig_alias: int   # contexts for eval-disambig --candidates alias


def entity_id(i: int) -> str:
    return f"E{i}"


def name_words(i: int) -> tuple[str, str]:
    p = i // 2
    return f"n{p // NAME_BASE}", f"n{p % NAME_BASE}"


def same_name(i: int) -> tuple[int, int]:
    """The two entities whose name entity i shares; its alias candidates."""
    return i - i % 2, i - i % 2 + 1


def topic_words(i: int) -> tuple[str, str]:
    return f"t{i // TOPIC_BASE}", f"t{i % TOPIC_BASE}"


def token_vocab() -> list[str]:
    return (
        SPECIALS
        + [f"f{i}" for i in range(N_FILLERS)]
        + [f"n{i}" for i in range(NAME_BASE)]
        + [f"t{i}" for i in range(TOPIC_BASE)]
    )


def _document(rng, n_entities: int, n_mentions: int | None = None):
    """Words of one document plus (first word, entity) per linked mention.

    The document is a shuffle of filler words, two-word names and two-word
    topics, so a name and its disambiguating topic sit anywhere in it.
    """
    length = int(rng.integers(CTX_TOKENS[0], CTX_TOKENS[1] + 1))
    if n_mentions is None:
        n_mentions = int(rng.integers(CTX_MENTIONS[0], CTX_MENTIONS[1] + 1))
    ents = rng.choice(n_entities, size=n_mentions, replace=False)
    units = [("name", int(e)) for e in ents] + [("topic", int(e)) for e in ents]
    units += [("filler", int(f)) for f in rng.integers(0, N_FILLERS, size=length - 4 * n_mentions)]
    order = rng.permutation(len(units))
    words, mentions = [], []
    for u in order:
        kind, value = units[u]
        if kind == "filler":
            words.append(f"f{value}")
        elif kind == "name":
            mentions.append((len(words), value))
            words.extend(name_words(value))
        else:
            words.extend(topic_words(value))
    return words, mentions


def _context_record(doc_id: str, words, mentions, index: dict[str, int]) -> dict:
    """A context-cache record (elink's JSONL layout) for space-joined words."""
    offsets, pos = [], 0
    for w in words:
        offsets.append([pos, pos + len(w)])
        pos += len(w) + 1
    labels = [
        {"span": [w, w + 1], "entity": e, "surface": " ".join(name_words(e))}
        for w, e in sorted(mentions)
    ]
    return {
        "doc_id": doc_id,
        "tokens": [index[w] for w in words],
        "char_offsets": offsets,
        "labels": labels,
    }


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _write_contexts(path: str, records) -> None:
    _write_lines(path, (json.dumps(r) for r in records))


@dataclass(frozen=True)
class World:
    """Paths of the written files plus the counts the checks rely on."""

    paths: dict
    n_entities: int
    vocab_size: int
    n_train_contexts: int
    train_tokens: int           # non-pad tokens over one pass of the training cache
    train_mentions: int
    link_chars: int
    disambig_all_mentions: int
    disambig_alias_mentions: int

    def facts(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "paths"}


def write_world(out_dir: str, spec: WorldSpec, seed: int) -> World:
    """Generate the world for `seed` and write every CLI input file."""
    if not 0 < spec.n_entities <= MAX_ENTITIES or spec.n_entities % 2:
        raise ValueError(f"n_entities must be even and at most {MAX_ENTITIES}")
    os.makedirs(out_dir, exist_ok=True)
    p = {
        name: os.path.join(out_dir, name)
        for name in (
            "tokens.txt", "entities.txt", "train.jsonl", "page_links.tsv",
            "phrase.tsv", "aliases.tsv", "link_input.txt",
            "disambig_all.jsonl", "disambig_alias.jsonl",
        )
    }
    tokens = token_vocab()
    index = {t: i for i, t in enumerate(tokens)}
    _write_lines(p["tokens.txt"], tokens)
    _write_lines(p["entities.txt"], (entity_id(i) for i in range(spec.n_entities)))

    pair_rows = [
        (" ".join(name_words(i)), entity_id(i), i % 2) for i in range(spec.n_entities)
    ]
    _write_lines(p["phrase.tsv"], (f"{s}\t{e}\t{r}" for s, e, r in pair_rows))
    _write_lines(p["aliases.tsv"], (f"{s}\t{e}" for s, e, _ in pair_rows))

    rng = np.random.default_rng([seed, spec.n_entities])
    train, page_rows = [], []
    for j in range(spec.n_train):
        words, mentions = _document(rng, spec.n_entities)
        doc_id = f"train{j}"
        train.append(_context_record(doc_id, words, mentions, index))
        linked = [e for _, e in mentions]
        linked += [int(e) for e in rng.choice(spec.n_entities, size=EXTRA_PAGE_LINKS, replace=False)]
        page_rows += [f"{doc_id}\t{entity_id(e)}" for e in dict.fromkeys(linked)]
    _write_contexts(p["train.jsonl"], train)
    _write_lines(p["page_links.tsv"], page_rows)

    # Whole documents, one per line, cut to exactly link_chars characters.
    link_text = ""
    while len(link_text) < spec.link_chars:
        link_text += " ".join(_document(rng, spec.n_entities)[0]) + "\n"
    link_text = link_text[: spec.link_chars]
    with open(p["link_input.txt"], "w", encoding="utf-8") as f:
        f.write(link_text)

    held_out = []
    for j in range(max(spec.n_disambig_all, spec.n_disambig_alias)):
        words, mentions = _document(rng, spec.n_entities, EVAL_MENTIONS)
        held_out.append(_context_record(f"eval{j}", words, mentions, index))
    _write_contexts(p["disambig_all.jsonl"], held_out[: spec.n_disambig_all])
    _write_contexts(p["disambig_alias.jsonl"], held_out[: spec.n_disambig_alias])

    return World(
        paths=p,
        n_entities=spec.n_entities,
        vocab_size=len(tokens),
        n_train_contexts=len(train),
        train_tokens=sum(len(r["tokens"]) for r in train),
        train_mentions=sum(len(r["labels"]) for r in train),
        link_chars=len(link_text),
        disambig_all_mentions=sum(len(r["labels"]) for r in held_out[: spec.n_disambig_all]),
        disambig_alias_mentions=sum(len(r["labels"]) for r in held_out[: spec.n_disambig_alias]),
    )
