"""Negative-candidate assembly for the sampled linking softmax.

Each training example gets a fixed-size candidate set: its gold entities,
hard negatives from the source article's link set ("page") and from a
surface-string phrase table ("phrase"), topped up with uniform-random
entities. Within a batch, every example additionally sees the union of all
examples' candidates.
"""

import copy
import logging
from dataclasses import dataclass

import numpy as np

from .aliastable import normalize_alias
from .corpus import CorpusFormatError, EntityVocab, MentionLabel, read_tsv
from .seeding import derive_rng

log = logging.getLogger(__name__)


class CandidateBudgetError(ValueError):
    """Raised when the candidate budget cannot hold the gold entities."""


@dataclass(frozen=True)
class CandidateConfig:
    k: int = 768
    max_page: int = 256
    max_phrase: int = 384
    min_random: int = 128
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.k, self.max_page, self.max_phrase, self.min_random) < 0:
            raise ValueError("candidate budgets must be non-negative")
        if self.max_page + self.max_phrase + self.min_random > self.k:
            raise ValueError("max_page + max_phrase + min_random must not exceed k")


@dataclass
class CandidateSet:
    """Ordered duplicate-free entity indices plus, per mention label, the
    position of its gold entity in that list (None for unlinked mentions)."""

    entities: list[int]
    gold_positions: list[int | None]

    def __post_init__(self):
        if len(set(self.entities)) != len(self.entities):
            raise ValueError("candidate entities contain duplicates")
        self._check_gold_positions()

    def _check_gold_positions(self):
        for pos in self.gold_positions:
            if pos is not None and not (0 <= pos < len(self.entities)):
                raise ValueError(f"gold position {pos} outside candidate list")

    def with_gold_positions(self, gold_positions: list[int | None]) -> "CandidateSet":
        """A set over this one's entity list (shared, not copied or rechecked)
        with other gold positions."""
        out = copy.copy(self)
        out.gold_positions = gold_positions
        out._check_gold_positions()
        return out


class PhraseTable:
    """Normalized surface string -> ordered duplicate-free entity indices."""

    def __init__(self, table: dict[str, list[int]] | None = None):
        self.table = dict(table or {})

    def lookup(self, surface: str) -> list[int]:
        return self.table.get(surface, [])

    @classmethod
    def from_tsv(cls, path, entity_vocab: EntityVocab) -> "PhraseTable":
        """Load `surface<TAB>entity_id<TAB>rank` rows; ranks order each list."""
        rows: dict[str, list[tuple[int, int]]] = {}
        keys: dict[str, str] = {}  # raw surface -> normalized, once per surface
        skipped = 0
        for lineno, (surface, entity_id, text) in read_tsv(path, ("surface", "entity", "rank")):
            try:
                rank = int(text)
            except ValueError:
                raise CorpusFormatError(
                    f"{path}:{lineno}: rank {text!r} is not an integer"
                ) from None
            if entity_id not in entity_vocab:
                skipped += 1
                continue
            key = keys.get(surface)
            if key is None:
                key = keys[surface] = normalize_alias(surface)
            rows.setdefault(key, []).append((rank, entity_vocab.get(entity_id)))
        if skipped:
            log.warning("phrase table %s: skipped %d rows with unknown entities", path, skipped)
        table = {}
        for surface, pairs in rows.items():
            pairs.sort(key=lambda p: p[0])
            seen: set[int] = set()
            table[surface] = [e for _, e in pairs if not (e in seen or seen.add(e))]
        return cls(table)


class PageLinks:
    """doc_id -> duplicate-free entity indices linked anywhere in the article."""

    def __init__(self, links: dict[str, list[int]] | None = None):
        self.links = {}
        for doc_id, ents in (links or {}).items():
            seen: set[int] = set()
            self.links[doc_id] = [e for e in ents if not (e in seen or seen.add(e))]

    def get(self, doc_id: str) -> list[int]:
        return self.links.get(doc_id, [])

    @classmethod
    def from_tsv(cls, path, entity_vocab: EntityVocab) -> "PageLinks":
        """Load `doc_id<TAB>entity_id` rows."""
        links: dict[str, list[int]] = {}
        skipped = 0
        for _, (doc_id, entity_id) in read_tsv(path, ("doc_id", "entity_id")):
            if entity_id not in entity_vocab:
                skipped += 1
                continue
            links.setdefault(doc_id, []).append(entity_vocab.get(entity_id))
        if skipped:
            log.warning("page links %s: skipped %d rows with unknown entities", path, skipped)
        return cls(links)


def page_candidates(
    doc_id: str, page_links: PageLinks, budget: int, rng: np.random.Generator
) -> list[int]:
    """Up to `budget` entities linked in the article, sampled without replacement."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    pool = page_links.get(doc_id)
    if not pool or budget == 0:
        return []
    n = min(budget, len(pool))
    picks = rng.choice(len(pool), size=n, replace=False)
    return [pool[i] for i in picks]


def phrase_candidates(surface: str, table: PhraseTable, budget: int) -> list[int]:
    """First min(budget, available) phrase-table entities for a normalized surface."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return table.lookup(surface)[:budget]


def random_candidates(
    seen: set[int], n_entities: int, n: int, rng: np.random.Generator
) -> list[int]:
    """n distinct uniform-random entities outside `seen`, in O(n log n).

    Draws positions in the ascending list of ids not in `seen`, then maps
    each position to its id by shifting it past every excluded id at or
    below it, so it returns what drawing from that explicit list would.
    """
    excluded = np.array(sorted(e for e in seen if 0 <= e < n_entities), dtype=np.int64)
    picks = rng.choice(n_entities - len(excluded), size=n, replace=False)
    below = excluded - np.arange(len(excluded))
    return (picks + np.searchsorted(below, picks, side="right")).tolist()


def _phrase_budgets(total: int, n_mentions: int) -> list[int]:
    """Divide `total` as evenly as possible; remainder goes to earliest mentions."""
    if n_mentions == 0:
        return []
    base, rem = divmod(total, n_mentions)
    return [base + (1 if i < rem else 0) for i in range(n_mentions)]


def assemble_candidates(
    labels: list[MentionLabel],
    surfaces: list[str | None],
    doc_id: str,
    cfg: CandidateConfig,
    page_links: PageLinks | None,
    phrase_table: PhraseTable | None,
    n_entities: int,
    rng: np.random.Generator | None = None,
) -> CandidateSet:
    """Build one example's candidate set of exactly cfg.k entities.

    Contains every non-null gold, then page candidates, then phrase-table
    candidates split across mentions, then uniform-random fill. Duplicates
    keep their highest-priority role (gold > page > phrase > random), and
    page/phrase additions stop at k - min_random so the random floor holds
    whenever the entity vocabulary allows it.
    """
    if len(surfaces) != len(labels):
        raise ValueError("labels and surfaces must be parallel")
    if rng is None:
        rng = derive_rng(cfg.rng_seed, "assemble")

    golds = []
    seen: set[int] = set()
    for lab in labels:
        if lab.entity is not None and lab.entity not in seen:
            seen.add(lab.entity)
            golds.append(lab.entity)
    if len(golds) > cfg.k:
        raise CandidateBudgetError(
            f"candidate budget too small: k={cfg.k} < {len(golds)} distinct golds"
        )
    if cfg.k > n_entities:
        raise ValueError(f"k={cfg.k} exceeds entity vocabulary of {n_entities}")

    chosen = list(golds)
    cap = max(cfg.k - cfg.min_random, len(chosen))

    if page_links is not None and cfg.max_page > 0:
        for e in page_candidates(doc_id, page_links, cfg.max_page, rng):
            if len(chosen) >= cap:
                break
            if e not in seen:
                seen.add(e)
                chosen.append(e)

    if phrase_table is not None and cfg.max_phrase > 0 and labels:
        budgets = _phrase_budgets(cfg.max_phrase, len(labels))
        for surface, budget in zip(surfaces, budgets):
            if surface is None:
                continue
            for e in phrase_candidates(normalize_alias(surface), phrase_table, budget):
                if len(chosen) >= cap:
                    break
                if e not in seen:
                    seen.add(e)
                    chosen.append(e)

    need = cfg.k - len(chosen)
    if need > 0:
        chosen.extend(random_candidates(seen, n_entities, need, rng))

    positions = {e: i for i, e in enumerate(chosen)}
    gold_positions = [
        None if lab.entity is None else positions[lab.entity] for lab in labels
    ]
    return CandidateSet(entities=chosen, gold_positions=gold_positions)


def batch_negatives(sets: list[CandidateSet]) -> list[CandidateSet]:
    """Share candidates across a batch: everyone sees the deduplicated union.

    Union order is first appearance over example order; gold positions are
    re-indexed into the union. The union is built and validated once, and
    every returned set shares that one entity list.
    """
    union: list[int] = []
    where: dict[int, int] = {}
    for cs in sets:
        for e in cs.entities:
            if e not in where:
                where[e] = len(union)
                union.append(e)
    shared = CandidateSet(entities=union, gold_positions=[])
    return [
        shared.with_gold_positions(
            [None if pos is None else where[cs.entities[pos]] for pos in cs.gold_positions]
        )
        for cs in sets
    ]
