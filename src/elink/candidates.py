"""Negative-candidate assembly for the sampled linking softmax.

Each training example gets a fixed-size candidate set: its gold entities,
hard negatives from the source article's link set ("page") and from a
surface-string phrase table ("phrase"), topped up with uniform-random
entities. Within a batch, every example additionally sees the union of all
examples' candidates. A gold stays an entity id throughout; the batch
builder finds its column in the union.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .aliastable import AliasTable
from .corpus import EntityVocab, MentionLabel, read_tsv
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
    """Ordered duplicate-free entity indices. The golds they must hold are
    the entity ids of the mention labels they were built for."""

    entities: list[int]

    def __post_init__(self):
        if len(set(self.entities)) != len(self.entities):
            raise ValueError("candidate entities contain duplicates")


def load_phrase_table(path, entity_vocab: EntityVocab) -> AliasTable:
    """Load `surface<TAB>entity_id<TAB>rank` rows; ranks order each list.

    Rows with unknown entities are skipped with a warning; the rest are
    grouped by `AliasTable.from_rows`.
    """
    surfaces, entity_ids, ranks = read_tsv(path, ("surface", "entity", "rank"), ints=("rank",))
    index = entity_vocab.index
    ents = np.array([index.get(e, -1) for e in entity_ids], dtype=np.int64)
    known = np.flatnonzero(ents >= 0)
    if len(known) < len(ents):
        log.warning(
            "phrase table %s: skipped %d rows with unknown entities", path, len(ents) - len(known)
        )
        surfaces = [surfaces[i] for i in known]
        ranks = [ranks[i] for i in known]
        ents = ents[known]
    try:
        rank = np.array(ranks, dtype=np.int64)
    except OverflowError:  # ranks past int64 still sort, as Python ints
        rank = np.array(ranks, dtype=object)
    return AliasTable.from_rows(surfaces, ents, rank)


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
        for doc_id, entity_id in zip(*read_tsv(path, ("doc_id", "entity_id"))):
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


def phrase_candidates(surface: str, table: AliasTable, budget: int) -> list[int]:
    """First min(budget, available) phrase-table entities for a surface."""
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
    doc_id: str,
    cfg: CandidateConfig,
    page_links: PageLinks | None,
    phrase_table: AliasTable | None,
    n_entities: int,
    rng: np.random.Generator | None = None,
) -> CandidateSet:
    """Build one example's candidate set of exactly cfg.k entities.

    Contains every non-null gold entity id, then page candidates, then
    phrase-table candidates for each label's surface, split across
    mentions, then uniform-random fill. Duplicates keep their
    highest-priority role (gold > page > phrase > random), and page/phrase
    additions stop at k - min_random so the random floor holds whenever the
    entity vocabulary allows it.
    """
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
        for lab, budget in zip(labels, budgets):
            if lab.surface is None:
                continue
            for e in phrase_candidates(lab.surface, phrase_table, budget):
                if len(chosen) >= cap:
                    break
                if e not in seen:
                    seen.add(e)
                    chosen.append(e)

    need = cfg.k - len(chosen)
    if need > 0:
        chosen.extend(random_candidates(seen, n_entities, need, rng))

    return CandidateSet(entities=chosen)


def batch_negatives(sets: list[CandidateSet]) -> list[CandidateSet]:
    """Share candidates across a batch: everyone sees the deduplicated union.

    Union order is first appearance over example order. The union is built
    and validated once, and every returned set is that one set.
    """
    shared = CandidateSet(entities=list(dict.fromkeys(e for cs in sets for e in cs.entities)))
    return [shared] * len(sets)
