"""Alias tables: surface-string candidate lookup with redirect resolution.

Raw alias entries point at entity-id strings that may be stale; each target
is chased through a redirect map to a fixed point and then checked against
the entity vocabulary. The conversion report and the gold-recall /
average-ambiguity statistics quantify how much of a table survives.
"""

import re
import unicodedata
from dataclasses import dataclass

import numpy as np

from .corpus import EntityVocab, read_tsv

_WS = re.compile(r"\s+")


class RedirectCycleError(ValueError):
    def __init__(self, cycle: list[str]):
        super().__init__("redirect cycle: " + " -> ".join(cycle))
        self.cycle = cycle


def normalize_alias(s: str) -> str:
    """NFKC, lowercase, collapse whitespace, trim; iterated to a fixed point
    so the result is idempotent even for unicode edge cases."""
    prev = s
    for _ in range(4):
        cur = _WS.sub(" ", unicodedata.normalize("NFKC", prev).lower()).strip()
        if cur == prev:
            return cur
        prev = cur
    return prev


class RedirectMap:
    """entity-id -> entity-id redirects; cycles are rejected at construction."""

    def __init__(self, redirects: dict[str, str] | None = None):
        self.redirects = dict(redirects or {})
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        resolved: set[str] = set()
        for start in self.redirects:
            if start in resolved:
                continue
            path: list[str] = []
            on_path: set[str] = set()
            cur = start
            while cur in self.redirects and cur not in resolved:
                if cur in on_path:
                    cycle = path[path.index(cur) :] + [cur]
                    raise RedirectCycleError(cycle)
                on_path.add(cur)
                path.append(cur)
                cur = self.redirects[cur]
            resolved.update(path)

    def resolve_id(self, entity_id: str) -> str:
        cur = entity_id
        while cur in self.redirects:
            cur = self.redirects[cur]
        return cur

    @classmethod
    def from_tsv(cls, path) -> "RedirectMap":
        return cls(dict(zip(*read_tsv(path, ("from", "to")))))


class AliasTable:
    """Normalized alias string -> ordered duplicate-free entity indices.

    The alias table of fine-tuning and the phrase table of pretraining are
    both this map, and both are built by `from_rows`.
    """

    def __init__(self, table: dict[str, list[int]] | None = None):
        self.table = dict(table or {})
        for alias, cands in self.table.items():
            if len(set(cands)) != len(cands) or (cands and min(cands) < 0):
                raise ValueError(
                    f"alias {alias!r}: candidates {list(cands)} repeat an entity "
                    "or hold a negative index"
                )

    @classmethod
    def from_rows(cls, surfaces: list[str], ents: np.ndarray, rank: np.ndarray) -> "AliasTable":
        """The table of (surface, entity, rank) rows; ents are non-negative.

        In bulk: the rows are grouped by normalized surface (keys in order
        of first appearance), stably sorted by rank, and each (surface,
        entity) pair keeps its first row in that order. The lists are
        duplicate-free by construction, so they are not checked again.
        """
        keys: dict[str, int] = {}  # normalized surface -> key id, first appearance
        key_of = {s: keys.setdefault(normalize_alias(s), len(keys)) for s in dict.fromkeys(surfaces)}
        key = np.array([key_of[s] for s in surfaces], dtype=np.int64)
        order = np.lexsort((rank, key))
        key, ents = key[order], ents[order]
        # the first row of each (key, entity) pair, in that order
        _, first = np.unique(key * (int(ents.max(initial=-1)) + 1) + ents, return_index=True)
        first.sort()
        key, ents = key[first], ents[first].tolist()
        cuts = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(ents)]
        out = cls.__new__(cls)
        out.table = {k: ents[a:b] for k, a, b in zip(keys, cuts, cuts[1:])}
        return out

    def lookup(self, surface: str) -> list[int]:
        return self.table.get(normalize_alias(surface), [])

    def __len__(self):
        return len(self.table)


@dataclass(frozen=True)
class ConversionReport:
    n_input: int
    n_resolved: int
    n_dropped: int

    @property
    def conversion(self) -> float:
        """Percentage of input entries whose target resolved into the vocabulary."""
        return 100.0 * self.n_resolved / self.n_input if self.n_input else 0.0


def resolve(
    entries: list[tuple[str, str]],
    redirects: RedirectMap | None,
    vocab: EntityVocab,
) -> tuple[AliasTable, ConversionReport]:
    """Build an alias table from raw (alias, entity_id) entries.

    Targets are chased through redirects; targets absent from the
    vocabulary are dropped and counted. Candidate order within an alias
    preserves input order.
    """
    index = vocab.index
    chase = redirects.resolve_id if redirects is not None else (lambda e: e)
    ents = np.array([index.get(chase(e), -1) for _, e in entries], dtype=np.int64)
    known = np.flatnonzero(ents >= 0)
    aliases = [entries[i][0] for i in known.tolist()]
    report = ConversionReport(
        n_input=len(entries), n_resolved=len(known), n_dropped=len(entries) - len(known)
    )
    return AliasTable.from_rows(aliases, ents[known], np.arange(len(known))), report


def table_stats(
    table: AliasTable, mentions: list[tuple[str, int]]
) -> tuple[float, float]:
    """(gold recall %, average ambiguity) of a table over (surface, gold) mentions.

    Gold recall is the percentage of mentions whose gold entity appears in
    the lookup of its surface; average ambiguity is total candidates
    returned divided by the number of mentions.
    """
    if not mentions:
        raise ValueError("table_stats needs a non-empty mention list")
    hits = 0
    total_candidates = 0
    for surface, gold in mentions:
        cands = table.lookup(surface)
        total_candidates += len(cands)
        if gold in cands:
            hits += 1
    recall = 100.0 * hits / len(mentions)
    ambiguity = total_candidates / len(mentions)
    return recall, ambiguity


def load_alias_tsv(path) -> list[tuple[str, str]]:
    """Raw `alias<TAB>entity_id` entries, order preserved."""
    return list(zip(*read_tsv(path, ("alias", "entity_id"))))
