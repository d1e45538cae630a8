"""Alias tables: surface-string candidate lookup with redirect resolution.

Raw alias entries point at entity-id strings that may be stale; each target
is chased through a redirect map to a fixed point and then checked against
the entity vocabulary. The conversion report and the gold-recall /
average-ambiguity statistics quantify how much of a table survives.
"""

import re
import unicodedata
from dataclasses import dataclass

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
    """Normalized alias string -> ordered duplicate-free entity indices."""

    def __init__(self, table: dict[str, list[int]] | None = None):
        self.table = dict(table or {})

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
    table: dict[str, list[int]] = {}
    seen: dict[str, set[int]] = {}
    keys: dict[str, str] = {}  # raw alias -> normalized, once per alias
    n_resolved = 0
    n_dropped = 0
    for alias, entity_id in entries:
        target = redirects.resolve_id(entity_id) if redirects is not None else entity_id
        if target not in vocab:
            n_dropped += 1
            continue
        n_resolved += 1
        key = keys.get(alias)
        if key is None:
            key = keys[alias] = normalize_alias(alias)
        idx = vocab.get(target)
        bucket = seen.setdefault(key, set())
        if idx not in bucket:
            bucket.add(idx)
            table.setdefault(key, []).append(idx)
    report = ConversionReport(n_input=len(entries), n_resolved=n_resolved, n_dropped=n_dropped)
    return AliasTable(table), report


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
