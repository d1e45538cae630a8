"""Scoring: disambiguation accuracy and strong-matching micro-F1.

Disambiguation scores entity choices on gold spans; end-to-end linking
scores (span, entity) pairs, where a prediction only counts if both the
span boundaries and the entity match a gold mention exactly. Unlinked
(null-labeled) gold mentions are excluded from entity scoring.
"""

from dataclasses import dataclass

from .aliastable import AliasTable
from .corpus import Context, EntityVocab, tsv_cell
from .model import ModelParams, predict_end_to_end, rank_entities


def disambiguation_accuracy(preds: list, golds: list) -> float:
    """Percentage of labeled gold mentions predicted exactly.

    preds and golds are parallel; None golds (unlinked mentions) are
    excluded from scoring, and a None prediction counts as wrong.
    """
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions for {len(golds)} gold mentions")
    pairs = [(p, g) for p, g in zip(preds, golds) if g is not None]
    if not pairs:
        raise ValueError("no labeled gold mentions to score")
    correct = sum(1 for p, g in pairs if p == g)
    return 100.0 * correct / len(pairs)


def strong_matching_micro_f1(pred_docs: list, gold_docs: list) -> tuple[float, float, float]:
    """Micro precision/recall/F1 with exact span-and-entity matching.

    pred_docs and gold_docs are parallel lists of per-document collections
    of (span_start, span_end, entity) triples, pooled over all documents.
    """
    if len(pred_docs) != len(gold_docs):
        raise ValueError("prediction and gold document counts differ")
    n_pred = n_gold = n_correct = 0
    for preds, golds in zip(pred_docs, gold_docs):
        pset, gset = set(preds), set(golds)
        n_pred += len(pset)
        n_gold += len(gset)
        n_correct += len(pset & gset)
    p = n_correct / n_pred if n_pred else 0.0
    r = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if (p + r) else 0.0
    return p, r, f1


# ---------------------------------------------------------------------------
# Dataset-level runners
# ---------------------------------------------------------------------------


@dataclass
class ErrorRecord:
    surface: str
    gold: str
    top: list[tuple[str, float]]  # (entity id, score), best first

    def tsv(self) -> str:
        cells = [tsv_cell(self.surface), self.gold]
        for ent, score in self.top[:2]:
            cells += [ent, f"{score:.6f}"]
        return "\t".join(cells)


@dataclass
class DisambigResult:
    accuracy: float
    n_mentions: int
    n_no_candidates: int
    errors: list[ErrorRecord]

    def report(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_mentions": self.n_mentions,
            "n_no_candidates": self.n_no_candidates,
        }


def run_disambiguation(
    params: ModelParams,
    contexts: list[Context],
    entity_vocab: EntityVocab,
    alias_table: AliasTable | None = None,
) -> DisambigResult:
    """Predict entities for every labeled gold span in the dataset, ranking
    them all in one rank_entities call: each against the alias lookup of its
    surface (an empty lookup can never be correct and counts as wrong), or,
    without an alias table, against the full entity vocabulary."""
    labeled = [(ctx, [l for l in ctx.labels if l.entity is not None]) for ctx in contexts]
    mentions = [l for _, ls in labeled for l in ls]
    cand_lists = None
    if alias_table is not None:
        cand_lists = [alias_table.lookup(l.surface or "") for l in mentions]
    inputs = [(ctx.tokens, [l.span for l in ls]) for ctx, ls in labeled]
    ranked = rank_entities(params, inputs, cand_lists, top_k=2)
    preds = [top[0][0] if top else None for top in ranked]
    errors = [
        ErrorRecord(
            surface=l.surface or "",
            gold=entity_vocab.ids[l.entity],
            top=[(entity_vocab.ids[e], s) for e, s in top],
        )
        for l, top, pred in zip(mentions, ranked, preds)
        if pred != l.entity
    ]
    accuracy = disambiguation_accuracy(preds, [l.entity for l in mentions])
    return DisambigResult(
        accuracy=accuracy,
        n_mentions=len(mentions),
        n_no_candidates=sum(not top for top in ranked),
        errors=errors,
    )


@dataclass
class EndToEndResult:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int

    def report(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "n_mentions": self.n_gold,
            "n_pred": self.n_pred,
        }


def run_end_to_end(params: ModelParams, contexts: list[Context]) -> EndToEndResult:
    """BIO-decode mention spans, disambiguate over all entities, score micro-F1."""
    pred_docs = []
    gold_docs = []
    for ctx in contexts:
        preds = predict_end_to_end(params, ctx.tokens)
        pred_docs.append([(span[0], span[1], ent) for span, ent, _ in preds])
        gold_docs.append(
            [(l.span[0], l.span[1], l.entity) for l in ctx.labels if l.entity is not None]
        )
    p, r, f1 = strong_matching_micro_f1(pred_docs, gold_docs)
    return EndToEndResult(
        precision=p,
        recall=r,
        f1=f1,
        n_gold=sum(len(g) for g in gold_docs),
        n_pred=sum(len(p_) for p_ in pred_docs),
    )


def write_error_dump(path, errors: list[ErrorRecord]) -> None:
    """TSV of mislinked mentions: surface, gold, top-2 predictions with scores."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("surface\tgold\tpred1\tscore1\tpred2\tscore2\n")
        for rec in errors:
            f.write(rec.tsv() + "\n")
