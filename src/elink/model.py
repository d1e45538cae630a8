"""Transformer linking model: encoder, span scoring, losses, and inference.

The encoder is a BERT-family stack (learned positions, post-layer-norm
blocks, GELU) built on the local autodiff tape, so training gradients are
exact and checkable against finite differences. A span is represented by
the concatenation of its start and end hidden states projected into entity
space; entities are scored by dot product against an embedding table, with
a softmax over either a candidate set or the full entity vocabulary.
Mention detection is a per-token BIO head.
"""

import json
import os
import struct
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Context
from .seeding import derive_rng

CHECKPOINT_MAGIC = b"ELCK"
CHECKPOINT_VERSION = 1

O_TAG, B_TAG, I_TAG = 0, 1, 2

NEG_INF = -1e9


class GradientError(ValueError):
    """Non-finite gradient, named by parameter group."""


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


# ---------------------------------------------------------------------------
# Config and parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_entities: int
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 4
    d_ff: int = 256
    d_entity: int = 256
    max_len: int = 256

    def __post_init__(self):
        if min(self.vocab_size, self.n_entities, self.d_model, self.n_heads,
               self.d_ff, self.d_entity, self.max_len) <= 0:
            raise ValueError("all model dimensions must be positive")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


def _param_specs(cfg: ModelConfig):
    """(name, shape, init kind) in declaration order; fixes checkpoint layout."""
    specs = [
        ("tok_emb", (cfg.vocab_size, cfg.d_model), "normal"),
        ("pos_emb", (cfg.max_len, cfg.d_model), "normal"),
    ]
    d = cfg.d_model
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        specs += [
            (p + "wq", (d, d), "normal"), (p + "bq", (d,), "zeros"),
            (p + "wk", (d, d), "normal"), (p + "bk", (d,), "zeros"),
            (p + "wv", (d, d), "normal"), (p + "bv", (d,), "zeros"),
            (p + "wo", (d, d), "normal"), (p + "bo", (d,), "zeros"),
            (p + "ln1_g", (d,), "ones"), (p + "ln1_b", (d,), "zeros"),
            (p + "ff_w1", (d, cfg.d_ff), "normal"), (p + "ff_b1", (cfg.d_ff,), "zeros"),
            (p + "ff_w2", (cfg.d_ff, d), "normal"), (p + "ff_b2", (d,), "zeros"),
            (p + "ln2_g", (d,), "ones"), (p + "ln2_b", (d,), "zeros"),
        ]
    specs += [
        ("span_w1", (2 * d, d), "normal"), ("span_b1", (d,), "zeros"),
        ("span_w2", (d, cfg.d_entity), "normal"), ("span_b2", (cfg.d_entity,), "zeros"),
        ("bio_w", (d, 3), "normal"), ("bio_b", (3,), "zeros"),
        ("ent_emb", (cfg.n_entities, cfg.d_entity), "normal"),
    ]
    return specs


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    x = rng.normal(0.0, std, size=shape)
    flat = x.reshape(-1)
    lim = 2 * std
    # two comparisons, not abs(): no table-sized float copy
    bad = np.flatnonzero((flat > lim) | (flat < -lim))
    while bad.size:
        # only the entries just redrawn can still be out of range
        flat[bad] = rng.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > lim]
    return x


class ModelParams:
    """All trainable tensors, ordered as declared (checkpoint layout order)."""

    def __init__(self, config: ModelConfig, tensors: "OrderedDict[str, Tensor]"):
        self.config = config
        self.tensors = tensors

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int, init_std: float = 0.02):
        rng = derive_rng(seed, "params")
        tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        for name, shape, kind in _param_specs(config):
            if kind == "normal":
                data = _trunc_normal(rng, shape, init_std)
            elif kind == "ones":
                data = np.ones(shape)
            else:
                data = np.zeros(shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(config, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def names(self):
        return list(self.tensors)

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None

    def n_parameters(self) -> int:
        return sum(t.data.size for t in self.tensors.values())


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def encode(params: ModelParams, tokens: np.ndarray, pad_mask: np.ndarray | None = None) -> Tensor:
    """Hidden states (B, T, d_model) for a padded batch of token ids.

    pad_mask is True at padding positions; padded keys are excluded from
    attention so non-pad outputs never depend on padding content.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    B, T = tokens.shape
    cfg = params.config
    if T > cfg.max_len:
        raise ValueError(f"sequence length {T} exceeds max_len {cfg.max_len}")
    if pad_mask is None:
        pad_mask = np.zeros((B, T), dtype=bool)

    H = ad.take(params["tok_emb"], tokens) + ad.take(params["pos_emb"], np.arange(T))
    key_bias = np.where(pad_mask, NEG_INF, 0.0)
    for i in range(cfg.n_layers):
        H = _block(params, i, H, key_bias)
    return H


def _block(params: ModelParams, i: int, H: Tensor, key_bias: np.ndarray) -> Tensor:
    p = f"layers.{i}."

    def proj(x: Tensor, w: str, b: str) -> Tensor:
        return ad.linear(x, params[p + w], params[p + b])

    ctx = ad.attention(
        proj(H, "wq", "bq"), proj(H, "wk", "bk"), proj(H, "wv", "bv"),
        key_bias, params.config.n_heads,
    )
    H = ad.layer_norm(H + proj(ctx, "wo", "bo"), params[p + "ln1_g"], params[p + "ln1_b"])
    ff = proj(ad.gelu(proj(H, "ff_w1", "ff_b1")), "ff_w2", "ff_b2")
    return ad.layer_norm(H + ff, params[p + "ln2_g"], params[p + "ln2_b"])


def span_repr(params: ModelParams, H: Tensor, ex_idx, starts, ends) -> Tensor:
    """Entity-space span vectors: MLP over [H_start, H_end] concatenation."""
    ex_idx = np.asarray(ex_idx, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    B, T, _ = H.shape
    if len(ex_idx) and (
        starts.min() < 0 or ends.max() >= T or (starts > ends).any()
        or ex_idx.min() < 0 or ex_idx.max() >= B
    ):
        raise ValueError("span indices out of range")
    hs = ad.take2(H, ex_idx, starts)
    he = ad.take2(H, ex_idx, ends)
    x = ad.concat([hs, he], axis=-1)
    hidden = ad.gelu(ad.linear(x, params["span_w1"], params["span_b1"]))
    return ad.linear(hidden, params["span_w2"], params["span_b2"])


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def _candidate_scores(params: ModelParams, svec: Tensor, cand_rows: np.ndarray) -> Tensor:
    """(M, Kmax) scores of each span vector against its own candidates.

    cand_rows is (M, Kmax), padded with -1; padded slots score NEG_INF.
    """
    M, K = cand_rows.shape
    clipped = np.where(cand_rows >= 0, cand_rows, 0)
    emb = ad.take(params["ent_emb"], clipped)          # (M, K, d)
    d = emb.shape[-1]
    scores = (ad.reshape(svec, (M, 1, d)) * emb).sum(axis=-1)
    return scores + np.where(cand_rows >= 0, 0.0, NEG_INF)


def score_and_prob(params: ModelParams, svec: np.ndarray, candidates=None):
    """Dot-product scores and softmax probabilities for span vector(s).

    candidates is a sequence of entity indices, or None for all entities.
    Probabilities use max-shifted exponentials and stay finite for scores
    up to +-1e4.
    """
    sv = np.asarray(svec, dtype=np.float64)
    single = sv.ndim == 1
    sv = np.atleast_2d(sv)
    if candidates is None:
        emb = params["ent_emb"].data
    else:
        cand = np.asarray(candidates, dtype=np.int64)
        if cand.size == 0:
            raise ValueError("candidate list must be non-empty")
        emb = params["ent_emb"].data[cand]
    scores = sv @ emb.T
    probs = stable_softmax(scores)
    if single:
        return scores[0], probs[0]
    return scores, probs


def stable_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    # in place on one new array, so a caller holds scores and probs, no more
    out = scores - scores.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def mention_nll(scores: Tensor, gold_pos) -> Tensor:
    """Per-mention negative log-probability of the gold among candidates.

    scores: (M, K) Tensor; gold_pos: (M,) positions (or entity ids when the
    score matrix spans the full vocabulary). Padded candidate slots must
    already carry a large negative bias.
    """
    return ad.softmax_nll(scores, gold_pos)


# ---------------------------------------------------------------------------
# Batches and losses
# ---------------------------------------------------------------------------


@dataclass
class ModelBatch:
    """Padded inputs plus linking/detection targets for one step."""

    tokens: np.ndarray                 # (B, T) int64
    pad_mask: np.ndarray               # (B, T) bool, True at padding
    n_examples: int
    ment_ex: np.ndarray                # (M,) example index per linked mention
    ment_start: np.ndarray             # (M,)
    ment_end: np.ndarray               # (M,)
    gold_pos: np.ndarray               # (M,) candidate position or entity id
    cand_rows: np.ndarray | None       # None | (K,) | (M, Kmax) with -1 padding
    bio_targets: np.ndarray            # (B, T) int64 in {O, B, I}


@dataclass(frozen=True)
class MentionTarget:
    """One linked mention prepared for the loss: span plus gold/candidates."""

    span: tuple[int, int]
    gold: int
    candidates: np.ndarray | None = None


def build_batch(
    contexts: list[Context],
    pad_index: int,
    targets_per_context: list[list[MentionTarget]],
    shared_candidates: np.ndarray | None = None,
    tokens_override: list[np.ndarray] | None = None,
) -> ModelBatch:
    """Pad contexts into arrays and collect mention targets.

    BIO targets encode every label of every context (including unlinked
    mentions); linking targets come from targets_per_context. When
    shared_candidates is given, gold values index into it; when a target
    carries its own candidate array, rows are padded with -1; when neither,
    the loss runs over the full entity vocabulary and gold values are
    entity ids.
    """
    B = len(contexts)
    seqs = tokens_override if tokens_override is not None else [c.tokens for c in contexts]
    T = max(1, max((len(s) for s in seqs), default=1))
    tokens = np.full((B, T), pad_index, dtype=np.int64)
    pad_mask = np.ones((B, T), dtype=bool)
    bio = np.zeros((B, T), dtype=np.int64)
    for b, (ctx, seq) in enumerate(zip(contexts, seqs)):
        n = len(seq)
        tokens[b, :n] = seq
        pad_mask[b, :n] = False
        bio[b] = bio_encode([l.span for l in ctx.labels], T)

    ex, ss, ee, gold = [], [], [], []
    ragged: list[np.ndarray] = []
    has_ragged = False
    for b, targets in enumerate(targets_per_context):
        for t in targets:
            if shared_candidates is not None:
                in_range = 0 <= t.gold < len(shared_candidates)
            elif t.candidates is not None:
                in_range = 0 <= t.gold < len(t.candidates)
            else:
                in_range = t.gold >= 0
            if not in_range:
                raise ValueError(f"gold missing from candidate set for span {t.span}")
            ex.append(b)
            ss.append(t.span[0])
            ee.append(t.span[1])
            gold.append(t.gold)
            if t.candidates is not None:
                has_ragged = True
            ragged.append(t.candidates)

    cand_rows: np.ndarray | None
    if shared_candidates is not None:
        cand_rows = np.asarray(shared_candidates, dtype=np.int64)
    elif has_ragged:
        if any(c is None for c in ragged):
            raise ValueError("mixed per-mention and full-vocabulary targets in one batch")
        kmax = max(len(c) for c in ragged)
        cand_rows = np.full((len(ragged), kmax), -1, dtype=np.int64)
        for i, c in enumerate(ragged):
            cand_rows[i, : len(c)] = c
    else:
        cand_rows = None

    return ModelBatch(
        tokens=tokens,
        pad_mask=pad_mask,
        n_examples=B,
        ment_ex=np.asarray(ex, dtype=np.int64),
        ment_start=np.asarray(ss, dtype=np.int64),
        ment_end=np.asarray(ee, dtype=np.int64),
        gold_pos=np.asarray(gold, dtype=np.int64),
        cand_rows=cand_rows,
        bio_targets=bio,
    )


def linking_loss(params: ModelParams, H: Tensor, batch: ModelBatch) -> tuple[Tensor, dict]:
    """Mean over examples of the summed per-mention candidate NLL.

    Unlinked mentions carry no target and contribute zero. Every gold must
    be present in its candidate row (guaranteed upstream). Against a
    candidate list shared by the batch, or the full vocabulary, scores and
    NLL are one `table_softmax_nll` node; per-mention lists are scored as a
    padded matrix.
    """
    if len(batch.ment_ex) == 0:
        return Tensor(0.0), {"linking_acc": float("nan"), "n_linked_mentions": 0}
    svec = span_repr(params, H, batch.ment_ex, batch.ment_start, batch.ment_end)
    if batch.cand_rows is None or batch.cand_rows.ndim == 1:
        nll, pred = ad.table_softmax_nll(svec, params["ent_emb"], batch.cand_rows, batch.gold_pos)
    else:
        scores = _candidate_scores(params, svec, batch.cand_rows)
        nll = mention_nll(scores, batch.gold_pos)
        pred = scores.data.argmax(axis=-1)
    loss = nll.sum() * (1.0 / batch.n_examples)
    acc = float((pred == batch.gold_pos).mean())
    return loss, {"linking_acc": acc, "n_linked_mentions": len(batch.ment_ex)}


def bio_loss(params: ModelParams, H: Tensor, batch: ModelBatch) -> Tensor:
    """Mean per-token 3-way cross-entropy of the BIO head over non-pad positions."""
    valid = ~batch.pad_mask
    n_valid = int(valid.sum())
    if n_valid == 0:
        return Tensor(0.0)
    logits = ad.linear(H, params["bio_w"], params["bio_b"])
    B, T, _ = logits.shape
    nll = ad.softmax_nll(ad.reshape(logits, (B * T, 3)), batch.bio_targets.reshape(-1))
    masked = nll * valid.reshape(-1).astype(np.float64)
    return masked.sum() * (1.0 / n_valid)


def total_loss(
    params: ModelParams,
    batch: ModelBatch,
    link_weight: float = 1.0,
    bio_weight: float = 1.0,
) -> tuple[Tensor, dict]:
    """Weighted sum of linking and mention-detection losses, plus metrics."""
    H = encode(params, batch.tokens, batch.pad_mask)
    if link_weight != 0.0:
        link, metrics = linking_loss(params, H, batch)
    else:
        link = Tensor(0.0)
        metrics = {"linking_acc": float("nan"), "n_linked_mentions": 0}
    bio = bio_loss(params, H, batch) if bio_weight != 0.0 else Tensor(0.0)
    loss = link * link_weight + bio * bio_weight
    metrics["linking_loss"] = float(link.data)
    metrics["bio_loss"] = float(bio.data)
    metrics["loss"] = float(loss.data)
    return loss, metrics


def backward(loss: Tensor, params: ModelParams) -> dict[str, np.ndarray | ad.RowGrad]:
    """Exact reverse-mode gradients of a recorded loss for every parameter.

    Groups reached only through row gathers (the embedding tables) get a
    row-sparse RowGrad; the others get dense arrays.
    """
    params.zero_grad()
    loss.backward()
    grads: dict[str, np.ndarray | ad.RowGrad] = {}
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.isfinite(ad.grad_values(g)).all():
            raise GradientError(f"non-finite gradient in parameter group {name!r}")
        grads[name] = g
    return grads


# ---------------------------------------------------------------------------
# BIO encoding
# ---------------------------------------------------------------------------


def bio_encode(spans, length: int) -> np.ndarray:
    """Tags in {O,B,I} for inclusive token spans; overlaps are an error."""
    tags = np.zeros(length, dtype=np.int64)
    last_end = -1
    for s, e in sorted(spans):
        if s <= last_end:
            raise ValueError(f"overlapping span ({s},{e})")
        if not (0 <= s <= e < length):
            raise ValueError(f"span ({s},{e}) outside sequence of {length} tokens")
        tags[s] = B_TAG
        tags[s + 1 : e + 1] = I_TAG
        last_end = e
    return tags


def bio_decode(tags) -> list[tuple[int, int]]:
    """Inclusive spans from a tag sequence; a stray I opens a span like B."""
    spans = []
    start = None
    for i, tag in enumerate(tags):
        if tag == B_TAG:
            if start is not None:
                spans.append((start, i - 1))
            start = i
        elif tag == I_TAG:
            if start is None:
                start = i
        else:
            if start is not None:
                spans.append((start, i - 1))
                start = None
    if start is not None:
        spans.append((start, len(tags) - 1))
    return spans


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _span_vectors(params: ModelParams, H: Tensor, spans: list[tuple[int, int]]) -> np.ndarray:
    ex = np.zeros(len(spans), dtype=np.int64)
    return span_repr(params, H, ex, [s for s, _ in spans], [e for _, e in spans]).data


def _top_k(row: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k best scores, best first, exact ties to the lowest
    column: the first k of a stable sort of -row, without sorting it all.

    A partition finds the k-th best score; every column scoring at least
    that (all its ties too) is kept in ascending order and stably sorted.
    """
    neg = -row
    if k >= neg.size:
        return np.argsort(neg, kind="stable")[:k]
    kth = np.partition(neg, k - 1)[k - 1]
    # ~(neg > kth), not neg <= kth: NaN scores stay in and sort last, as
    # the full sort places them
    keep = np.flatnonzero(~(neg > kth))
    return keep[np.argsort(neg[keep], kind="stable")[:k]]


def rank_entities(
    params: ModelParams,
    tokens,
    spans: list[tuple[int, int]],
    candidates: list | None = None,
    top_k: int = 2,
) -> list[list[tuple[int, float]]]:
    """Per span, the top_k (entity, score) pairs, best first.

    candidates is a per-span list of entity-index lists, or None to rank
    the full vocabulary; a span with an empty list gets []. All spans are
    scored in one call, against the full table or against the sorted union
    of their lists, whose columns each span then takes. Ties are broken
    toward the lowest entity index.
    """
    if not spans:
        return []
    union = own = None
    if candidates is not None:
        own = [np.sort(np.asarray(c, dtype=np.int64)) for c in candidates]
        union = np.unique(np.concatenate(own))
        if union.size == 0:
            return [[] for _ in spans]
    svec = _span_vectors(params, encode(params, tokens), spans)
    scores, _ = score_and_prob(params, svec, union)
    out = []
    for i, row in enumerate(scores):
        if own is not None:
            row = row[np.searchsorted(union, own[i])]
        top = _top_k(row, top_k)
        ents = top if own is None else own[i][top]
        out.append([(int(e), float(row[j])) for e, j in zip(ents, top)])
    return out


def predict_disambiguation(
    params: ModelParams,
    tokens,
    spans: list[tuple[int, int]],
    candidates: list | None = None,
) -> list[int]:
    """Best entity per gold span, over candidates or the full vocabulary."""
    return [ranked[0][0] for ranked in rank_entities(params, tokens, spans, candidates, top_k=1)]


def predict_end_to_end(params: ModelParams, tokens) -> list[tuple[tuple[int, int], int, float]]:
    """Detect mention spans with the BIO head, then disambiguate every span
    over all entities in one scoring call. Returns (span, entity,
    probability) triples; ties go to the lowest entity index."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        return []
    H = encode(params, tokens)
    logits = ad.linear(H, params["bio_w"], params["bio_b"]).data[0]
    spans = bio_decode(logits.argmax(axis=-1))
    if not spans:
        return []
    scores, probs = score_and_prob(params, _span_vectors(params, H, spans), None)
    best = scores.argmax(axis=-1)
    return [(span, int(b), float(p[b])) for span, b, p in zip(spans, best, probs)]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def manifest_path(path: str) -> str:
    return str(path) + ".manifest.json"


def save_checkpoint(path, params: ModelParams) -> None:
    """Binary checkpoint: magic, version, config JSON, then each tensor in
    declaration order as little-endian float32, row-major. A sidecar JSON
    manifest records tensor names, shapes, and byte offsets.

    Both files are written to temporary files beside their targets and then
    renamed over them, so a write that fails part-way leaves the previous
    checkpoint as it was and no temporary file behind.
    """
    path = os.fspath(path)
    tmp_ckpt, tmp_manifest = path + ".tmp", manifest_path(path) + ".tmp"
    try:
        _write_checkpoint(tmp_ckpt, tmp_manifest, params)
        os.replace(tmp_ckpt, path)
        os.replace(tmp_manifest, manifest_path(path))
    except BaseException:
        for tmp in (tmp_ckpt, tmp_manifest):
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def _write_checkpoint(path: str, manifest_file: str, params: ModelParams) -> None:
    cfg_json = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
    entries = []
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg_json)))
        f.write(cfg_json)
        offset = len(CHECKPOINT_MAGIC) + 8 + len(cfg_json)
        for name, t in params.items():
            arr = np.ascontiguousarray(t.data, dtype="<f4")
            entries.append(
                {"name": name, "shape": list(t.data.shape), "offset": offset, "nbytes": arr.nbytes}
            )
            f.write(arr.data)
            offset += arr.nbytes
    manifest = {
        "format": CHECKPOINT_MAGIC.decode("ascii"),
        "version": CHECKPOINT_VERSION,
        "dtype": "<f4",
        "tensors": entries,
    }
    with open(manifest_file, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def load_checkpoint(path, requires_grad: bool = True) -> ModelParams:
    """Parameters from a checkpoint file. With requires_grad False they
    are constants, so inference on them records no autodiff graph."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    version, cfg_len = struct.unpack("<II", blob[4:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    try:
        cfg = ModelConfig(**json.loads(blob[12 : 12 + cfg_len].decode("utf-8")))
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from exc
    offset = 12 + cfg_len
    tensors: "OrderedDict[str, Tensor]" = OrderedDict()
    for name, shape, _ in _param_specs(cfg):
        count = int(np.prod(shape))
        nbytes = count * 4
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        data = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        data = data.reshape(shape).astype(np.float64)
        tensors[name] = Tensor(data, requires_grad=requires_grad)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return ModelParams(cfg, tensors)
