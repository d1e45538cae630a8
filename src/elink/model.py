"""Transformer linking model: encoder, span scoring, losses, and inference.

The encoder is a BERT-family stack (learned positions, post-layer-norm
blocks, GELU in BERT's tanh form) built on the local autodiff tape, so
training gradients are exact and checkable against finite differences.
Its layers are one tape node, `autodiff.encoder`, which keeps only its
layer norms' normalised rows and row scales and its softmax's row
statistics, and rebuilds the rest in its backward. A span is
represented by the concatenation of its start and end hidden states
projected into entity space; entities are scored by dot product against an
embedding table, with a softmax over either a candidate set or the full
entity vocabulary; per-mention candidate lists are scored as one masked
union. Mention detection is a per-token BIO head.
"""

import json
import os
import struct
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Context
from .seeding import derive_rng

CHECKPOINT_MAGIC = b"ELCK"
CHECKPOINT_VERSION = 2

O_TAG, B_TAG, I_TAG = 0, 1, 2

NEG_INF = -1e9

# The dtype of parameters, training, inference and Adam moments; checkpoints
# store it as little-endian float32. Tests build float64 parameters to run the
# same code in float64.
DTYPE = np.float32


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
        for name in ("vocab_size", "n_entities", "d_model", "n_heads", "d_ff", "d_entity",
                     "max_len"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"all model dimensions must be positive: {name} is {value}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model must be divisible by n_heads, got {self.d_model} and {self.n_heads}")


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
            (p + "wk", (d, d), "normal"),
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


# Values in one init block, and in one write of the checkpoint writer. A
# "normal" tensor's block j (see _row_blocks) has its own random stream, so
# init gives the same bytes on any number of threads, and a table that grows
# keeps its whole blocks (a partial block's redraws follow its length). A
# block is drawn in float64 (2 MB, near the cache) and rounded into the
# float32 table.
BLOCK_VALUES = 1 << 18


def _row_blocks(shape) -> list[slice]:
    """Consecutive slices of whole leading-axis rows, each holding at most
    BLOCK_VALUES values (but at least one row). Depends on the shape alone."""
    step = max(1, BLOCK_VALUES // int(np.prod(shape[1:])))
    return [slice(lo, min(lo + step, shape[0])) for lo in range(0, shape[0], step)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """float64 N(0, std) draws redrawn until within +-2 std."""
    x = np.empty(shape)
    rng.standard_normal(out=x)
    x *= std
    x += 0.0  # rng.normal(0.0, std) computes 0.0 + std * z; this keeps its bytes
    flat = x.reshape(-1)
    lim = 2 * std
    # two comparisons, not abs(): no float copy of the block
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
        """Fresh parameters: zeros, ones, or for "normal" tensors a +-2 std
        truncated normal whose block j is drawn from
        derive_rng(seed, "params", name, j) in float64 and rounded to
        DTYPE. The blocks are drawn on a thread pool with one thread per
        usable CPU (numpy's fill releases the GIL); the values do not
        depend on it."""
        tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        blocks = []
        for name, shape, kind in _param_specs(config):
            if kind == "normal":
                data = np.empty(shape, DTYPE)  # filled below, through views of its blocks
                blocks += [(name, j, data[rows]) for j, rows in enumerate(_row_blocks(shape))]
            elif kind == "ones":
                data = np.ones(shape, DTYPE)
            else:
                data = np.zeros(shape, DTYPE)
            tensors[name] = Tensor(data, requires_grad=True)

        def draw(block):
            name, j, out = block
            out[...] = _trunc_normal(derive_rng(seed, "params", name, j), out.shape, init_std)

        with ThreadPoolExecutor(min(len(blocks), _usable_cpus())) as pool:
            list(pool.map(draw, blocks))  # reading every result re-raises a worker's error
        return cls(config, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def shared_leaves(self, names=None) -> "ModelParams":
        """New leaf tensors over these same arrays, for the groups `names`
        (default: all). A tape recorded on them leaves its gradients on
        them, not on self, and an in-place update of self's arrays (Adam's)
        is an update of theirs."""
        tensors = OrderedDict(
            (name, Tensor(t.data, requires_grad=t.requires_grad))
            for name, t in self.items()
            if names is None or name in names
        )
        return ModelParams(self.config, tensors)

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


# an encoder layer's parameters, in the order autodiff.encoder takes them
LAYER_PARAMS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo", "ln1_g", "ln1_b",
                "ff_w1", "ff_b1", "ff_w2", "ff_b2", "ln2_g", "ln2_b")


def encode(params: ModelParams, tokens: np.ndarray, pad_mask: np.ndarray | None = None) -> Tensor:
    """Hidden states (B, T, d_model) for a padded batch of token ids.

    pad_mask is True at padding positions; padded keys are excluded from
    attention so non-pad outputs never depend on padding content. The layers
    are one tape node, `autodiff.encoder`, which keeps only its input (the
    embedding sum), each layer norm's normalised rows and row scales and the
    softmax's row statistics, and rebuilds the rest in its backward.
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
    key_bias = np.where(pad_mask, NEG_INF, 0.0).astype(H.data.dtype)
    layers = [tuple(params[f"layers.{i}.{n}"] for n in LAYER_PARAMS) for i in range(cfg.n_layers)]
    return ad.encoder(H, layers, key_bias, cfg.n_heads)


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


# Inference scores span vectors in row blocks of about this many scores (32 MB
# of float32), so its score matrix stays bounded however many spans it scores.
SCORE_BLOCK_VALUES = 1 << 23


def score_and_prob(
    params: ModelParams,
    svec: np.ndarray,
    candidates: list | None = None,
    top_k: int = 1,
    with_prob: bool = False,
) -> tuple[list[list[tuple[int, float]]], np.ndarray | None]:
    """Inference's one product with the entity table: each span vector's
    top_k (entity, score) pairs, best first, as _top_k ranks them (exact ties
    to the lowest entity id, NaN scores last), and, with_prob, its best
    entity's softmax probability 1 / sum exp(s - s_best), taken in place on
    its scores (finite for scores up to +-1e4; NaN where nothing ranks).

    Rows are scored in blocks of SCORE_BLOCK_VALUES // n_entities (at least
    one), against the full table or, given one entity-id list per row, the
    sorted union of the block's lists, whose columns each row then takes."""
    if candidates is not None and len(candidates) != len(svec):
        raise ValueError(f"{len(candidates)} candidate lists for {len(svec)} span vectors")
    emb = params["ent_emb"].data
    step = max(1, SCORE_BLOCK_VALUES // len(emb))
    ranked: list[list[tuple[int, float]]] = []
    sums = np.full(len(svec), np.nan, np.result_type(svec, emb)) if with_prob else None
    for lo in range(0, len(svec), step):
        union = own = None
        if candidates is not None:
            own = [np.sort(np.asarray(c, dtype=np.int64)) for c in candidates[lo : lo + step]]
            union = np.unique(np.concatenate(own))
        scores = svec[lo : lo + step] @ (emb if union is None else emb[union]).T
        for i, row in enumerate(scores):
            if own is not None:
                row = row[np.searchsorted(union, own[i])]
            top = _top_k(row, top_k)
            ents = top if own is None else own[i][top]
            ranked.append([(int(e), float(row[j])) for e, j in zip(ents, top)])
            if sums is not None and top.size:
                row -= row[top[0]]
                np.exp(row, out=row)
                sums[lo + i] = row.sum()
    return ranked, None if sums is None else 1.0 / sums


# ---------------------------------------------------------------------------
# Batches and losses
# ---------------------------------------------------------------------------


@dataclass
class ModelBatch:
    """Padded inputs plus linking/detection targets for one step, or for one
    shard of a step's batch (see split_batch). The two loss divisors,
    n_examples and n_tokens, count the whole batch, so the losses of a
    batch's shards sum to the batch's loss.

    Every mention is scored against the same entity rows: cand_rows, or the
    whole table when it is None. Per-mention candidate lists are the sorted
    union of the batch's lists, and cand_bias masks each mention's softmax
    down to its own list."""

    tokens: np.ndarray                 # (B, T) int64
    pad_mask: np.ndarray               # (B, T) bool, True at padding
    n_examples: int                    # examples in the whole batch
    ment_ex: np.ndarray                # (M,) example index per linked mention
    ment_start: np.ndarray             # (M,)
    ment_end: np.ndarray               # (M,)
    gold_pos: np.ndarray               # (M,) column of cand_rows, or entity id
    cand_rows: np.ndarray | None       # None (every entity) | (K,) entity rows
    cand_bias: np.ndarray | None       # None | (M, K) 0 on own candidates, NEG_INF elsewhere
    bio_targets: np.ndarray            # (B, T) int64 in {O, B, I}
    n_tokens: int                      # non-pad tokens in the whole batch


@dataclass(frozen=True)
class MentionTarget:
    """One linked mention prepared for the loss: its span, its gold entity
    id and, optionally, its own candidate entity ids."""

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
    mentions); linking targets come from targets_per_context, and every
    gold is an entity id. The batch scores shared_candidates when given.
    When instead each target carries its own candidate array (distinct,
    non-negative entities), the batch scores the sorted union of the
    arrays, with a per-mention bias of 0 on the mention's own entities and
    NEG_INF on the rest. gold_pos then holds each gold's column in those
    rows, found by one lookup. When neither, the loss runs over the full
    entity vocabulary and gold_pos holds the entity ids themselves.
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
    own: list[np.ndarray | None] = []
    for b, targets in enumerate(targets_per_context):
        for t in targets:
            cands = None if t.candidates is None else np.asarray(t.candidates, dtype=np.int64)
            if cands is not None and cands.size and (
                cands.min() < 0 or np.unique(cands).size < cands.size
            ):
                raise ValueError(
                    f"candidate list for span {t.span} repeats an entity or holds a "
                    "negative index"
                )
            ex.append(b)
            ss.append(t.span[0])
            ee.append(t.span[1])
            gold.append(t.gold)
            own.append(cands)

    gold = np.asarray(gold, dtype=np.int64)
    cand_rows = cand_bias = None
    if shared_candidates is not None:
        cand_rows = np.asarray(shared_candidates, dtype=np.int64)
    elif any(c is not None for c in own):
        if any(c is None for c in own):
            raise ValueError("mixed per-mention and full-vocabulary targets in one batch")
        cand_rows, cols = np.unique(np.concatenate(own), return_inverse=True)
        lens = np.array([len(c) for c in own])
        cand_bias = np.full((len(own), len(cand_rows)), NEG_INF, dtype=DTYPE)
        cand_bias[np.repeat(np.arange(len(own)), lens), cols] = 0.0
    if cand_rows is None:
        gold_pos, found = gold, gold >= 0
    else:
        order = np.argsort(cand_rows)
        # a gold past every row gets column -1, which the sentinel rejects
        gold_pos = np.append(order, -1)[np.searchsorted(cand_rows, gold, sorter=order)]
        found = (gold_pos >= 0) & (np.append(cand_rows, -1)[gold_pos] == gold)
        if cand_bias is not None:
            found &= cand_bias[np.arange(len(gold)), gold_pos] == 0.0
    if not found.all():
        m = int(np.argmin(found))
        raise ValueError(f"gold missing from candidate set for span {(ss[m], ee[m])}")

    return ModelBatch(
        tokens=tokens,
        pad_mask=pad_mask,
        n_examples=B,
        ment_ex=np.asarray(ex, dtype=np.int64),
        ment_start=np.asarray(ss, dtype=np.int64),
        ment_end=np.asarray(ee, dtype=np.int64),
        gold_pos=gold_pos,
        cand_rows=cand_rows,
        cand_bias=cand_bias,
        bio_targets=bio,
        n_tokens=int((~pad_mask).sum()),
    )


def split_batch(batch: ModelBatch, cut: int) -> tuple[ModelBatch, ModelBatch]:
    """The batch's examples [:cut] and [cut:] as two shards, whose losses
    sum to the batch's. Each shard keeps the batch's loss divisors and its
    candidate rows (or full-vocabulary scoring); per-mention bias rows go
    with their mentions. A shard is padded only to its own longest context:
    padding keys get exactly zero attention and pad positions zero loss
    weight, so the losses still sum to the batch's."""
    shards = []
    first = batch.ment_ex < cut
    for rows, ments in ((slice(0, cut), first), (slice(cut, None), ~first)):
        length = int((~batch.pad_mask[rows]).sum(axis=1).max(initial=1))
        cells = (rows, slice(0, length))
        shards.append(replace(
            batch,
            tokens=batch.tokens[cells],
            pad_mask=batch.pad_mask[cells],
            ment_ex=batch.ment_ex[ments] - rows.start,
            ment_start=batch.ment_start[ments],
            ment_end=batch.ment_end[ments],
            gold_pos=batch.gold_pos[ments],
            cand_bias=None if batch.cand_bias is None else batch.cand_bias[ments],
            bio_targets=batch.bio_targets[cells],
        ))
    return shards[0], shards[1]


def _no_links() -> dict:
    return {"linking_acc": float("nan"), "n_linked_mentions": 0, "n_correct_links": 0}


def linking_loss(
    params: ModelParams, H: Tensor, batch: ModelBatch, table: ad.TableRows | None = None
) -> tuple[Tensor, dict]:
    """Mean over the batch's examples of the summed per-mention candidate NLL.

    Unlinked mentions carry no target and contribute zero. Every gold must
    be present in its candidate row (guaranteed upstream). Scores and NLL
    are one `table_softmax_nll` node against the batch's candidate rows (or
    the full vocabulary), with the per-mention bias, if any, masking each
    mention's softmax down to its own candidates. `table` holds those rows
    of an `ent_emb` leaf, gathered once for every shard of a step that
    scores them, and must have been made from this batch's `cand_rows`
    (split_batch keeps them); by default they are gathered from params for
    this batch.
    """
    if table is not None and table.rows is not batch.cand_rows:
        raise ValueError("linking_loss: the TableRows was not made from this batch's cand_rows")
    if len(batch.ment_ex) == 0:
        return _zero(H), _no_links()
    svec = span_repr(params, H, batch.ment_ex, batch.ment_start, batch.ment_end)
    if table is None:
        table = ad.TableRows(params["ent_emb"], batch.cand_rows)
    nll, pred = ad.table_softmax_nll(svec, table, batch.gold_pos, batch.cand_bias)
    loss = nll.sum() * (1.0 / batch.n_examples)
    correct = int((pred == batch.gold_pos).sum())
    return loss, {
        "linking_acc": correct / len(batch.ment_ex),
        "n_linked_mentions": len(batch.ment_ex),
        "n_correct_links": correct,
    }


def bio_loss(params: ModelParams, H: Tensor, batch: ModelBatch) -> Tensor:
    """Mean per-token 3-way cross-entropy of the BIO head over the batch's
    non-pad positions: one weighted softmax_nll node, in which each non-pad
    position weighs 1/n_tokens and each pad position 0."""
    if batch.n_tokens == 0:
        return _zero(H)
    logits = ad.linear(H, params["bio_w"], params["bio_b"])
    weights = (~batch.pad_mask) * (1.0 / batch.n_tokens)
    return ad.softmax_nll(logits, batch.bio_targets, weights)


def _zero(H: Tensor) -> Tensor:
    """A constant 0 loss of H's dtype, which adds to a loss without upcasting it."""
    return Tensor(np.zeros((), H.data.dtype))


def total_loss(
    params: ModelParams,
    batch: ModelBatch,
    link_weight: float = 1.0,
    bio_weight: float = 1.0,
    table: ad.TableRows | None = None,
) -> tuple[Tensor, dict]:
    """Weighted sum of linking and mention-detection losses, plus metrics.
    `table` is linking_loss's."""
    H = encode(params, batch.tokens, batch.pad_mask)
    if link_weight != 0.0:
        link, metrics = linking_loss(params, H, batch, table)
    else:
        link = _zero(H)
        metrics = _no_links()
    bio = bio_loss(params, H, batch) if bio_weight != 0.0 else _zero(H)
    loss = link * link_weight + bio * bio_weight
    metrics["linking_loss"] = float(link.data)
    metrics["bio_loss"] = float(bio.data)
    metrics["loss"] = float(loss.data)
    return loss, metrics


def backward(loss: Tensor, params: ModelParams) -> dict[str, np.ndarray | ad.RowGrad]:
    """Exact reverse-mode gradients of a recorded loss for every parameter.

    Groups reached only through row gathers (the embedding tables) get a
    row-sparse RowGrad; the others get dense arrays. A group the loss did
    not reach gets an empty RowGrad, not a table of zeros.
    """
    params.zero_grad()
    loss.backward()
    return gradients(params)


def gradients(params: ModelParams) -> dict[str, np.ndarray | ad.RowGrad]:
    """Each group's gradient as backward() reports it, from the leaves'
    .grad: an empty RowGrad where none arrived (clipping checks finiteness)."""
    grads: dict[str, np.ndarray | ad.RowGrad] = {}
    for name, t in params.items():
        g = t.grad
        if g is None:
            shape = t.data.shape
            empty = np.empty((0,) + shape[1:], t.data.dtype)
            g = ad.RowGrad.of_rows(np.empty(0, np.int64), empty, shape)
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
    # the k-th smallest as partition finds it, NaNs last; for k = 1, fmin skips NaNs
    kth = np.fmin.reduce(neg) if k == 1 else np.partition(neg, k - 1)[k - 1]
    # ~(neg > kth), not neg <= kth: NaN scores stay in and sort last, as
    # the full sort places them
    keep = np.flatnonzero(~(neg > kth))
    return keep[np.argsort(neg[keep], kind="stable")[:k]]


def rank_entities(
    params: ModelParams, inputs: list[tuple], candidates: list | None = None, top_k: int = 2
) -> list[list[tuple[int, float]]]:
    """The top_k (entity, score) pairs, best first, of every span of every
    (tokens, spans) input, in input order. Each input is encoded on its own,
    unpadded, and all their span vectors are ranked in one score_and_prob
    call: over the full vocabulary, or each over its own entity-id list in
    candidates (one per span, in the same order)."""
    svecs = [_span_vectors(params, encode(params, t), spans) for t, spans in inputs if spans]
    if not svecs:
        return []
    return score_and_prob(params, np.concatenate(svecs), candidates, top_k)[0]


def predict_end_to_end(
    params: ModelParams, tokens, starts: range | None = None
) -> list[tuple[tuple[int, int], int, float]]:
    """Detect mention spans with the BIO head, then disambiguate every span
    over all entities in one score_and_prob call. Returns (span, entity,
    probability) triples; ties go to the lowest entity index. Given starts,
    only the spans that start in it are scored and returned."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        return []
    H = encode(params, tokens)
    logits = ad.linear(H, params["bio_w"], params["bio_b"]).data[0]
    spans = bio_decode(logits.argmax(axis=-1))
    if starts is not None:
        spans = [span for span in spans if span[0] in starts]
    if not spans:
        return []
    ranked, prob = score_and_prob(params, _span_vectors(params, H, spans), with_prob=True)
    return [(span, top[0][0], float(p)) for span, top, p in zip(spans, ranked, prob)]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParams) -> None:
    """Binary checkpoint: magic, version, config JSON, then each tensor in
    declaration order as little-endian float32, row-major.

    It is written to a temporary file beside its target and then renamed
    over it, so a write that fails part-way leaves the previous checkpoint
    as it was and no temporary file behind.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    cfg_json = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg_json)))
            f.write(cfg_json)
            for _, t in params.items():
                # block by block: a float64 table is cast without a whole copy, and
                # 1 MB writes of the 100 MB e100k table ran 2-3x faster than one
                for rows in _row_blocks(t.data.shape):
                    f.write(np.ascontiguousarray(t.data[rows], dtype="<f4").data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, requires_grad: bool = True) -> ModelParams:
    """Parameters from a checkpoint file, each tensor read from the file
    straight into its own (aligned, writable) DTYPE array. With
    requires_grad False they are constants, so inference on them records
    no autodiff graph. A malformed file raises CheckpointError, whose
    message starts with the path."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 12:
            raise CheckpointError(f"{path}: truncated header ({len(head)} of 12 bytes)")
        version, cfg_len = struct.unpack("<II", head[4:])
        if version == 1:
            raise CheckpointError(f"{path}: checkpoint version 1 holds the key biases "
                                  "layers.N.bk, which version 2 dropped; retrain the model")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        block = f.read(cfg_len)
        if len(block) < cfg_len:
            raise CheckpointError(
                f"{path}: truncated config block ({len(block)} of {cfg_len} bytes)")
        try:
            fields = json.loads(block.decode("utf-8"))
            if type(fields) is not dict:
                raise ValueError("not a JSON object")
            for name, value in fields.items():
                # exact type: bool is an int subclass, and is rejected too
                if type(value) is not int:
                    raise ValueError(f"{name} {json.dumps(value)} is not an integer")
            cfg = ModelConfig(**fields)
        except (TypeError, ValueError) as exc:   # JSON and UTF-8 errors are ValueErrors
            raise CheckpointError(f"{path}: bad config block: {exc}") from exc
        offset = 12 + cfg_len
        tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        for name, shape, _ in _param_specs(cfg):
            data = np.empty(shape, "<f4")
            if offset + data.nbytes > size or f.readinto(data) != data.nbytes:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            tensors[name] = Tensor(data.astype(DTYPE, copy=False), requires_grad=requires_grad)
            offset += data.nbytes
    if offset != size:
        raise CheckpointError(f"{path}: {size - offset} trailing bytes")
    return ModelParams(cfg, tensors)
