"""Optimization loop: Adam with linear warmup/decay and gradient clipping.

Pretraining samples batches of corpus contexts, assembles per-example
candidate sets extended with in-batch negatives, optionally noises the
inputs, and optimizes the summed linking + mention-detection loss.
Fine-tuning reuses the loop with per-mention alias-table candidates or a
full-vocabulary softmax.

Each step runs its batch as two shards, the first ceil(B/2) examples and
the rest, each recording its own tape on its own thread, and sums their
gradients (shard 0's, then shard 1's) before one clip and one Adam update.
The entity rows that both shards score are gathered once per step, and both
shards' table gradient is written into that one buffer (autodiff.TableRows),
so `ent_emb` has one gradient, which is not summed. A step's batch, tapes
and gradients die with the step, so the next step's forward does not run
beside them.
For the whole loop OpenBLAS runs on one thread, so training uses at most two
cores, and a shard's bytes do not depend on the thread that computes it or
on the core count. All randomness is derived from config seeds, so
identical configs produce bytewise-identical checkpoints and logs, on any
number of cores when numpy's OpenBLAS is found (see threads).
"""

import contextvars
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import threads
from .aliastable import AliasTable
from .autodiff import RowGrad, TableRows, add_grads, grad_values
from .candidates import CandidateConfig, PageLinks, assemble_candidates, batch_negatives
from .corpus import Context, TokenVocab
from .model import MentionTarget, ModelConfig, ModelParams, build_batch, save_checkpoint
from .noising import NoiseConfig, apply_noise
from .seeding import derive_rng, derive_seed

log = logging.getLogger(__name__)

SOFTMAX_MODES = ("candidates", "all_entities")
_ADAM_CHUNK = 1 << 15  # elements per Adam update chunk

Grad = np.ndarray | RowGrad


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; the last good checkpoint (if any) is retained."""

    def __init__(self, step: int, last_checkpoint: str | None):
        at = f"step {step}"
        where = last_checkpoint or "none"
        super().__init__(f"non-finite loss at {at}; last good checkpoint: {where}")
        self.step = step
        self.last_checkpoint = last_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 1e-4
    total_steps: int = 1000
    warmup_frac: float = 0.10
    batch_size: int = 32
    clip_norm: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    freeze_entity_embeddings: bool = False
    link_weight: float = 1.0
    bio_weight: float = 1.0
    softmax_mode: str = "candidates"
    log_interval: int = 50
    checkpoint_interval: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in (0, 1)")
        if self.total_steps <= 0 or self.batch_size <= 0:
            raise ValueError("total_steps and batch_size must be positive")
        # negated comparisons and isfinite, so a NaN fails them too
        for key in ("base_lr", "clip_norm"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite")
        for key in ("link_weight", "bio_weight"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must be in [0, 1)")
        if self.log_interval < 1:
            raise ValueError("log_interval must be >= 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.softmax_mode not in SOFTMAX_MODES:
            raise ValueError(f"softmax_mode must be one of {SOFTMAX_MODES}")


@dataclass
class HeldMoments:
    """Adam moments of one parameter group, kept for its held rows only.

    A row is held once any gradient has reached it. `order[:n]` lists the
    held rows in first-reach order, `slot` maps a row to its index there
    (-1 while the row is not held), and slot i of `m` and `v` holds the
    moments of held row i. `m` and `v` are np.zeros of the parameter's
    dtype, whose pages stay unmapped until a slot is used, so a row no
    gradient has reached costs no memory and no work.
    """

    m: np.ndarray
    v: np.ndarray
    slot: np.ndarray
    order: np.ndarray
    n: int = 0

    @classmethod
    def for_shape(cls, shape: tuple, dtype) -> "HeldMoments":
        return cls(
            m=np.zeros(shape, dtype),
            v=np.zeros(shape, dtype),
            slot=np.full(shape[0], -1, dtype=np.int64),
            order=np.empty(shape[0], dtype=np.int64),
        )

    def hold(self, rows: np.ndarray) -> np.ndarray:
        """Hold the sorted, unique `rows` (new ones go last, in row order)
        and return their slots."""
        slots = self.slot[rows]
        new = rows[slots < 0]
        if len(new):
            lo, hi = self.n, self.n + len(new)
            self.order[lo:hi] = new
            self.slot[new] = np.arange(lo, hi)
            self.n = hi
            slots = self.slot[rows]
        return slots


@dataclass
class OptimizerState:
    moments: dict[str, HeldMoments]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimizerState":
        moments = {k: HeldMoments.for_shape(t.data.shape, t.data.dtype) for k, t in params.items()}
        return cls(moments=moments)


@dataclass
class LogRow:
    step: int
    lr: float
    loss: float
    linking_acc: float

    def tsv(self) -> str:
        return f"{self.step}\t{self.lr!r}\t{self.loss!r}\t{self.linking_acc!r}"


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear 0 -> base_lr over the warmup fraction, then linear to 0."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    warmup = cfg.warmup_frac * cfg.total_steps
    if step <= warmup:
        return cfg.base_lr * step / warmup
    return cfg.base_lr * (cfg.total_steps - step) / (cfg.total_steps - warmup)


def clip_gradients(grads: dict[str, Grad], clip_norm: float) -> dict[str, Grad]:
    """Scale all gradients so the global L2 norm is at most clip_norm.

    A RowGrad contributes and is scaled through its stored rows only. A
    group whose sum of squares is not finite raises GradientError naming it.
    """
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    sq = 0.0
    for name, g in grads.items():
        flat = grad_values(g).reshape(-1)
        group = float(flat @ flat)
        if not math.isfinite(group):
            raise M.GradientError(f"non-finite gradient in parameter group {name!r}")
        sq += group
    norm = math.sqrt(sq)  # a Python float: scaling by it runs in each gradient's dtype
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in grads.values():
            vals = grad_values(g)
            vals *= scale
    return grads


def adam_step(
    params: ModelParams,
    grads: dict[str, Grad],
    state: OptimizerState,
    lr: float,
    cfg: TrainConfig,
) -> OptimizerState:
    """One bias-corrected Adam update in place; frozen groups are skipped.

    A dense gradient is the RowGrad of all rows. The update is exact dense
    Adam (momentum moves rows this step did not reach), made in one pass
    over chunks of held slots: each chunk decays its moments, adds the
    gradient rows that fall in it, computes its update into scratch buffers
    and checks it for finiteness before applying it to its held rows. A row
    that no gradient has reached has m = v = 0, so dense Adam's update of
    it is exactly 0.0; skipping it changes no byte.
    """
    state.step += 1
    t = state.step
    frozen = {"ent_emb"} if cfg.freeze_entity_embeddings else set()
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, tensor in params.items():
        if name in frozen:
            continue
        g = grads[name]
        held, p = state.moments[name], tensor.data
        slots = held.hold(g.rows if isinstance(g, RowGrad) else np.arange(len(p)))
        n = held.n
        vals = grad_values(g)
        # the gradient entries in slot order (rows come sorted, slots may not)
        by_slot = None
        if len(slots) > 1 and (slots[1:] < slots[:-1]).any():
            by_slot = np.argsort(slots)
            slots = slots[by_slot]
        chunk = max(1, _ADAM_CHUNK // max(1, math.prod(p.shape[1:])))
        cuts = np.searchsorted(slots, range(0, n + chunk, chunk))
        num = np.empty((min(chunk, n),) + p.shape[1:], p.dtype)
        den = np.empty_like(num)
        for j, lo in enumerate(range(0, n, chunk)):
            hi = min(lo + chunk, n)
            mc, vc = held.m[lo:hi], held.v[lo:hi]
            mc *= cfg.beta1
            vc *= cfg.beta2
            cut = slice(cuts[j], cuts[j + 1])
            at = slots[cut] - lo
            gv = vals[cut] if by_slot is None else vals[by_slot[cut]]
            mc[at] += (1.0 - cfg.beta1) * gv
            vc[at] += (1.0 - cfg.beta2) * gv * gv
            a, b = num[: hi - lo], den[: hi - lo]
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), in the textbook's op order
            np.divide(mc, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(vc, bc2, out=b)
            np.sqrt(b, out=b)
            b += cfg.eps
            a /= b
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite Adam update for parameter group {name!r}")
            rows = held.order[lo:hi]
            p[rows] = np.subtract(p[rows], a, out=a)
    return state


def _epoch_batches(n: int, batch_size: int, total_steps: int, rng) -> list[np.ndarray]:
    """Batch index lists covering total_steps, reshuffled each epoch."""
    batches = []
    while len(batches) < total_steps:
        order = rng.permutation(n)
        for i in range(0, n, batch_size):
            batches.append(order[i : i + batch_size])
            if len(batches) == total_steps:
                break
    return batches


class _RunLogger:
    def __init__(self, out_dir: str | None):
        self.rows: list[LogRow] = []
        self.out_dir = out_dir
        self._fh = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            self._fh = open(os.path.join(out_dir, "train_log.tsv"), "w", encoding="utf-8")
            self._fh.write("step\tlr\tloss\tlinking_acc\n")

    def log(self, row: LogRow):
        self.rows.append(row)
        log.info("step %d lr %.3g loss %.4f acc %.3f", row.step, row.lr, row.loss, row.linking_acc)
        if self._fh is not None:
            self._fh.write(row.tsv() + "\n")
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()


def _on_shards(worker: ThreadPoolExecutor | None, fn, shard_args: list[tuple], abort) -> list:
    """fn(*args) for each shard's args, in shard order. With a worker, the
    second shard's call runs on it, in a copy of this thread's context (so
    np.errstate holds there too), while this thread runs the first. A call
    that raises calls abort() (TableRows.abort), which ends the other's wait
    at the shards' meeting with threading.BrokenBarrierError; the failing
    shard's own exception is raised here."""
    if worker is None or len(shard_args) == 1:
        return [fn(*args) for args in shard_args]

    def call(*args):
        try:
            return fn(*args)
        except BaseException:
            abort()
            raise

    second = worker.submit(contextvars.copy_context().run, call, *shard_args[1])
    try:
        first = call(*shard_args[0])
    except threading.BrokenBarrierError:
        second.result()   # the second shard's own error, which broke the meeting
        raise
    return [first, second.result()]


def _sum_shards(shard_grads: list[dict[str, Grad]]) -> dict[str, Grad]:
    """Each group's gradient summed over the shards, shard 0's first.
    `ent_emb` is not among them: its one gradient is the step's TableRows'."""
    grads = shard_grads[0]
    for other in shard_grads[1:]:
        for name, g in other.items():
            grads[name] = add_grads(grads[name], g)
    return grads


def _run_loop(params, batches_fn, train_cfg, out_dir) -> tuple[ModelParams, list[LogRow]]:
    """Shared optimizer loop: sharded forward and backward, clip, Adam, logs,
    checkpoints.

    A step splits its batch into two shards (model.split_batch), the first
    ceil(B/2) examples and the rest; a shard with no examples (B=1) is
    skipped. Each shard records its tape on its own leaf tensors, which share
    params' arrays, except `ent_emb`: the step gathers the batch's entity
    rows once, as one TableRows over a leaf of its own, and both shards score
    against them and write their table gradient into them. Both forwards
    finish before the summed loss is checked, so a non-finite loss stops the
    run before any backward; the shards' other gradients are then summed in
    shard order, and all are clipped and applied once. The shards run on two
    threads when numpy's OpenBLAS is found and two CPUs are usable, else one
    after the other on this thread; the bytes are the same.
    """
    state = OptimizerState.for_params(params)
    logger = _RunLogger(out_dir)
    last_ckpt = None
    own = [n for n in params.names() if n != "ent_emb"]
    shards = [params.shared_leaves(own), params.shared_leaves(own)]
    entities = params.shared_leaves(["ent_emb"])

    def forward(leaves, batch, table):
        return M.total_loss(leaves, batch, train_cfg.link_weight, train_cfg.bio_weight, table)

    def train_step(step: int, worker) -> LogRow:
        """One clipped Adam step. Its batch, losses and gradients are locals,
        so they die when it returns, before the next step's batch is built."""
        batch = batches_fn(step)
        parts = M.split_batch(batch, (batch.n_examples + 1) // 2)
        live = [(leaves, b) for leaves, b in zip(shards, parts) if len(b.tokens)]
        table = TableRows(entities["ent_emb"], batch.cand_rows, concurrent=worker is not None)
        outs = _on_shards(worker, forward, [(leaves, b, table) for leaves, b in live], table.abort)
        loss = sum(out[0].data for out in outs)
        if not np.isfinite(loss):
            raise TrainingDiverged(step, last_ckpt)
        grads = _sum_shards(_on_shards(
            worker, M.backward, [(out[0], leaves) for out, (leaves, _) in zip(outs, live)],
            table.abort,
        ))
        grads.update(M.gradients(entities))
        # params' order, in which clipping sums the squared norms
        grads = {name: grads[name] for name in params.names()}
        for leaves in shards + [entities]:
            leaves.zero_grad()  # grads holds what it needs of them
        clip_gradients(grads, train_cfg.clip_norm)
        lr = lr_schedule(step, train_cfg)
        adam_step(params, grads, state, lr, train_cfg)
        n_linked = sum(m["n_linked_mentions"] for _, m in outs)
        correct = sum(m["n_correct_links"] for _, m in outs)
        acc = correct / n_linked if n_linked else float("nan")
        return LogRow(step=step, lr=lr, loss=float(loss), linking_acc=acc)

    try:
        with threads.one_blas_thread() as pinned, ThreadPoolExecutor(1) as pool:
            worker = pool if pinned and M._usable_cpus() > 1 else None
            for step in range(1, train_cfg.total_steps + 1):
                row = train_step(step, worker)
                if step % train_cfg.log_interval == 0 or step == train_cfg.total_steps:
                    logger.log(row)
                if (
                    out_dir is not None
                    and train_cfg.checkpoint_interval > 0
                    and step % train_cfg.checkpoint_interval == 0
                ):
                    last_ckpt = os.path.join(out_dir, f"ckpt_step{step}.elck")
                    save_checkpoint(last_ckpt, params)
    finally:
        logger.close()
    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "checkpoint.elck"), params)
    return params, logger.rows


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


def pretrain(
    contexts: list[Context],
    vocab: TokenVocab,
    n_entities: int,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    cand_cfg: CandidateConfig,
    noise_cfg: NoiseConfig,
    page_links: PageLinks | None = None,
    phrase_table: AliasTable | None = None,
    params: ModelParams | None = None,
    out_dir: str | None = None,
) -> tuple[ModelParams, list[LogRow]]:
    """Train from scratch on corpus contexts with sampled-softmax candidates.

    Each step: sample a batch, assemble per-example candidates, extend with
    in-batch negatives, noise the inputs, and take one clipped Adam step on
    the summed linking + detection loss.
    """
    if not contexts:
        raise ValueError("pretraining corpus is empty")
    if params is None:
        params = ModelParams.initialize(model_cfg, derive_seed(train_cfg.rng_seed, "init"))
    batch_rng = derive_rng(train_cfg.rng_seed, "batch-order")
    batches = _epoch_batches(len(contexts), train_cfg.batch_size, train_cfg.total_steps, batch_rng)
    full_softmax = train_cfg.softmax_mode == "all_entities"

    def make_batch(step: int) -> M.ModelBatch:
        idxs = batches[step - 1]
        batch_ctx = [contexts[i] for i in idxs]
        noise_rng = derive_rng(noise_cfg.rng_seed, "noise", step)
        tokens_override = None
        if noise_cfg.enabled:
            tokens_override = [
                apply_noise(c.tokens, noise_cfg, vocab, noise_rng)[0] for c in batch_ctx
            ]
        targets = [
            [MentionTarget(span=l.span, gold=l.entity) for l in c.labels if l.entity is not None]
            for c in batch_ctx
        ]
        if full_softmax:
            return build_batch(batch_ctx, vocab.pad_index, targets, None, tokens_override)

        cand_rng = derive_rng(cand_cfg.rng_seed, "candidates", step)
        sets = [
            assemble_candidates(
                c.labels, c.doc_id, cand_cfg, page_links, phrase_table, n_entities, cand_rng
            )
            for c in batch_ctx
        ]
        sets = batch_negatives(sets)
        union = np.asarray(sets[0].entities if sets else [], dtype=np.int64)
        return build_batch(batch_ctx, vocab.pad_index, targets, union, tokens_override)

    return _run_loop(params, make_batch, train_cfg, out_dir)


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------


@dataclass
class FinetuneReport:
    skipped_mentions: int = 0


def finetune(
    params: ModelParams,
    contexts: list[Context],
    vocab: TokenVocab,
    train_cfg: TrainConfig,
    alias_table: AliasTable | None = None,
    out_dir: str | None = None,
) -> tuple[ModelParams, list[LogRow], FinetuneReport]:
    """Continue training on a labeled dataset.

    softmax_mode "candidates": each mention's softmax runs over the alias
    table lookup of its surface; mentions whose gold is absent from the
    lookup are skipped and counted. "all_entities": the softmax spans the
    whole entity vocabulary and no table is needed.
    """
    all_entities = train_cfg.softmax_mode == "all_entities"
    if not all_entities and alias_table is None:
        raise ValueError("softmax_mode candidates requires an alias table")
    if not contexts:
        raise ValueError("fine-tuning dataset is empty")

    report = FinetuneReport()
    prepared: list[list[MentionTarget]] = []
    for c in contexts:
        targets = []
        for l in c.labels:
            if l.entity is None:
                continue
            if all_entities:
                targets.append(MentionTarget(span=l.span, gold=l.entity))
                continue
            cands = alias_table.lookup(l.surface or "")
            if l.entity not in cands:
                report.skipped_mentions += 1
                continue
            targets.append(
                MentionTarget(
                    span=l.span, gold=l.entity, candidates=np.asarray(cands, dtype=np.int64)
                )
            )
        prepared.append(targets)
    if report.skipped_mentions:
        log.warning(
            "finetune: skipped %d mentions whose gold is missing from alias candidates",
            report.skipped_mentions,
        )

    batch_rng = derive_rng(train_cfg.rng_seed, "batch-order")
    batches = _epoch_batches(len(contexts), train_cfg.batch_size, train_cfg.total_steps, batch_rng)

    def make_batch(step: int) -> M.ModelBatch:
        idxs = batches[step - 1]
        return build_batch(
            [contexts[i] for i in idxs],
            vocab.pad_index,
            [prepared[i] for i in idxs],
        )

    params, rows = _run_loop(params, make_batch, train_cfg, out_dir)
    return params, rows, report
