"""Shared test machinery: synthetic fixtures and independent oracles.

The oracles here deliberately avoid the library's vectorized code paths
(explicit Python loops over exp/sum) so they can serve as independent
references for the loss and metric implementations.
"""

import math
import weakref
from collections import OrderedDict

import numpy as np

from elink import autodiff as ad
from elink.aliastable import AliasTable
from elink.autodiff import RowGrad, Tensor
from elink.candidates import PageLinks
from elink.corpus import Context, MentionLabel, TokenVocab
from elink.model import ModelParams, rank_entities

N_FILLERS = 20


def as_float64(params: ModelParams) -> ModelParams:
    """A float64 copy of params. The tape follows the parameters' dtype, so
    the float64 checks (finite differences, loss and ranking oracles,
    bytewise Adam references) run the training code itself in float64."""
    tensors = OrderedDict(
        (name, Tensor(t.data.astype(np.float64), requires_grad=t.requires_grad))
        for name, t in params.items()
    )
    return ModelParams(params.config, tensors)


def make_world(n_entities=200, n_contexts=50, seed=0, ctx_len=12, mentions_per_context=2):
    """A tiny linking world with planted mention/entity correlations.

    Entity i surfaces as name token "n{i//2}" (so entity pairs share an
    ambiguous name) and co-occurs with its unique topic token "t{i}"; a
    model must combine both to disambiguate. Returns (token vocab,
    contexts, phrase table, page links).
    """
    rng = np.random.default_rng(seed)
    n_names = n_entities // 2
    tokens = ["[PAD]", "[UNK]", "[MASK]", "[SEP]"]
    tokens += [f"f{i}" for i in range(N_FILLERS)]
    name_base = len(tokens)
    tokens += [f"n{i}" for i in range(n_names)]
    topic_base = len(tokens)
    tokens += [f"t{i}" for i in range(n_entities)]
    vocab = TokenVocab(tokens)

    contexts = []
    for j in range(n_contexts):
        ents = rng.choice(n_entities, size=mentions_per_context, replace=False)
        toks = (4 + rng.integers(0, N_FILLERS, size=ctx_len)).tolist()
        positions = rng.choice(ctx_len - 1, size=2 * mentions_per_context, replace=False)
        labels = []
        for m, ent in enumerate(ents):
            p_name, p_topic = int(positions[2 * m]), int(positions[2 * m + 1])
            toks[p_name] = name_base + int(ent) // 2
            toks[p_topic] = topic_base + int(ent)
            labels.append(MentionLabel((p_name, p_name), int(ent), f"n{int(ent) // 2}"))
        contexts.append(
            Context(
                tokens=toks,
                char_offsets=[(i, i + 1) for i in range(ctx_len)],
                doc_id=f"doc{j}",
                labels=labels,
            )
        )

    phrase = AliasTable({f"n{i}": [2 * i, 2 * i + 1] for i in range(n_names)})
    pages = PageLinks({c.doc_id: [l.entity for l in c.labels] for c in contexts})
    return vocab, contexts, phrase, pages


def top1(params, tokens, spans, candidates=None) -> list[int]:
    """Each span's best entity: rank_entities with top_k=1."""
    return [ranked[0][0] for ranked in rank_entities(params, [(tokens, spans)], candidates, top_k=1)]


def all_entity_accuracy(params, contexts) -> float:
    """Disambiguation accuracy (%) over the full entity vocabulary, gold spans."""
    correct = total = 0
    for c in contexts:
        labeled = [l for l in c.labels if l.entity is not None]
        if not labeled:
            continue
        preds = top1(params, c.tokens, [l.span for l in labeled])
        for p, l in zip(preds, labeled):
            total += 1
            correct += int(p == l.entity)
    return 100.0 * correct / total


def make_raw_world(out_dir, n_entities=10, n_docs=20, seed=0):
    """Raw-file twin of make_world for CLI runs: documents JSONL, vocab
    files, page-link / phrase-table / alias TSVs, written under out_dir.

    Returns a dict of paths plus the in-memory documents.
    """
    import json

    rng = np.random.default_rng(seed)
    n_names = n_entities // 2
    fillers = [f"f{i}" for i in range(N_FILLERS)]
    names = [f"n{i}" for i in range(n_names)]
    topics = [f"t{i}" for i in range(n_entities)]
    tokens = ["[PAD]", "[UNK]", "[MASK]", "[SEP]"] + fillers + names + topics

    docs = []
    for j in range(n_docs):
        ents = rng.choice(n_entities, size=2, replace=False)
        words, mentions = [], []
        pos = 0
        for ent in ents:
            for w, is_mention in (
                (fillers[int(rng.integers(0, N_FILLERS))], False),
                (names[int(ent) // 2], True),
                (topics[int(ent)], False),
            ):
                if is_mention:
                    mentions.append(
                        {"start_char": pos, "end_char": pos + len(w), "entity": f"E{int(ent)}"}
                    )
                words.append(w)
                pos += len(w) + 1
        docs.append(
            {
                "doc_id": f"doc{j}",
                "title": f"title {j}",
                "text": " ".join(words),
                "mentions": mentions,
            }
        )

    paths = {
        "docs": str(out_dir / "docs.jsonl"),
        "token_vocab": str(out_dir / "tokens.txt"),
        "entity_vocab": str(out_dir / "entities.txt"),
        "page_links": str(out_dir / "page_links.tsv"),
        "phrase_table": str(out_dir / "phrase.tsv"),
        "alias_table": str(out_dir / "aliases.tsv"),
    }
    with open(paths["docs"], "w", encoding="utf-8") as f:
        for d in docs:
            f.write(json.dumps(d) + "\n")
    with open(paths["token_vocab"], "w", encoding="utf-8") as f:
        f.write("\n".join(tokens) + "\n")
    with open(paths["entity_vocab"], "w", encoding="utf-8") as f:
        f.write("\n".join(f"E{i}" for i in range(n_entities)) + "\n")
    with open(paths["page_links"], "w", encoding="utf-8") as f:
        for d in docs:
            for m in d["mentions"]:
                f.write(f"{d['doc_id']}\t{m['entity']}\n")
    with open(paths["phrase_table"], "w", encoding="utf-8") as f:
        for i in range(n_names):
            f.write(f"n{i}\tE{2 * i}\t0\n")
            f.write(f"n{i}\tE{2 * i + 1}\t1\n")
    with open(paths["alias_table"], "w", encoding="utf-8") as f:
        for i in range(n_names):
            f.write(f"n{i}\tE{2 * i}\n")
            f.write(f"n{i}\tE{2 * i + 1}\n")
    return paths, docs


def save_documents(path, docs) -> None:
    """Write Documents as the documents JSONL that corpus.load_documents reads."""
    import json

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


def candidate_invariant_sweep(master: np.random.Generator, n_trials: int) -> None:
    """Randomized assemble_candidates calls asserting the spec invariants.

    Runs in a regime where random entries are exactly observable: source
    pools sized to their budgets with golds drawn from the pools, so every
    chosen entity outside the pools must have come from the uniform-random
    fill. Asserts exact size, no duplicates, gold containment, determinism,
    and the min_random floor on every trial.
    """
    from elink.candidates import CandidateConfig, assemble_candidates
    from elink.corpus import MentionLabel

    for _ in range(n_trials):
        k = int(master.integers(6, 40))
        min_random = int(master.integers(1, max(2, k // 3)))
        left = k - min_random
        max_page = int(master.integers(0, left + 1))
        max_phrase = int(master.integers(0, left - max_page + 1))
        n_ent = int(master.integers(k + 20, k + 200))
        cfg = CandidateConfig(k=k, max_page=max_page, max_phrase=max_phrase,
                              min_random=min_random, rng_seed=int(master.integers(0, 2**32)))

        pool = master.permutation(n_ent)
        page_pool = [int(e) for e in pool[:max_page]]
        phrase_pool = [int(e) for e in pool[max_page : max_page + max_phrase]]
        links = PageLinks({"d": page_pool})
        phrase = AliasTable({"s": phrase_pool})
        sourced = page_pool + phrase_pool

        n_golds = int(master.integers(0, min(3, len(sourced)) + 1)) if sourced else 0
        golds = []
        if n_golds:
            picks = master.choice(len(sourced), size=n_golds, replace=False)
            golds = list(dict.fromkeys(sourced[int(i)] for i in picks))
        labels = [MentionLabel((0, 0), g, "s") for g in golds] or [MentionLabel((0, 0), None, "s")]
        a = assemble_candidates(labels, "d", cfg, links, phrase, n_ent)
        b = assemble_candidates(labels, "d", cfg, links, phrase, n_ent)

        assert len(a.entities) == k, "exact size"
        assert len(set(a.entities)) == k, "no duplicates"
        for g in golds:
            assert a.entities.count(g) == 1, "gold containment"
        assert a.entities == b.entities, "determinism"
        assert [a.entities.index(g) for g in golds] == [b.entities.index(g) for g in golds], (
            "determinism"
        )
        n_random = sum(1 for e in a.entities if e not in set(sourced))
        assert n_random >= min_random, "random floor"


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def oracle_softmax_nll(scores_row, gold_idx) -> float:
    """Negative log softmax probability via explicit exp/sum loops."""
    m = max(scores_row)
    denom = 0.0
    for s in scores_row:
        denom += math.exp(s - m)
    return -((scores_row[gold_idx] - m) - math.log(denom))


def oracle_linking_loss(score_rows, gold_positions, n_examples, example_of) -> float:
    """Sum of per-mention NLLs grouped by example, averaged over examples."""
    per_example = [0.0] * n_examples
    for row, gold, ex in zip(score_rows, gold_positions, example_of):
        per_example[ex] += oracle_softmax_nll(list(row), gold)
    return sum(per_example) / n_examples


def oracle_bio_loss(logits, targets, valid) -> float:
    """Mean per-valid-token 3-way cross-entropy via explicit loops."""
    total = 0.0
    count = 0
    B, T, _ = logits.shape
    for b in range(B):
        for t in range(T):
            if not valid[b][t]:
                continue
            total += oracle_softmax_nll(list(logits[b][t]), int(targets[b][t]))
            count += 1
    return total / count if count else 0.0


def oracle_micro_f1(pred_docs, gold_docs):
    """Micro P/R/F1 by brute-force set intersection."""
    tp = n_pred = n_gold = 0
    for preds, golds in zip(pred_docs, gold_docs):
        pset, gset = set(preds), set(golds)
        n_pred += len(pset)
        n_gold += len(gset)
        for item in pset:
            if item in gset:
                tp += 1
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def fd_group_errors(loss_fn, params, h=1e-3, norm_floor=1e-6) -> dict[str, float]:
    """Per-parameter-group relative error between analytic gradients and
    central finite differences. Give it float64 parameters (as_float64):
    a step of h=1e-3 is below float32 loss resolution.

    The floor keeps structurally-zero-gradient groups (e.g. attention key
    biases, which cancel in the softmax) from turning FD round-off noise
    into a spurious relative error.
    """
    from elink.model import backward

    if any(t.data.dtype != np.float64 for _, t in params.items()):
        raise TypeError("finite differences need float64 parameters (see as_float64)")
    grads = backward(loss_fn(), params)
    report = {}
    for name, tensor in params.items():
        analytic = grads[name]
        if isinstance(analytic, RowGrad):
            analytic = analytic.dense()
        numeric = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(loss_fn().data)
            flat[i] = orig - h
            fm = float(loss_fn().data)
            flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * h)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), norm_floor)
        report[name] = float(np.linalg.norm(analytic - numeric) / denom)
    return report


def dense_moments(state) -> tuple[dict, dict]:
    """Table-shaped Adam m and v from an OptimizerState that keeps moments
    for held rows only: each held row's slot copied to the row, 0.0 elsewhere."""
    m, v = {}, {}
    for name, held in state.moments.items():
        rows = held.order[: held.n]
        m[name], v[name] = np.zeros_like(held.m), np.zeros_like(held.v)
        m[name][rows] = held.m[: held.n]
        v[name][rows] = held.v[: held.n]
    return m, v


def attention_state_refs(monkeypatch) -> list:
    """Patch autodiff.encoder to record a weakref to each layer's softmax row
    maxima, which only that node's backward rule holds."""
    refs = []
    orig = ad.encoder

    def encoder(*args, **kwargs):
        out = orig(*args, **kwargs)
        rule = out._backward
        kept = rule.__closure__[rule.__code__.co_freevars.index("kept")].cell_contents
        refs.extend(weakref.ref(layer[2]) for layer in kept)
        return out

    monkeypatch.setattr(ad, "encoder", encoder)
    return refs


def unfused_attention(q, k, v, key_bias, n_heads) -> Tensor:
    """The reference for autodiff.encoder's attention: multi-head scaled
    dot-product attention over (B, T, d) tensors as a node of its own, over
    the whole batch at once, with the fused node's ops in its order, so the
    two agree to the byte. It takes each row's max with a max pass, and it
    keeps its (B, H, T, T) probabilities for its backward rather than
    rebuilding them."""
    B, T, d = q.data.shape
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def heads(x):
        return x.reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(B, T, d)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    p = heads(q.data * scale) @ kh.swapaxes(-1, -2)
    p += key_bias[:, None, None, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.einsum("ij->i", p.reshape(-1, T)).reshape(B, n_heads, T, 1)
    ctx = merge(p @ vh)
    out = Tensor(ctx, _parents=(q, k, v))

    def bwd(g):
        gh = heads(g)
        ad._accum(v, merge(p.swapaxes(-1, -2) @ gh))
        gs = gh @ vh.swapaxes(-1, -2)
        gs -= (gh * heads(ctx)).sum(axis=-1, keepdims=True)
        gs *= p
        gq = merge(gs @ kh)
        gq *= scale
        ad._accum(q, gq)
        gk = merge(gs.swapaxes(-1, -2) @ qh)
        gk *= scale
        ad._accum(k, gk)

    out._backward = bwd
    return out


def unfused_matmul(x, w) -> Tensor:
    """x @ w over any leading dims as a node of its own: the reference for
    the encoder's key projection, which has no bias. Forward and backward
    are `linear`'s GEMMs without the bias."""
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = Tensor((x2 @ w.data).reshape(x.data.shape[:-1] + w.data.shape[1:]), _parents=(x, w))

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        ad._accum(w, x2.T @ g2)
        ad._accum(x, (g2 @ w.data.T).reshape(x.data.shape))

    out._backward = bwd
    return out


def unfused_attention_sublayer(H, wq, bq, wk, wv, bv, wo, bo, gain, bias, key_bias,
                               n_heads) -> Tensor:
    """The reference for an autodiff.encoder layer's attention sublayer,
    LN1(H + attention(H wq + bq, H wk, H wv + bv) wo + bo): `linear` nodes
    for q and v, unfused_matmul for k, unfused_attention and
    unfused_residual_layer_norm, each node keeping its own output until the
    backward."""
    q, k, v = ad.linear(H, wq, bq), unfused_matmul(H, wk), ad.linear(H, wv, bv)
    return unfused_residual_layer_norm(H, unfused_attention(q, k, v, key_bias, n_heads),
                                       wo, bo, gain, bias)


def unfused_feed_forward_sublayer(H, w1, b1, w2, b2, gain, bias) -> Tensor:
    """The reference for an autodiff.encoder layer's feed-forward sublayer,
    LN2(H + gelu(H w1 + b1) w2 + b2): `linear`, `gelu` and
    unfused_residual_layer_norm."""
    return unfused_residual_layer_norm(H, ad.gelu(ad.linear(H, w1, b1)), w2, b2, gain, bias)


def unfused_encoder(H, layers, key_bias, n_heads) -> Tensor:
    """The reference for autodiff.encoder: each layer's
    unfused_attention_sublayer, then its unfused_feed_forward_sublayer."""
    for wq, bq, wk, wv, bv, wo, bo, g1, c1, w1, b1, w2, b2, g2, c2 in layers:
        H = unfused_attention_sublayer(H, wq, bq, wk, wv, bv, wo, bo, g1, c1, key_bias, n_heads)
        H = unfused_feed_forward_sublayer(H, w1, b1, w2, b2, g2, c2)
    return H


def unfused_residual_layer_norm(res, h, w, b, gain, bias, eps=1e-5) -> Tensor:
    """The layer norm of both sublayer references: `linear`, a tape add
    and a layer-norm node of its own, with layer norm's ops in the fused
    nodes' order, so they agree to the byte. Each of the three nodes
    keeps its own output until the backward."""
    x = ad.add(res, ad.linear(h, w, b))
    n = x.data.shape[-1]
    flat = x.data.reshape(-1, n)
    col = np.full(n, 1.0 / n, dtype=flat.dtype)
    xhat = flat - flat[:, :1]
    xhat -= np.einsum("ij,j->i", xhat, col)[:, None]
    inv = 1.0 / np.sqrt(np.einsum("ij,j->i", xhat * xhat, col) + eps)
    xhat *= inv[:, None]
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y.reshape(x.data.shape), _parents=(x, gain, bias))

    def bwd(g):
        g = g.reshape(-1, n)
        gx = g * xhat
        ad._accum(gain, gx.sum(axis=0))
        ad._accum(bias, g.sum(axis=0))
        wcol = gain.data * (1.0 / n)
        m1 = np.einsum("ij,j->i", g, wcol)
        m2 = np.einsum("ij,j->i", gx, wcol)
        dx = g * gain.data
        dx -= m1[:, None]
        np.multiply(xhat, m2[:, None], out=gx)
        dx -= gx
        dx *= inv[:, None]
        ad._accum(x, dx.reshape(x.data.shape))

    out._backward = bwd
    return out
