"""Command-line entry points for corpus building, training, evaluation, and linking.

Every command accepts `--config <file>` plus dotted-key overrides such as
`--train.base_lr=1e-5` or `--noise.enabled=false`; overrides win over the
file. Commands that produce outputs also write the fully-resolved config
beside them.
"""

import argparse
import json
import logging
import os
import sys

from . import aliastable as at
from . import corpus as cp
from . import evaluation as ev
from . import training as tr
from .candidates import PageLinks, PhraseTable
from .config import ConfigError, RunConfig, load_run_config, parse_override_args, resolved_text
from .model import ModelConfig, ModelParams, load_checkpoint, predict_end_to_end
from .seeding import derive_seed

log = logging.getLogger("elink")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _pick(flag, cfg_value, name: str):
    value = flag if flag is not None else cfg_value
    if value is None:
        raise ConfigError(f"missing required path: {name}")
    return value


def _echo_config(cfg: RunConfig, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "resolved_config.cfg"), "w", encoding="utf-8") as f:
        f.write(resolved_text(cfg))


def _load_vocabs(args, cfg: RunConfig):
    """(tvocab, evocab) from the flags, falling back to the config."""
    token_path = _pick(args.token_vocab, cfg.paths.token_vocab, "token_vocab")
    entity_path = _pick(args.entity_vocab, cfg.paths.entity_vocab, "entity_vocab")
    return cp.TokenVocab.from_file(token_path), cp.EntityVocab.from_file(entity_path)


def _check_vocab_sizes(model_cfg: ModelConfig, tvocab, evocab) -> None:
    if model_cfg.vocab_size != len(tvocab) or model_cfg.n_entities != len(evocab):
        raise ConfigError(
            f"vocab-size mismatch: checkpoint expects |V|={model_cfg.vocab_size}, "
            f"|E|={model_cfg.n_entities}; files provide |V|={len(tvocab)}, |E|={len(evocab)}"
        )


def _load_model(args, cfg: RunConfig, training: bool = False):
    """(tvocab, evocab, params), the checkpoint's sizes checked against the
    vocabularies. For training, the checkpoint is optional (params is None
    when none is named) and params record gradients; otherwise they load
    off the autodiff tape."""
    tvocab, evocab = _load_vocabs(args, cfg)
    ckpt = args.checkpoint if args.checkpoint is not None else cfg.paths.checkpoint
    if training and not ckpt:
        return tvocab, evocab, None
    params = load_checkpoint(_pick(ckpt, None, "checkpoint"), requires_grad=training)
    _check_vocab_sizes(params.config, tvocab, evocab)
    return tvocab, evocab, params


def _model_config(cfg: RunConfig, tvocab, evocab) -> ModelConfig:
    s = cfg.model
    return ModelConfig(
        vocab_size=len(tvocab),
        n_entities=len(evocab),
        d_model=s.d_model,
        n_layers=s.n_layers,
        n_heads=s.n_heads,
        d_ff=s.d_ff,
        d_entity=s.d_entity,
        max_len=s.max_len,
    )


def _load_alias_table(args, cfg: RunConfig, evocab):
    """(table, report): the alias table resolved through the redirects, if any."""
    entries = at.load_alias_tsv(_pick(args.alias_table, cfg.paths.alias_table, "alias_table"))
    redirects_path = args.redirects or cfg.paths.redirects
    redirects = None
    if redirects_path:
        if os.path.exists(redirects_path):
            redirects = at.RedirectMap.from_tsv(redirects_path)
        else:
            log.warning("redirect file %s missing; using the table unresolved", redirects_path)
    return at.resolve(entries, redirects, evocab)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_corpus(args, overrides) -> int:
    cfg = load_run_config(args.config, overrides)
    docs_path = _pick(args.docs, cfg.paths.docs, "docs")
    out_path = _pick(args.out, cfg.paths.corpus, "out")
    tvocab, evocab = _load_vocabs(args, cfg)
    docs = cp.load_documents(docs_path)

    contexts: list[cp.Context] = []
    drops = cp.DropCounter()
    mode = cfg.corpus.mode
    for doc in docs:
        if mode == "chunk":
            ctxs, d = cp.chunk_document(
                doc, tvocab, evocab, cfg.corpus.chunk_chars, cfg.model.max_len
            )
            contexts.extend(ctxs)
            drops.merge(d)
        elif mode == "sentence":
            for sent in cp.newline_sentences(doc.text):
                ctx, d = cp.make_eval_context(
                    doc, sent, cfg.corpus.context_mode, tvocab, evocab, cfg.model.max_len
                )
                contexts.append(ctx)
                drops.merge(d)
        else:
            # built once for all of the document's windows
            byte_at = cp.utf8_offsets(doc.text) if doc.mentions else None
            for mention in doc.mentions:
                ctx, d = cp.window_context(
                    doc, mention, tvocab, evocab, cfg.corpus.window_bytes, cfg.model.max_len,
                    byte_at,
                )
                contexts.append(ctx)
                drops.merge(d)

    cp.save_contexts(out_path, contexts)
    n_labels = sum(len(c.labels) for c in contexts)
    entities = {l.entity for c in contexts for l in c.labels if l.entity is not None}
    summary = {
        "documents": len(docs),
        "contexts": len(contexts),
        "mentions": n_labels,
        "linked_mentions": sum(
            1 for c in contexts for l in c.labels if l.entity is not None
        ),
        "entities": len(entities),
        "dropped_mentions": drops.total,
        "drops": vars(drops),
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_pretrain(args, overrides) -> int:
    cfg = load_run_config(args.config, overrides)
    out_dir = _pick(args.out_dir, cfg.paths.out_dir, "out_dir")
    tvocab, evocab = _load_vocabs(args, cfg)
    contexts = cp.load_contexts(_pick(args.corpus, cfg.paths.corpus, "corpus"))
    page_links = (
        PageLinks.from_tsv(cfg.paths.page_links, evocab) if cfg.paths.page_links else None
    )
    phrase_table = (
        PhraseTable.from_tsv(cfg.paths.phrase_table, evocab) if cfg.paths.phrase_table else None
    )
    _echo_config(cfg, out_dir)
    try:
        _, rows = tr.pretrain(
            contexts,
            tvocab,
            len(evocab),
            _model_config(cfg, tvocab, evocab),
            cfg.train,
            cfg.candidates,
            cfg.noise,
            page_links=page_links,
            phrase_table=phrase_table,
            out_dir=out_dir,
        )
    except tr.TrainingDiverged as exc:
        return _fail(str(exc))
    print(
        json.dumps(
            {
                "checkpoint": os.path.join(out_dir, "checkpoint.elck"),
                "steps": cfg.train.total_steps,
                "final_loss": rows[-1].loss if rows else None,
            },
            indent=2,
        )
    )
    return 0


def cmd_finetune(args, overrides) -> int:
    cfg = load_run_config(args.config, overrides)
    out_dir = _pick(args.out_dir, cfg.paths.out_dir, "out_dir")
    tvocab, evocab, params = _load_model(args, cfg, training=True)
    contexts = cp.load_contexts(_pick(args.dataset, cfg.paths.dataset, "dataset"))
    if params is None:
        params = ModelParams.initialize(
            _model_config(cfg, tvocab, evocab),
            derive_seed(cfg.train.rng_seed, "init"),
        )
    alias_table = None
    if args.mode == "alias_candidates":
        alias_table, _ = _load_alias_table(args, cfg, evocab)
    _echo_config(cfg, out_dir)
    try:
        _, rows, report = tr.finetune(
            params, contexts, args.mode, tvocab, cfg.train, alias_table, out_dir=out_dir
        )
    except tr.TrainingDiverged as exc:
        return _fail(str(exc))
    print(
        json.dumps(
            {
                "checkpoint": os.path.join(out_dir, "checkpoint.elck"),
                "steps": cfg.train.total_steps,
                "final_loss": rows[-1].loss if rows else None,
                "skipped_mentions": report.skipped_mentions,
            },
            indent=2,
        )
    )
    return 0


def _write_or_print(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)


def cmd_eval_disambig(args, overrides) -> int:
    cfg = load_run_config(args.config, overrides)
    tvocab, evocab, params = _load_model(args, cfg)
    contexts = cp.load_contexts(_pick(args.dataset, cfg.paths.dataset, "dataset"))
    alias_table = None
    if args.candidates == "alias":
        alias_table, _ = _load_alias_table(args, cfg, evocab)
    result = ev.run_disambiguation(params, contexts, evocab, alias_table)
    _write_or_print(result.report(), args.out)
    if args.errors_out:
        ev.write_error_dump(args.errors_out, result.errors)
    return 0


def cmd_eval_e2e(args, overrides) -> int:
    cfg = load_run_config(args.config, overrides)
    _, _, params = _load_model(args, cfg)
    contexts = cp.load_contexts(_pick(args.dataset, cfg.paths.dataset, "dataset"))
    result = ev.run_end_to_end(params, contexts)
    _write_or_print(result.report(), args.out)
    return 0


def cmd_alias_stats(args, overrides) -> int:
    cfg = load_run_config(args.config, overrides)
    evocab = cp.EntityVocab.from_file(
        _pick(args.entity_vocab, cfg.paths.entity_vocab, "entity_vocab")
    )
    table, report = _load_alias_table(args, cfg, evocab)
    contexts = cp.load_contexts(_pick(args.dataset, cfg.paths.dataset, "dataset"))
    mentions = [
        (l.surface, l.entity)
        for c in contexts
        for l in c.labels
        if l.entity is not None and l.surface is not None
    ]
    recall, ambiguity = at.table_stats(table, mentions)
    _write_or_print(
        {
            "conversion": report.conversion,
            "gold_recall": recall,
            "avg_ambiguity": ambiguity,
            "n_input": report.n_input,
            "n_resolved": report.n_resolved,
            "n_dropped": report.n_dropped,
            "n_mentions": len(mentions),
        },
        args.out,
    )
    return 0


def cmd_link(args, overrides) -> int:
    cfg = load_run_config(args.config, overrides)
    tvocab, evocab, params = _load_model(args, cfg)
    if args.input and args.input != "-":
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()

    doc = cp.Document(doc_id="<input>", title="", text=text, mentions=())
    contexts, _ = cp.chunk_document(
        doc, tvocab, evocab, cfg.corpus.chunk_chars, params.config.max_len
    )
    for ctx in contexts:
        for (s, e), ent, prob in predict_end_to_end(params, ctx.tokens):
            cs = ctx.char_offsets[s][0]
            ce = ctx.char_offsets[e][1]
            surface = text[cs:ce].replace("\t", " ").replace("\n", " ")
            print(f"{cs}\t{ce}\t{surface}\t{evocab.ids[ent]}\t{prob:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elink",
        description="Desk-scale neural entity linking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--token-vocab", dest="token_vocab")
        p.add_argument("--entity-vocab", dest="entity_vocab")

    p = sub.add_parser("build-corpus", help="tokenize raw documents into a context cache")
    common(p)
    p.add_argument("--docs", help="input documents (JSON-lines)")
    p.add_argument("--out", help="output context cache (JSON-lines)")
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("pretrain", help="train from scratch on a context cache")
    common(p)
    p.add_argument("--corpus", help="processed context cache")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="continue training on a labeled dataset")
    common(p)
    p.add_argument("--checkpoint", help="starting checkpoint (omit to train from scratch)")
    p.add_argument("--dataset", help="processed context cache to fine-tune on")
    p.add_argument("--mode", choices=tr.FINETUNE_MODES, default="all_entities")
    p.add_argument("--alias-table", dest="alias_table")
    p.add_argument("--redirects")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval-disambig", help="disambiguation accuracy on gold spans")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--dataset")
    p.add_argument("--candidates", choices=("alias", "all"), default="all")
    p.add_argument("--alias-table", dest="alias_table")
    p.add_argument("--redirects")
    p.add_argument("--out", help="write the report JSON here as well as stdout")
    p.add_argument("--errors-out", dest="errors_out", help="TSV dump of mislinked mentions")
    p.set_defaults(func=cmd_eval_disambig)

    p = sub.add_parser("eval-e2e", help="end-to-end strong-matching micro-F1")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--dataset")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_e2e)

    p = sub.add_parser("alias-stats", help="alias-table conversion / recall / ambiguity")
    common(p)
    p.add_argument("--alias-table", dest="alias_table")
    p.add_argument("--redirects")
    p.add_argument("--dataset", help="context cache providing (surface, gold) mentions")
    p.add_argument("--out")
    p.set_defaults(func=cmd_alias_stats)

    p = sub.add_parser("link", help="annotate raw text with detected entities")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--input", help="text file, or - for stdin (default)")
    p.set_defaults(func=cmd_link)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        overrides, rest = parse_override_args(list(argv))
        args = build_parser().parse_args(rest)
        return args.func(args, overrides)
    except (
        ConfigError,
        cp.CorpusFormatError,
        at.RedirectCycleError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
