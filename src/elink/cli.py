"""Command-line entry points for corpus building, training, evaluation, and linking.

Every command accepts `--config <file>` plus dotted-key overrides such as
`--train.base_lr=1e-5` or `--noise.enabled=false`; overrides win over the
file. A path flag such as `--out-dir` spells its `paths.*` key and wins
over both; finetune's `--mode` spells `train.softmax_mode`. `main` folds
them all into the one RunConfig that a command reads. Commands that
produce outputs write it beside them as `resolved_config.cfg`, which
reruns the run when given back as `--config`.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import aliastable as at
from . import corpus as cp
from . import evaluation as ev
from . import training as tr
from .candidates import PageLinks, load_phrase_table
from .config import ConfigError, ModelSettings, Paths, RunConfig, load_run_config
from .config import parse_override_args, resolved_text
from .model import ModelConfig, ModelParams, load_checkpoint, predict_end_to_end
from .seeding import derive_seed

log = logging.getLogger("elink")

_PATH_KEYS = frozenset(f.name for f in dataclasses.fields(Paths))
# finetune --mode values, as train.softmax_mode spells them
_FINETUNE_MODES = {"alias_candidates": "candidates", "all_entities": "all_entities"}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _path(cfg: RunConfig, name: str) -> str:
    value = getattr(cfg.paths, name)
    if not value:
        raise ConfigError(f"missing required path: {name}")
    return value


def _print_run(cfg: RunConfig, out_dir: str, rows, **extra) -> int:
    """Print a training run's summary as JSON."""
    summary = {
        "checkpoint": os.path.join(out_dir, "checkpoint.elck"),
        "steps": cfg.train.total_steps,
        "final_loss": rows[-1].loss if rows else None,
        **extra,
    }
    print(json.dumps(summary, indent=2))
    return 0


def _echo_config(cfg: RunConfig, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "resolved_config.cfg"), "w", encoding="utf-8") as f:
        f.write(resolved_text(cfg))


def _load_vocabs(cfg: RunConfig):
    token_path, entity_path = _path(cfg, "token_vocab"), _path(cfg, "entity_vocab")
    return cp.TokenVocab.from_file(token_path), cp.EntityVocab.from_file(entity_path)


def _check_vocab_sizes(model_cfg: ModelConfig, tvocab, evocab) -> None:
    if model_cfg.vocab_size != len(tvocab) or model_cfg.n_entities != len(evocab):
        raise ConfigError(
            f"vocab-size mismatch: checkpoint expects |V|={model_cfg.vocab_size}, "
            f"|E|={model_cfg.n_entities}; files provide |V|={len(tvocab)}, |E|={len(evocab)}"
        )


def _load_model(cfg: RunConfig, training: bool = False):
    """(tvocab, evocab, params), the checkpoint's sizes checked against the
    vocabularies. For training, the checkpoint is optional (params is None
    when none is named) and params record gradients; otherwise they load
    off the autodiff tape."""
    tvocab, evocab = _load_vocabs(cfg)
    if training and not cfg.paths.checkpoint:
        return tvocab, evocab, None
    params = load_checkpoint(_path(cfg, "checkpoint"), requires_grad=training)
    _check_vocab_sizes(params.config, tvocab, evocab)
    return tvocab, evocab, params


def _load_dataset(cfg: RunConfig, tvocab, evocab, max_len: int) -> list[cp.Context]:
    """The paths.dataset context cache, its ids checked against the
    vocabularies and its lengths against the model's max_len."""
    return cp.load_contexts(_path(cfg, "dataset"), len(tvocab), len(evocab), max_len)


def _model_config(cfg: RunConfig, tvocab, evocab) -> ModelConfig:
    return ModelConfig(len(tvocab), len(evocab), **dataclasses.asdict(cfg.model))


def _load_alias_table(cfg: RunConfig, evocab):
    """(table, report): the alias table resolved through the redirects, if any."""
    entries = at.load_alias_tsv(_path(cfg, "alias_table"))
    path = cfg.paths.redirects
    if path and not os.path.exists(path):
        log.warning("redirect file %s missing; using the table unresolved", path)
        path = None
    return at.resolve(entries, at.RedirectMap.from_tsv(path) if path else None, evocab)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_corpus(args, cfg: RunConfig) -> int:
    docs_path, out_path = _path(cfg, "docs"), _path(cfg, "corpus")
    tvocab, evocab = _load_vocabs(cfg)
    docs = cp.load_documents(docs_path)

    contexts: list[cp.Context] = []
    drops = cp.DropCounter()
    mode = cfg.corpus.mode
    for doc in docs:
        if mode == "chunk":
            ctxs, d = cp.chunk_document(
                doc, tvocab, evocab, cfg.corpus.chunk_chars, cfg.model.max_len
            )
        elif mode == "sentence":
            ctxs, d = cp.sentence_contexts(
                doc, cfg.corpus.context_mode, tvocab, evocab, cfg.model.max_len
            )
        else:
            ctxs, d = cp.window_contexts(
                doc, tvocab, evocab, cfg.corpus.window_bytes, cfg.model.max_len
            )
        contexts.extend(ctxs)
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


def cmd_pretrain(args, cfg: RunConfig) -> int:
    out_dir = _path(cfg, "out_dir")
    tvocab, evocab = _load_vocabs(cfg)
    model_cfg = _model_config(cfg, tvocab, evocab)
    contexts = cp.load_contexts(_path(cfg, "corpus"), len(tvocab), len(evocab), model_cfg.max_len)
    page_links = (
        PageLinks.from_tsv(cfg.paths.page_links, evocab) if cfg.paths.page_links else None
    )
    phrase_table = (
        load_phrase_table(cfg.paths.phrase_table, evocab) if cfg.paths.phrase_table else None
    )
    _echo_config(cfg, out_dir)
    _, rows = tr.pretrain(
        contexts,
        tvocab,
        len(evocab),
        model_cfg,
        cfg.train,
        cfg.candidates,
        cfg.noise,
        page_links=page_links,
        phrase_table=phrase_table,
        out_dir=out_dir,
    )
    return _print_run(cfg, out_dir, rows)


def cmd_finetune(args, cfg: RunConfig) -> int:
    out_dir = _path(cfg, "out_dir")
    tvocab, evocab, params = _load_model(cfg, training=True)
    if params is not None:
        # the run trains the checkpoint's shape, so the echo gives that shape;
        # RunConfig does not record which values a flag set, so each value
        # that differs is named
        shape = {f.name: getattr(params.config, f.name) for f in dataclasses.fields(ModelSettings)}
        for name, value in shape.items():
            if getattr(cfg.model, name) != value:
                print(f"warning: ignoring model.{name} = {getattr(cfg.model, name)}: "
                      f"the checkpoint's is {value}", file=sys.stderr)
        cfg = dataclasses.replace(cfg, model=ModelSettings(**shape))
    contexts = _load_dataset(cfg, tvocab, evocab, cfg.model.max_len)
    if params is None:
        params = ModelParams.initialize(
            _model_config(cfg, tvocab, evocab),
            derive_seed(cfg.train.rng_seed, "init"),
        )
    alias_table = None
    if cfg.train.softmax_mode == "candidates":
        alias_table, _ = _load_alias_table(cfg, evocab)
    _echo_config(cfg, out_dir)
    _, rows, report = tr.finetune(
        params, contexts, tvocab, cfg.train, alias_table, out_dir=out_dir
    )
    return _print_run(cfg, out_dir, rows, skipped_mentions=report.skipped_mentions)


def _write_or_print(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)


def cmd_eval_disambig(args, cfg: RunConfig) -> int:
    tvocab, evocab, params = _load_model(cfg)
    contexts = _load_dataset(cfg, tvocab, evocab, params.config.max_len)
    alias_table = None
    if args.candidates == "alias":
        alias_table, _ = _load_alias_table(cfg, evocab)
    result = ev.run_disambiguation(params, contexts, evocab, alias_table)
    _write_or_print(result.report(), args.out)
    if args.errors_out:
        ev.write_error_dump(args.errors_out, result.errors)
    return 0


def cmd_eval_e2e(args, cfg: RunConfig) -> int:
    tvocab, evocab, params = _load_model(cfg)
    contexts = _load_dataset(cfg, tvocab, evocab, params.config.max_len)
    result = ev.run_end_to_end(params, contexts)
    _write_or_print(result.report(), args.out)
    return 0


def cmd_alias_stats(args, cfg: RunConfig) -> int:
    evocab = cp.EntityVocab.from_file(_path(cfg, "entity_vocab"))
    table, report = _load_alias_table(cfg, evocab)
    contexts = cp.load_contexts(_path(cfg, "dataset"), n_entities=len(evocab))
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


def cmd_link(args, cfg: RunConfig) -> int:
    tvocab, evocab, params = _load_model(cfg)
    # read as written, line ends included, so the offsets index the input
    text = cp.read_text(args.input or "-")

    doc = cp.Document(doc_id="<input>", title="", text=text, mentions=())
    # Chunks hold at most 3/4 of max_len tokens. Each is decoded with the
    # tokens after it, up to max_len, and keeps the spans that start in it
    # and not inside the span kept before them: every token is decoded
    # once, and a mention that crosses a cut is linked whole.
    max_len = params.config.max_len
    chunks, _ = cp.chunk_document(
        doc, tvocab, evocab, cfg.corpus.chunk_chars, max(1, max_len * 3 // 4)
    )
    tokens = [t for c in chunks for t in c.tokens]
    offsets = [o for c in chunks for o in c.char_offsets]
    lo = kept_end = 0  # kept_end: the token after the last span printed
    for chunk in chunks:
        hi = lo + len(chunk.tokens)
        starts = range(max(kept_end - lo, 0), hi - lo)
        for (s, e), ent, prob in predict_end_to_end(params, tokens[lo : lo + max_len], starts):
            cs, ce = offsets[lo + s][0], offsets[lo + e][1]
            print(f"{cs}\t{ce}\t{cp.tsv_cell(text[cs:ce])}\t{evocab.ids[ent]}\t{prob:.6f}")
            kept_end = lo + e + 1
        lo = hi
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
    p.add_argument("--out", dest="corpus", help="output context cache (JSON-lines)")
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
    p.add_argument("--mode", choices=_FINETUNE_MODES, help="sets train.softmax_mode")
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
        # a path flag spells its paths.* key, and wins over the file and --paths.*
        for name, value in vars(args).items():
            if name in _PATH_KEYS and value is not None:
                overrides[f"paths.{name}"] = value
        if getattr(args, "mode", None) is not None:
            overrides["train.softmax_mode"] = _FINETUNE_MODES[args.mode]
        return args.func(args, load_run_config(args.config, overrides))
    except (ValueError, OSError, tr.TrainingDiverged) as exc:
        # ValueError covers ConfigError, CorpusFormatError, RedirectCycleError and
        # CheckpointError; OSError a path that is missing, a directory or unreadable
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
