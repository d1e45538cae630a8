"""End-to-end CLI flows over real files in a temp directory."""

import io
import json
import sys
from pathlib import Path

import pytest

from helpers import make_raw_world

from elink import cli
from elink.cli import main
from elink.aliastable import RedirectMap, load_alias_tsv
from elink.candidates import PageLinks, load_phrase_table
from elink.config import build_run_config, parse_kv_file, parse_kv_text
from elink.corpus import EntityVocab, TokenVocab, load_contexts, load_documents, tsv_cell
from elink.model import ModelConfig, ModelParams, encode, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    paths, docs = make_raw_world(root, n_entities=10, n_docs=20, seed=3)
    return root, paths, docs


@pytest.fixture(scope="module")
def built_corpus(world):
    root, paths, docs = world
    out = str(root / "corpus.jsonl")
    rc = main([
        "build-corpus",
        "--docs", paths["docs"],
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out", out,
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(world, built_corpus, tmp_path_factory):
    """A model pretrained long enough to memorize the tiny fixture."""
    root, paths, docs = world
    out_dir = str(tmp_path_factory.mktemp("run"))
    rc = main([
        "pretrain",
        "--corpus", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out-dir", out_dir,
        "--train.rng_seed=5",
        "--train.total_steps=500",
        "--train.base_lr=3e-3",
        "--train.batch_size=10",
        "--train.log_interval=100",
        "--model.d_model=32",
        "--model.n_layers=2",
        "--model.n_heads=4",
        "--model.d_ff=64",
        "--model.d_entity=16",
        "--model.max_len=32",
        "--candidates.k=8",
        "--candidates.max_page=2",
        "--candidates.max_phrase=2",
        "--candidates.min_random=2",
    ])
    assert rc == 0
    return out_dir + "/checkpoint.elck"


# ---------------------------------------------------------------------------
# build-corpus
# ---------------------------------------------------------------------------


def test_build_corpus_summary_counts(world, built_corpus, capsys):
    root, paths, docs = world
    contexts = load_contexts(built_corpus)
    assert len(contexts) == 20            # one chunk per short document
    n_mentions = sum(len(c.labels) for c in contexts)
    assert n_mentions == sum(len(d["mentions"]) for d in docs)  # no drops here


def test_build_corpus_duplicate_doc_id(world, tmp_path, capsys):
    root, paths, _ = world
    bad = tmp_path / "dup.jsonl"
    rec = json.dumps({"doc_id": "a", "title": "", "text": "x", "mentions": []})
    bad.write_text(rec + "\n" + rec + "\n")
    rc = main([
        "build-corpus", "--docs", str(bad),
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out", str(tmp_path / "out.jsonl"),
    ])
    assert rc == 1
    assert "duplicate doc_id" in capsys.readouterr().err


def test_build_corpus_empty_input(world, tmp_path, capsys):
    root, paths, _ = world
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main([
        "build-corpus", "--docs", str(empty),
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out", str(tmp_path / "out.jsonl"),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["contexts"] == 0 and summary["mentions"] == 0
    assert load_contexts(tmp_path / "out.jsonl") == []


def test_build_corpus_malformed_line(world, tmp_path, capsys):
    root, paths, _ = world
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id": "a", "title": "", "text": "x", "mentions": []}\n{broken\n')
    rc = main([
        "build-corpus", "--docs", str(bad),
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out", str(tmp_path / "out.jsonl"),
    ])
    assert rc == 1
    assert ":2" in capsys.readouterr().err


def test_build_corpus_sentence_mode_with_context(world, tmp_path):
    root, paths, docs = world
    out = tmp_path / "sent.jsonl"
    rc = main([
        "build-corpus", "--docs", paths["docs"],
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out", str(out),
        "--corpus.mode=sentence",
        "--corpus.context_mode=title",
    ])
    assert rc == 0
    contexts = load_contexts(out)
    # single-line docs: one sentence each, title tokens + [SEP] prepended
    assert len(contexts) == len(docs)
    assert all(c.char_offsets[0] == (-1, -1) for c in contexts)


def test_build_corpus_window_mode(world, tmp_path):
    root, paths, docs = world
    out = tmp_path / "win.jsonl"
    rc = main([
        "build-corpus", "--docs", paths["docs"],
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out", str(out),
        "--corpus.mode=window",
        "--corpus.window_bytes=8",
    ])
    assert rc == 0
    contexts = load_contexts(out)
    assert len(contexts) == sum(len(d["mentions"]) for d in docs)
    assert all(len(c.labels) == 1 for c in contexts)


# ---------------------------------------------------------------------------
# pretrain / finetune
# ---------------------------------------------------------------------------


def test_pretrain_outputs(trained, capsys):
    import os

    out_dir = os.path.dirname(trained)
    for name in ("checkpoint.elck", "train_log.tsv", "resolved_config.cfg"):
        assert os.path.exists(os.path.join(out_dir, name)), name


def test_resolved_config_echo_reflects_ablation_flags(world, built_corpus, tmp_path, capsys):
    root, paths, _ = world
    out_dir = str(tmp_path / "run")
    rc = main([
        "pretrain",
        "--corpus", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out-dir", out_dir,
        "--train.total_steps=2",
        "--train.batch_size=4",
        "--train.log_interval=1",
        "--model.d_model=8", "--model.n_layers=1", "--model.n_heads=2",
        "--model.d_ff=16", "--model.d_entity=8", "--model.max_len=32",
        # one flag per published experiment arm:
        "--noise.enabled=false",                    # noise ablation
        "--candidates.max_page=0",                  # candidate-source ablation
        "--candidates.max_phrase=0",
        "--candidates.k=8", "--candidates.min_random=4",
        "--train.softmax_mode=all_entities",        # full-vocabulary classification
        "--train.freeze_entity_embeddings=true",    # frozen-embedding fine-tune setting
    ])
    assert rc == 0
    echoed = parse_kv_text((tmp_path / "run" / "resolved_config.cfg").read_text())
    assert echoed["noise.enabled"] == "False"
    assert echoed["candidates.max_page"] == "0"
    assert echoed["candidates.max_phrase"] == "0"
    assert echoed["train.softmax_mode"] == "all_entities"
    assert echoed["train.freeze_entity_embeddings"] == "True"
    # the echoed file parses back into a valid config
    build_run_config(echoed)


@pytest.mark.parametrize("key, value", [
    ("log_interval", "0"), ("eps", "0"), ("beta1", "1.0"), ("beta2", "-0.5"),
    ("checkpoint_interval", "-1"), ("model.n_heads", "3"),
])
def test_bad_train_setting_fails_at_config_load(world, built_corpus, tmp_path, capsys,
                                                key, value):
    """A bad setting fails pretrain before it writes anything. A bare key
    is a train key; n_heads=3 does not divide d_model=8."""
    root, paths, _ = world
    rc = main([
        "pretrain",
        "--corpus", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--out-dir", str(tmp_path / "run"),
        "--train.total_steps=2",
        "--train.batch_size=4",
        "--model.d_model=8", "--model.n_layers=1", "--model.n_heads=2",
        "--model.d_ff=16", "--model.d_entity=8", "--model.max_len=32",
        "--candidates.k=8", "--candidates.max_page=2", "--candidates.max_phrase=2",
        "--candidates.min_random=2",
        f"--{key if '.' in key else 'train.' + key}={value}",
    ])
    assert rc == 1
    assert key.rpartition(".")[2] in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_resolved_config_reruns_the_run(world, built_corpus, trained, tmp_path, capsys):
    """A pretrain run driven by flags alone, and an alias fine-tune, each
    rerun from their resolved_config.cfg and a new --out-dir alone, write
    the same checkpoint and log bytes, and echo the same config but for
    paths.out_dir: the echo holds every path and setting of the run."""
    root, paths, _ = world
    vocabs = ["--token-vocab", paths["token_vocab"], "--entity-vocab", paths["entity_vocab"]]
    steps = ["--train.total_steps=3", "--train.batch_size=4", "--train.log_interval=1"]
    runs = {
        "pretrain": ["--corpus", built_corpus, *vocabs, *steps,
                     "--model.d_model=8", "--model.n_layers=1", "--model.n_heads=2",
                     "--model.d_ff=16", "--model.d_entity=8", "--model.max_len=32",
                     "--candidates.k=8", "--candidates.max_page=2",
                     "--candidates.max_phrase=2", "--candidates.min_random=2"],
        "finetune": ["--checkpoint", trained, "--dataset", built_corpus, *vocabs, *steps,
                     "--mode", "alias_candidates", "--alias-table", paths["alias_table"]],
    }
    for command, argv in runs.items():
        first, again = tmp_path / f"{command}_first", tmp_path / f"{command}_again"
        assert main([command, *argv, "--out-dir", str(first)]) == 0
        echo = first / "resolved_config.cfg"
        assert main([command, "--config", str(echo), "--out-dir", str(again)]) == 0
        for name in ("checkpoint.elck", "train_log.tsv"):
            assert (first / name).read_bytes() == (again / name).read_bytes(), (command, name)
        echoed = parse_kv_file(echo)
        assert parse_kv_file(again / "resolved_config.cfg") == {
            **echoed, "paths.out_dir": str(again)}
    assert echoed["train.softmax_mode"] == "candidates"
    assert echoed["paths.alias_table"] == paths["alias_table"]


def test_finetune_echoes_the_checkpoint_shape(world, built_corpus, tmp_path, capsys):
    """A fine-tune from a checkpoint trains the checkpoint's shape, whatever
    model.* says, and names each model.* value it ignores on stderr; its
    echo gives that shape and reruns the run."""
    root, paths, _ = world
    tvocab = TokenVocab.from_file(paths["token_vocab"])
    evocab = EntityVocab.from_file(paths["entity_vocab"])
    shape = dict(d_model=8, n_layers=1, n_heads=2, d_ff=16, d_entity=8, max_len=32)
    checkpoint = tmp_path / "d8.elck"
    save_checkpoint(
        checkpoint, ModelParams.initialize(ModelConfig(len(tvocab), len(evocab), **shape), 1)
    )
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([
        "finetune", "--checkpoint", str(checkpoint), "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"], "--entity-vocab", paths["entity_vocab"],
        "--mode", "all_entities", "--out-dir", str(first), "--model.d_model=16",
        "--train.total_steps=2", "--train.batch_size=4", "--train.log_interval=1",
    ]) == 0
    # the run says which settings it ignores
    assert "ignoring model.d_model = 16: the checkpoint's is 8" in capsys.readouterr().err
    echoed = parse_kv_file(first / "resolved_config.cfg")
    assert {k: echoed[f"model.{k}"] for k in shape} == {k: str(v) for k, v in shape.items()}
    assert main(["finetune", "--config", str(first / "resolved_config.cfg"),
                 "--out-dir", str(again)]) == 0
    for name in ("checkpoint.elck", "train_log.tsv"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_a_path_flag_wins_over_the_config_and_the_paths_override(world, tmp_path, capsys):
    root, paths, _ = world
    config = tmp_path / "run.cfg"
    config.write_text(f"paths.corpus = {tmp_path / 'from_file.jsonl'}\n")
    rc = main(["build-corpus", "--config", str(config), "--docs", paths["docs"],
               "--token-vocab", paths["token_vocab"], "--entity-vocab", paths["entity_vocab"],
               f"--paths.corpus={tmp_path / 'from_override.jsonl'}",
               "--out", f"  {tmp_path / 'from_flag.jsonl'}\t"])
    assert rc == 0
    # the flag's value is stripped like a config value
    assert sorted(p.name for p in tmp_path.iterdir()) == ["from_flag.jsonl", "run.cfg"]


def test_finetune_alias_mode(world, built_corpus, trained, tmp_path, capsys):
    root, paths, _ = world
    out_dir = str(tmp_path / "ft")
    rc = main([
        "finetune",
        "--checkpoint", trained,
        "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--mode", "alias_candidates",
        "--alias-table", paths["alias_table"],
        "--out-dir", out_dir,
        "--train.total_steps=3",
        "--train.base_lr=1e-6",
        "--train.batch_size=4",
        "--train.log_interval=1",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["skipped_mentions"] == 0  # fixture aliases cover every gold


def test_finetune_from_scratch_all_entities(world, built_corpus, tmp_path, capsys):
    root, paths, _ = world
    rc = main([
        "finetune",
        "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--mode", "all_entities",
        "--out-dir", str(tmp_path / "scratch"),
        "--train.total_steps=2",
        "--train.batch_size=4",
        "--train.log_interval=1",
        "--model.d_model=8", "--model.n_layers=1", "--model.n_heads=2",
        "--model.d_ff=16", "--model.d_entity=8", "--model.max_len=32",
    ])
    assert rc == 0


def test_only_finetune_loads_parameters_onto_the_tape(world, built_corpus, trained, tmp_path,
                                                     monkeypatch, capsys):
    """eval-disambig, eval-e2e and link load constants, so an encode over
    them has no parents and no backward rule; finetune's record gradients."""
    root, paths, docs = world
    loaded = {}

    def spy(path, requires_grad=True):
        params = load_checkpoint(path, requires_grad)
        loaded[command] = params
        return params

    monkeypatch.setattr(cli, "load_checkpoint", spy)
    text = tmp_path / "text.txt"
    text.write_text(docs[0]["text"])
    vocabs = ["--checkpoint", trained, "--token-vocab", paths["token_vocab"],
              "--entity-vocab", paths["entity_vocab"]]
    for command, rest in [
        ("eval-disambig", ["--dataset", built_corpus]),
        ("eval-e2e", ["--dataset", built_corpus]),
        ("link", ["--input", str(text)]),
        ("finetune", ["--dataset", built_corpus, "--mode", "all_entities",
                      "--out-dir", str(tmp_path / "ft"), "--train.total_steps=1",
                      "--train.batch_size=2"]),
    ]:
        assert main([command, *vocabs, *rest]) == 0
    capsys.readouterr()
    for command, params in loaded.items():
        training = command == "finetune"
        assert all(t.requires_grad == training for _, t in params.items()), command
        H = encode(params, [1, 2, 3])
        assert H.requires_grad == training
        assert (H._parents == () and H._backward is None) != training


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_disambig_all_after_training(world, built_corpus, trained, tmp_path, capsys):
    root, paths, _ = world
    out = tmp_path / "report.json"
    errors = tmp_path / "errors.tsv"
    rc = main([
        "eval-disambig",
        "--checkpoint", trained,
        "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--candidates", "all",
        "--out", str(out),
        "--errors-out", str(errors),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["accuracy"] >= 99.0  # memorized the training fixture
    assert report["n_mentions"] == 40
    header = errors.read_text().splitlines()[0]
    assert header.split("\t") == ["surface", "gold", "pred1", "score1", "pred2", "score2"]


def test_eval_disambig_alias_bounded_by_gold_recall(world, built_corpus, trained,
                                                    tmp_path, capsys):
    root, paths, _ = world
    # drop every alias for name n0: gold recall < 100 bounds accuracy
    lines = [l for l in open(paths["alias_table"]).read().splitlines() if not l.startswith("n0\t")]
    partial = tmp_path / "partial_aliases.tsv"
    partial.write_text("\n".join(lines) + "\n")

    rc = main([
        "alias-stats",
        "--alias-table", str(partial),
        "--dataset", built_corpus,
        "--entity-vocab", paths["entity_vocab"],
    ])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)

    rc = main([
        "eval-disambig",
        "--checkpoint", trained,
        "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--candidates", "alias",
        "--alias-table", str(partial),
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert stats["gold_recall"] < 100.0
    assert report["accuracy"] <= stats["gold_recall"] + 1e-9


def test_eval_e2e_untrained_near_zero(world, built_corpus, tmp_path, capsys):
    root, paths, _ = world
    scratch_dir = tmp_path / "scratch"
    rc = main([
        "finetune",
        "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--mode", "all_entities",
        "--out-dir", str(scratch_dir),
        "--train.total_steps=1",
        "--train.base_lr=1e-9",
        "--train.batch_size=2",
        "--train.log_interval=1",
        "--model.d_model=8", "--model.n_layers=1", "--model.n_heads=2",
        "--model.d_ff=16", "--model.d_entity=8", "--model.max_len=32",
    ])
    assert rc == 0
    capsys.readouterr()
    rc = main([
        "eval-e2e",
        "--checkpoint", str(scratch_dir / "checkpoint.elck"),
        "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f1"] < 0.05


def test_eval_e2e_trained_beats_untrained(world, built_corpus, trained, capsys):
    root, paths, _ = world
    rc = main([
        "eval-e2e",
        "--checkpoint", trained,
        "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f1"] > 0.5  # memorized fixture: detection + linking both learned


def test_eval_vocab_size_mismatch(world, built_corpus, trained, tmp_path, capsys):
    root, paths, _ = world
    small = tmp_path / "entities_small.txt"
    small.write_text("E0\nE1\n")
    rc = main([
        "eval-disambig",
        "--checkpoint", trained,
        "--dataset", built_corpus,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", str(small),
        "--candidates", "all",
    ])
    assert rc == 1
    assert "vocab-size mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command",
                         ["pretrain", "finetune", "eval-disambig", "eval-e2e", "alias-stats"])
def test_context_ids_are_checked_against_the_vocabularies(world, built_corpus, trained,
                                                          tmp_path, capsys, command):
    """A token id of -1, which numpy would wrap to the last embedding row,
    fails every command that reads contexts with the file's path:line.
    alias-stats reads no token vocabulary; an entity index past the entity
    vocabulary, which it would count as a recall miss, fails it instead."""
    root, paths, _ = world
    lines = open(built_corpus).read().splitlines()
    rec = json.loads(lines[1])
    if command == "alias-stats":
        next(l for l in rec["labels"] if l["entity"] is not None)["entity"] = 10**7
        message = "entity index 10000000 outside"
    else:
        rec["tokens"][0] = -1
        message = "token id -1 outside"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")
    vocabs = ["--token-vocab", paths["token_vocab"], "--entity-vocab", paths["entity_vocab"]]
    argv = {
        "pretrain": ["--corpus", str(bad), "--out-dir", str(tmp_path / "run")],
        "finetune": ["--dataset", str(bad), "--mode", "all_entities",
                     "--out-dir", str(tmp_path / "run")],
        "eval-disambig": ["--checkpoint", trained, "--dataset", str(bad), "--candidates", "all"],
        "eval-e2e": ["--checkpoint", trained, "--dataset", str(bad)],
        "alias-stats": ["--alias-table", paths["alias_table"], "--dataset", str(bad)],
    }[command]
    assert main([command] + argv + vocabs) == 1
    assert f"{bad}:2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval-disambig", "eval-e2e"])
def test_a_context_longer_than_max_len_fails_at_load(world, built_corpus, trained, tmp_path,
                                                     capsys, command):
    """A context with more tokens than the model's max_len fails every
    command that encodes contexts with the file's path:line, before
    training writes anything. The max_len is the config's for pretrain and
    the checkpoint's (32, where the config says 256) for the others."""
    root, paths, _ = world
    lines = open(built_corpus).read().splitlines()
    rec = json.loads(lines[1])
    while len(rec["tokens"]) <= 32:
        rec["tokens"] += rec["tokens"]
        rec["char_offsets"] += rec["char_offsets"]
    bad = tmp_path / "long.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")
    vocabs = ["--token-vocab", paths["token_vocab"], "--entity-vocab", paths["entity_vocab"]]
    argv = {
        "pretrain": ["--corpus", str(bad), "--out-dir", str(tmp_path / "run"),
                     "--model.d_model=8", "--model.n_layers=1", "--model.n_heads=2",
                     "--model.d_ff=16", "--model.d_entity=8", "--model.max_len=32"],
        "finetune": ["--checkpoint", trained, "--dataset", str(bad), "--mode", "all_entities",
                     "--out-dir", str(tmp_path / "run")],
        "eval-disambig": ["--checkpoint", trained, "--dataset", str(bad), "--candidates", "all"],
        "eval-e2e": ["--checkpoint", trained, "--dataset", str(bad)],
    }[command]
    assert main([command] + argv + vocabs) == 1
    message = f"{len(rec['tokens'])} tokens exceed the model's max_len 32"
    assert f"{bad}:2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# alias-stats
# ---------------------------------------------------------------------------


def test_alias_stats_fixture_values(world, built_corpus, capsys):
    root, paths, _ = world
    rc = main([
        "alias-stats",
        "--alias-table", paths["alias_table"],
        "--dataset", built_corpus,
        "--entity-vocab", paths["entity_vocab"],
    ])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["conversion"] == 100.0
    assert stats["gold_recall"] == 100.0
    assert stats["avg_ambiguity"] == pytest.approx(2.0)  # every name has 2 entities


def test_alias_stats_cyclic_redirects(world, built_corpus, tmp_path, capsys):
    root, paths, _ = world
    cyc = tmp_path / "redirects.tsv"
    cyc.write_text("A\tB\nB\tA\n")
    rc = main([
        "alias-stats",
        "--alias-table", paths["alias_table"],
        "--redirects", str(cyc),
        "--dataset", built_corpus,
        "--entity-vocab", paths["entity_vocab"],
    ])
    assert rc == 1
    assert "cycle" in capsys.readouterr().err


def test_alias_stats_missing_redirect_file_warns(world, built_corpus, tmp_path, capsys, caplog):
    root, paths, _ = world
    rc = main([
        "alias-stats",
        "--alias-table", paths["alias_table"],
        "--redirects", str(tmp_path / "nope.tsv"),
        "--dataset", built_corpus,
        "--entity-vocab", paths["entity_vocab"],
    ])
    assert rc == 0
    assert any("unresolved" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# link
# ---------------------------------------------------------------------------


def test_link_empty_input(world, trained, tmp_path, capsys):
    root, paths, _ = world
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    rc = main([
        "link",
        "--checkpoint", trained,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--input", str(empty),
    ])
    assert rc == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", ["directory_as_vocab", "short_checkpoint"])
def test_an_unreadable_input_fails_with_one_error_line(world, trained, tmp_path, capsys, bad):
    """A directory given as the token vocabulary, or a checkpoint cut inside
    its 12-byte header, makes link print an error naming the path and
    return 1, not raise."""
    root, paths, _ = world
    text = tmp_path / "in.txt"
    text.write_text("some text\n")
    vocab, checkpoint = paths["token_vocab"], trained
    if bad == "directory_as_vocab":
        vocab = target = str(tmp_path)
    else:
        checkpoint = target = str(tmp_path / "short.elck")
        Path(checkpoint).write_bytes(b"ELCK\x02\x00")
    rc = main([
        "link",
        "--checkpoint", checkpoint,
        "--token-vocab", vocab,
        "--entity-vocab", paths["entity_vocab"],
        "--input", str(text),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: " in err and target in err and "Traceback" not in err


def test_link_emits_planted_entity(world, trained, tmp_path, capsys):
    root, paths, docs = world
    text_file = tmp_path / "text.txt"
    text_file.write_text(docs[0]["text"])
    rc = main([
        "link",
        "--checkpoint", trained,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--input", str(text_file),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l.split("\t") for l in out.splitlines()]
    assert lines, "no mentions detected"
    emitted = {cells[3] for cells in lines}
    planted = {m["entity"] for m in docs[0]["mentions"]}
    assert planted & emitted
    for cells in lines:
        prob = float(cells[4])
        assert 0.0 < prob <= 1.0
        s, e = int(cells[0]), int(cells[1])
        assert docs[0]["text"][s:e] == cells[2]


ORACLE_WORDS = ["f", "yuri", "gagarin"]


def oracle_checkpoint(root, max_len):
    """A checkpoint whose BIO head reads the token alone: no layers, one-hot
    token embeddings, no position embeddings, and "yuri" tagged B,
    "gagarin" I and every other token O. Returns (paths, params)."""
    import numpy as np

    words = ["[PAD]", "[UNK]", "[MASK]", "[SEP]"] + ORACLE_WORDS
    n = len(words)
    cfg = ModelConfig(vocab_size=n, n_entities=3, d_model=n, n_layers=0, n_heads=1,
                      d_ff=4, d_entity=4, max_len=max_len)
    params = ModelParams.initialize(cfg, seed=1)
    params["tok_emb"].data[...] = np.eye(n)
    params["pos_emb"].data[...] = 0.0
    bio = np.zeros((n, 3))
    bio[:, 0] = 1.0
    bio[words.index("yuri")] = [0.0, 1.0, 0.0]
    bio[words.index("gagarin")] = [0.0, 0.0, 1.0]
    params["bio_w"].data[...] = bio
    paths = {"token_vocab": str(root / "tokens.txt"), "entity_vocab": str(root / "entities.txt"),
             "checkpoint": str(root / "oracle.elck")}
    (root / "tokens.txt").write_text("\n".join(words) + "\n")
    (root / "entities.txt").write_text("E0\nE1\nE2\n")
    save_checkpoint(paths["checkpoint"], params)
    return paths


def planted_text(n_words, pair_starts, cross_char=None):
    """Words "f" with "yuri gagarin" at each token index in pair_starts,
    and, given cross_char, at the first "f f" whose span would cross it.
    Returns (text, sorted planted character spans)."""
    words = ["f"] * n_words
    for t in pair_starts:
        words[t : t + 2] = ["yuri", "gagarin"]
    if cross_char is not None:
        pos = 0
        for t, w in enumerate(words):
            if pos + len("yuri gagarin") > cross_char and words[t : t + 2] == ["f", "f"]:
                words[t : t + 2] = ["yuri", "gagarin"]
                assert pos < cross_char
                break
            pos += len(w) + 1
    text = " ".join(words) + "\n"
    spans, pos = [], 0
    for w in words:
        if w == "yuri":
            spans.append((pos, pos + len("yuri gagarin")))
        pos += len(w) + 1
    return text, spans


def run_link(paths, text, tmp_path, capsys):
    """link's rows as (start, end, surface, entity, prob) tuples, checked to
    be strictly increasing and not to overlap."""
    text_file = tmp_path / "input.txt"
    text_file.write_text(text)
    capsys.readouterr()
    rc = main(["link", "--checkpoint", paths["checkpoint"], "--token-vocab", paths["token_vocab"],
               "--entity-vocab", paths["entity_vocab"], "--input", str(text_file)])
    assert rc == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    spans = [(int(r[0]), int(r[1])) for r in rows]
    assert all(s1 < s2 and e1 <= s2 for (s1, e1), (s2, _) in zip(spans, spans[1:])), spans
    for (s, e), r in zip(spans, rows):
        assert tsv_cell(text[s:e]) == r[2] and r[3] in ("E0", "E1", "E2") and 0.0 < float(r[4]) <= 1.0
    return spans


def test_link_reads_a_long_document_to_its_end(tmp_path, capsys, monkeypatch):
    """At max_len 32 a ~1200-character document is linked to its last
    mention, each planted mention gives exactly one row, and the
    checkpoint's max_len bounds every encode."""
    import elink.model

    paths = oracle_checkpoint(tmp_path, max_len=32)
    lengths = []
    real_encode = elink.model.encode

    def spy(params, tokens, pad_mask=None):
        lengths.append(len(tokens))
        return real_encode(params, tokens, pad_mask)

    monkeypatch.setattr(elink.model, "encode", spy)
    text, planted = planted_text(560, [0, 5, 23, 47, 100, 301, 558])
    assert run_link(paths, text, tmp_path, capsys) == planted
    assert max(lengths) == 32 and len(lengths) > 20


@pytest.mark.parametrize("max_len, cut", [(32, 24), (256, 192)])
def test_link_links_a_mention_across_a_cut(tmp_path, capsys, max_len, cut):
    """Chunks hold 3/4 of max_len tokens: a two-token mention across a chunk
    cut, or across the 1000-character boundary where link once cut its
    input, gives one row."""
    paths = oracle_checkpoint(tmp_path, max_len=max_len)
    text, planted = planted_text(700, [cut - 1], cross_char=1000)
    assert len(planted) == 2
    assert run_link(paths, text, tmp_path, capsys) == planted


@pytest.mark.parametrize("mode", ["chunk", "sentence", "window"])
def test_tokenize_runs_once_per_document(world, tmp_path, capsys, monkeypatch, mode):
    """build-corpus, in every mode, and link tokenize each document's text
    once; build-corpus accounts for every mention."""
    from elink import corpus

    root, paths, docs = world
    calls = []
    real_tokenize = corpus.tokenize

    def count(text, vocab):
        calls.append(text)
        return real_tokenize(text, vocab)

    monkeypatch.setattr(corpus, "tokenize", count)
    rc = main(["build-corpus", "--docs", paths["docs"], "--token-vocab", paths["token_vocab"],
               "--entity-vocab", paths["entity_vocab"], "--out", str(tmp_path / "out.jsonl"),
               f"--corpus.mode={mode}"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mentions"] + summary["dropped_mentions"] == sum(len(d["mentions"]) for d in docs)
    assert [t for t in calls if t in {d["text"] for d in docs}] == [d["text"] for d in docs]
    # sentence mode's default context mode prepends the title, tokenized once too
    assert len(calls) == len(docs) * (2 if mode == "sentence" else 1)

    calls.clear()
    oracle = oracle_checkpoint(tmp_path, max_len=32)
    text, _ = planted_text(700, [10])  # over 1000 characters
    run_link(oracle, text, tmp_path, capsys)
    assert calls == [text]


# ---------------------------------------------------------------------------
# text input: bad bytes and line ends
# ---------------------------------------------------------------------------

# Valid lines for the inputs that the world fixture does not write.
REDIRECT_LINES = ["r0\tE0", "r1\tE1", "r2\tE2"]
CONFIG_LINES = ["seed = 1", "# a comment", "train.total_steps = 2", "model.max_len = 32"]
LINK_LINES = ["f yuri gagarin", "f", "yuri gagarin f", "f"]


def bad_byte_file(lines: list[str]) -> bytes:
    """lines as a file whose bytes break UTF-8 in line 4 alone: line 1
    ends in CRLF, line 2 is blank, line 3 ends in CR, and the first byte of
    line 4 is followed by 0xff."""
    a, b, c, *rest = lines
    bad = c.encode("utf-8")
    rest = "".join(f"{line}\n" for line in rest)
    return f"{a}\r\n\n{b}\r".encode() + bad[:1] + b"\xff" + bad[1:] + f"\n{rest}".encode()


@pytest.mark.parametrize("kind", [
    "token_vocab", "entity_vocab", "phrase_table", "page_links", "alias_table", "redirects",
    "docs", "corpus", "config", "link", "stdin",
])
def test_a_bad_byte_names_its_path_and_line(world, built_corpus, tmp_path, capsys, monkeypatch,
                                            kind):
    """Every input the CLI reads, each in the command that reads it, fails
    on a byte that is not UTF-8 with `path:line`, lines counted over
    CRLF, CR and blank lines."""
    root, paths, _ = world
    files = {**paths, "corpus": built_corpus, "redirects": str(tmp_path / "redirects.tsv")}
    Path(files["redirects"]).write_text("".join(f"{line}\n" for line in REDIRECT_LINES))
    oracle = oracle_checkpoint(tmp_path, max_len=32)
    good = {"redirects": REDIRECT_LINES, "config": CONFIG_LINES, "link": LINK_LINES,
            "stdin": LINK_LINES}
    lines = good.get(kind) or Path(files[kind]).read_text(encoding="utf-8").splitlines()
    bad = tmp_path / f"bad_{kind}"
    bad.write_bytes(bad_byte_file(lines))
    files[kind] = str(bad)
    vocabs = ["--token-vocab", files["token_vocab"], "--entity-vocab", files["entity_vocab"]]
    build = ["build-corpus", "--docs", files["docs"], *vocabs, "--out", str(tmp_path / "c.jsonl")]
    pretrain = ["pretrain", "--corpus", files["corpus"], *vocabs,
                f"--paths.page_links={files['page_links']}",
                f"--paths.phrase_table={files['phrase_table']}", "--out-dir", str(tmp_path / "run")]
    alias_stats = ["alias-stats", "--alias-table", files["alias_table"],
                   "--redirects", files["redirects"], "--dataset", built_corpus, *vocabs]
    link = ["link", "--checkpoint", oracle["checkpoint"], "--token-vocab", oracle["token_vocab"],
            "--entity-vocab", oracle["entity_vocab"]]
    argv = {
        "token_vocab": build, "entity_vocab": build, "docs": build,
        "config": [*build, "--config", str(bad)],
        "corpus": pretrain, "page_links": pretrain, "phrase_table": pretrain,
        "alias_table": alias_stats, "redirects": alias_stats,
        "link": [*link, "--input", str(bad)],
        "stdin": link,
    }[kind]
    if kind == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
    capsys.readouterr()
    assert main(argv) == 1
    name = "<stdin>" if kind == "stdin" else str(bad)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}:4: "), err


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_crlf_and_cr_input_reads_as_written(world, built_corpus, tmp_path, capsys, eol):
    """link on a copy of its input with CRLF or CR line ends prints the LF
    run's rows, every offset shifted by the line-end characters added
    before it, so the offsets index the file; a surface across a line end
    stays in its cell. Every loader reads such a copy of its file to what
    it reads from the LF file."""
    oracle = oracle_checkpoint(tmp_path, max_len=32)
    text = "f yuri gagarin f\n\nf yuri\ngagarin f\n" + planted_text(60, [30])[0]
    lf = run_link(oracle, text, tmp_path, capsys)
    assert len(lf) == 3
    extra = len(eol) - 1

    def shifted(i):
        return i + extra * text.count("\n", 0, i)

    assert run_link(oracle, text.replace("\n", eol), tmp_path, capsys) == [
        (shifted(s), shifted(e)) for s, e in lf
    ]

    root, paths, _ = world
    evocab = EntityVocab.from_file(paths["entity_vocab"])
    redirects, config = tmp_path / "redirects.tsv", tmp_path / "run.cfg"
    redirects.write_text("".join(f"{line}\n" for line in REDIRECT_LINES))
    config.write_text("".join(f"{line}\n" for line in CONFIG_LINES))
    loaders = [
        (paths["token_vocab"], lambda p: TokenVocab.from_file(p).tokens),
        (paths["entity_vocab"], lambda p: EntityVocab.from_file(p).ids),
        (paths["phrase_table"], lambda p: load_phrase_table(p, evocab).table),
        (paths["page_links"], lambda p: PageLinks.from_tsv(p, evocab).links),
        (paths["alias_table"], load_alias_tsv),
        (redirects, lambda p: RedirectMap.from_tsv(p).redirects),
        (paths["docs"], load_documents),
        (built_corpus, load_contexts),
        (config, parse_kv_file),
    ]
    for path, load in loaders:
        copy = tmp_path / f"copy_{Path(path).name}"
        copy.write_bytes(Path(path).read_bytes().replace(b"\n", eol.encode()))
        want = load(path)
        assert want and load(copy) == want, path
