"""End-to-end CLI flows over real files in a temp directory."""

import json

import pytest

from helpers import make_raw_world

from elink import cli
from elink.cli import main
from elink.config import build_run_config, parse_kv_text
from elink.corpus import load_contexts
from elink.model import encode, load_checkpoint


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
    for name in ("checkpoint.elck", "checkpoint.elck.manifest.json",
                 "train_log.tsv", "resolved_config.cfg"):
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
        ("finetune", ["--dataset", built_corpus, "--out-dir", str(tmp_path / "ft"),
                      "--train.total_steps=1", "--train.batch_size=2"]),
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


def test_link_truncates_to_checkpoint_max_len(world, trained, tmp_path, capsys):
    # the checkpoint has max_len=32; with no config the default 256 would
    # reach the encoder and fail on this 60-token input
    root, paths, docs = world
    text = " ".join(d["text"] for d in docs[:10])
    assert len(text.split()) > 32
    text_file = tmp_path / "long.txt"
    text_file.write_text(text)
    rc = main([
        "link",
        "--checkpoint", trained,
        "--token-vocab", paths["token_vocab"],
        "--entity-vocab", paths["entity_vocab"],
        "--input", str(text_file),
    ])
    assert rc == 0
    lines = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
    assert lines, "no mentions detected"
    seen = len(" ".join(text.split()[:32]))
    assert all(int(cells[1]) <= seen for cells in lines)
