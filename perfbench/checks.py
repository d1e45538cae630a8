"""Checks of each command's outputs, and the dense disambiguation oracle.

A failed check raises CheckFailed; the runner counts the command as failed.
"""

import hashlib
import json
import math

import numpy as np


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def file_digest(path: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def check_pretrain(stdout: str, out_dir: str, steps: int, expected_config, load_checkpoint) -> str:
    """train_log.tsv has one finite row per step; the checkpoint loads with
    the expected config. Returns the checkpoint's blake2b digest."""
    _require(json.loads(stdout)["steps"] == steps, "pretrain reported a different step count")
    with open(f"{out_dir}/train_log.tsv", encoding="utf-8") as f:
        header, *rows = [line.rstrip("\n").split("\t") for line in f]
    _require(header == ["step", "lr", "loss", "linking_acc"], f"train_log header {header}")
    _require([int(r[0]) for r in rows] == list(range(1, steps + 1)), "train_log steps")
    _require(all(math.isfinite(float(r[2])) for r in rows), "non-finite loss in train_log")
    ckpt = f"{out_dir}/checkpoint.elck"
    config = load_checkpoint(ckpt).config
    _require(config == expected_config, f"checkpoint config {config} != {expected_config}")
    return file_digest(ckpt)


def check_link(stdout: str, text: str, entity_ids: set) -> str:
    """Every row's offsets lie in the input, its surface is the input slice,
    its entity is known and 0 < p <= 1. Returns a digest of the output."""
    rows = stdout.splitlines()
    _require(bool(rows), "link printed no mentions")
    for row in rows:
        start, end, surface, entity, prob = row.split("\t")
        start, end, prob = int(start), int(end), float(prob)
        _require(0 <= start < end <= len(text), f"link offsets out of range: {row!r}")
        expected = text[start:end].replace("\t", " ").replace("\n", " ")
        _require(surface == expected, f"link surface differs from the input: {row!r}")
        _require(entity in entity_ids, f"link entity not in the vocabulary: {row!r}")
        _require(0.0 < prob <= 1.0, f"link probability out of range: {row!r}")
    return text_digest(stdout)


def check_disambig(stdout: str, errors_tsv: str, oracle, entity_id, alias: bool) -> None:
    """The report counts every gold mention and its accuracy is the oracle's;
    the error dump lists exactly the oracle's wrong predictions, in order."""
    report = json.loads(stdout)
    _require(report["n_mentions"] == len(oracle), f"n_mentions {report['n_mentions']} != {len(oracle)}")
    if alias:
        _require(report["n_no_candidates"] == 0, "alias mode found mentions without candidates")
    expected = 100.0 * sum(g == p for g, p in oracle) / len(oracle)
    _require(report["accuracy"] == expected, f"accuracy {report['accuracy']} != oracle {expected}")
    with open(errors_tsv, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    wrong = [(entity_id(g), entity_id(p)) for g, p in oracle if g != p]
    _require([tuple(r[1:3]) for r in rows] == wrong, "error dump differs from the oracle's errors")


def oracle_predictions(params, contexts_path: str, candidates_of, encode, span_repr):
    """(gold, predicted) entity of every labeled mention, in file order.

    Dense scoring against the full entity table: argmax over each mention's
    candidates (all entities when candidates_of is None), the lowest entity
    id winning ties.
    """
    ent = params["ent_emb"].data
    out = []
    with open(contexts_path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    for rec in records:
        labels = [l for l in rec["labels"] if l["entity"] is not None]
        if not labels:
            continue
        H = encode(params, np.asarray(rec["tokens"])[None, :])
        starts = [l["span"][0] for l in labels]
        ends = [l["span"][1] for l in labels]
        svec = span_repr(params, H, np.zeros(len(labels), dtype=np.int64), starts, ends).data
        for row, label in zip(svec @ ent.T, labels):
            if candidates_of is None:
                pred = int(np.argmax(row))
            else:
                cands = sorted(candidates_of(label["entity"]))
                pred = cands[int(np.argmax(row[cands]))]
            out.append((label["entity"], pred))
    return out
