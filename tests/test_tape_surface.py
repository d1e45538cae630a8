"""The autodiff tape keeps only what the package calls.

Every public autodiff function and every Tensor operator must be reached
from elink's own code by one pretrain step, one alias and one
all-entities fine-tune step, entity ranking and end-to-end prediction;
an op that nothing in the package calls any more is deleted, not kept.
"""

import inspect
import os
import sys
import threading
from dataclasses import replace

import numpy as np
from helpers import make_world

import elink
from elink import autodiff as ad
from elink.aliastable import AliasTable
from elink.candidates import CandidateConfig
from elink.model import ModelConfig, predict_end_to_end, rank_entities
from elink.noising import NoiseConfig
from elink.training import TrainConfig, finetune, pretrain

PACKAGE = os.path.dirname(os.path.abspath(elink.__file__))


def _surface() -> dict:
    """Code object -> name of every public autodiff function and every
    Tensor method, property and operator (not construction or printing)."""
    out = {}
    for name, fn in vars(ad).items():
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_"):
            out[fn.__code__] = name
    for name, attr in vars(ad.Tensor).items():
        fn = attr.fget if isinstance(attr, property) else attr
        if inspect.isfunction(fn) and name not in ("__init__", "__repr__"):
            out[fn.__code__] = f"Tensor.{name}"
    return out


def test_package_reaches_every_autodiff_op():
    surface = _surface()
    reached = set()

    def profile(frame, event, arg):
        if event != "call" or frame.f_code not in surface:
            return
        caller = frame.f_back
        while caller is not None and caller.f_code.co_filename == ad.__file__:
            caller = caller.f_back
        if caller is not None and os.path.abspath(caller.f_code.co_filename).startswith(PACKAGE):
            reached.add(surface[frame.f_code])

    vocab, contexts, phrase, pages = make_world(n_entities=20, n_contexts=8, seed=0)
    mcfg = ModelConfig(vocab_size=len(vocab), n_entities=20, d_model=16, n_layers=1,
                       n_heads=2, d_ff=32, d_entity=16, max_len=32)
    tcfg = TrainConfig(base_lr=1e-3, total_steps=1, batch_size=4, log_interval=1, rng_seed=3)
    ccfg = CandidateConfig(k=8, max_page=2, max_phrase=2, min_random=2, rng_seed=5)
    table = AliasTable({f"n{i}": [2 * i, 2 * i + 1] for i in range(10)})
    # shard threads start inside each training call, after threading.setprofile
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        params, _ = pretrain(contexts, vocab, 20, mcfg, tcfg, ccfg, NoiseConfig(rng_seed=11),
                             pages, phrase)
        for mode in ("candidates", "all_entities"):
            finetune(params, contexts, vocab, replace(tcfg, softmax_mode=mode), table)
        ctx = contexts[0]
        spans = [l.span for l in ctx.labels]
        rank_entities(params, ctx.tokens, spans, [[0, 1]] * len(spans))
        predict_end_to_end(params, np.asarray(ctx.tokens))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    unreached = sorted(set(surface.values()) - reached)
    assert not unreached, f"autodiff ops that no elink code calls: {unreached}"
