"""Input noising: selection rates, action split, determinism."""

import numpy as np
import pytest

from elink.corpus import TokenVocab
from elink.noising import NoiseConfig, apply_noise


@pytest.fixture
def vocab():
    return TokenVocab(["[PAD]", "[UNK]", "[MASK]", "[SEP]"] + [f"w{i}" for i in range(60)])


def toks(vocab, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(4, len(vocab), size=n)


def test_zero_rate_is_identity(vocab):
    cfg = NoiseConfig(select_rate=0.0, rng_seed=1)
    tokens = toks(vocab, 500)
    out, mask = apply_noise(tokens, cfg, vocab)
    assert (out == tokens).all()
    assert not mask.any()


def test_degenerate_all_mask(vocab):
    cfg = NoiseConfig(select_rate=1.0, mask_frac=1.0, random_frac=0.0, rng_seed=1)
    tokens = toks(vocab, 200)
    out, mask = apply_noise(tokens, cfg, vocab)
    assert (out == vocab.mask_index).all()
    assert mask.all()


def test_statistics_at_defaults(vocab):
    n = 100_000
    tokens = toks(vocab, n)
    out, mask = apply_noise(tokens, NoiseConfig(rng_seed=7), vocab)
    selected = mask.mean()
    assert abs(selected - 0.15) < 0.01

    n_mask = (out == vocab.mask_index).sum()
    changed_random = (mask & (out != tokens) & (out != vocab.mask_index)).sum()
    kept_selected = (mask & (out == tokens)).sum()
    assert abs(n_mask / n - 0.12) < 0.01
    # a random replacement can coincide with the original token (~1/|V| of draws),
    # so allow the generous absolute band
    assert abs(changed_random / n - 0.015) < 0.005
    assert abs(kept_selected / n - 0.015) < 0.005


def test_seed_determinism(vocab):
    tokens = toks(vocab, 1000)
    cfg = NoiseConfig(rng_seed=99)
    out1, m1 = apply_noise(tokens, cfg, vocab)
    out2, m2 = apply_noise(tokens, cfg, vocab)
    assert (out1 == out2).all() and (m1 == m2).all()


def test_different_seeds_differ(vocab):
    tokens = toks(vocab, 1000)
    out1, _ = apply_noise(tokens, NoiseConfig(rng_seed=1), vocab)
    out2, _ = apply_noise(tokens, NoiseConfig(rng_seed=2), vocab)
    assert (out1 != out2).any()


def test_random_replacements_exclude_reserved(vocab):
    cfg = NoiseConfig(select_rate=1.0, mask_frac=0.0, random_frac=1.0, rng_seed=3)
    out, _ = apply_noise(toks(vocab, 5000), cfg, vocab)
    assert not np.isin(out, list(vocab.reserved_indices)).any()


def test_unselected_positions_unchanged(vocab):
    tokens = toks(vocab, 2000)
    out, mask = apply_noise(tokens, NoiseConfig(rng_seed=5), vocab)
    assert (out[~mask] == tokens[~mask]).all()


def test_fraction_validation():
    with pytest.raises(ValueError, match="mask_frac \\+ random_frac must be at most 1"):
        NoiseConfig(mask_frac=0.6, random_frac=0.5)
    with pytest.raises(ValueError):
        NoiseConfig(select_rate=1.5)
    # the kept share is whatever the other two leave
    NoiseConfig(mask_frac=0.5, random_frac=0.2)
    NoiseConfig(mask_frac=0.0, random_frac=0.0)


def test_empty_sequence(vocab):
    out, mask = apply_noise([], NoiseConfig(rng_seed=0), vocab)
    assert out.size == 0 and mask.size == 0
