"""BERT-style input corruption for pretraining.

A fraction of token positions is selected; selected tokens become [MASK]
(mask_frac), a random non-reserved token (random_frac), or stay unchanged
(the rest). Only the inputs change: mention labels and entity targets are
never touched.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import TokenVocab


@dataclass(frozen=True)
class NoiseConfig:
    select_rate: float = 0.15
    mask_frac: float = 0.8
    random_frac: float = 0.1
    rng_seed: int = 0
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.select_rate <= 1.0:
            raise ValueError("select_rate must be in [0, 1]")
        # negated comparisons, so a NaN fails them too
        for key in ("mask_frac", "random_frac"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must be in [0, 1]")
        total = self.mask_frac + self.random_frac
        if total > 1.0 + 1e-9:
            raise ValueError(f"mask_frac + random_frac must be at most 1, got {total}")


def apply_noise(
    tokens,
    cfg: NoiseConfig,
    vocab: TokenVocab,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt a token sequence; returns (noised tokens, selection mask).

    Each position is selected independently with cfg.select_rate; selected
    positions turn into [MASK] with cfg.mask_frac, into a uniform-random
    non-reserved token with cfg.random_frac, and stay as-is otherwise.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    n = tokens.shape[0]
    out = tokens.copy()
    selected = rng.random(n) < cfg.select_rate
    action = rng.random(n)

    replaceable = vocab.non_reserved_ids()
    to_mask = selected & (action < cfg.mask_frac)
    to_random = selected & ~to_mask & (action < cfg.mask_frac + cfg.random_frac)
    out[to_mask] = vocab.mask_index
    if to_random.any():
        if replaceable.size == 0:
            raise ValueError("no non-reserved tokens available for random replacement")
        out[to_random] = replaceable[rng.integers(0, replaceable.size, to_random.sum())]
    return out, selected
