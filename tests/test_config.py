"""Flat config parsing, overrides, and seed fan-out."""

import dataclasses

import pytest

from elink.config import (
    ConfigError,
    ModelSettings,
    build_run_config,
    load_run_config,
    parse_kv_text,
    parse_override_args,
    resolved_text,
)
from elink.model import ModelConfig
from elink.seeding import derive_seed


def test_parse_kv_text_basics():
    items = parse_kv_text("# comment\nseed = 3\n\ntrain.base_lr = 1e-5\n")
    assert items == {"seed": "3", "train.base_lr": "1e-5"}


def test_parse_kv_rejects_bare_lines():
    with pytest.raises(ConfigError, match="key = value"):
        parse_kv_text("not a pair\n")


def test_parse_kv_text_splits_only_at_line_ends():
    # \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029 end no line: they stay in a value
    items = parse_kv_text("a.b = x\x85y\u2028z\r\n\r\nc.d = 1\re.f = 2")
    assert items == {"a.b": "x\x85y\u2028z", "c.d": "1", "e.f": "2"}
    with pytest.raises(ConfigError, match="<config>:3: "):
        parse_kv_text("a.b = 1\r\n \t \rnot a pair\n")


def test_model_settings_are_model_config_less_the_sizes():
    """The config's model section is ModelConfig less the two vocabulary
    sizes, field for field and default for default, so the CLI can build
    one from the other."""
    def spec(fields):
        return [(f.name, f.type, f.default) for f in fields]

    fields = dataclasses.fields(ModelConfig)
    assert [f.name for f in fields[:2]] == ["vocab_size", "n_entities"]
    assert spec(dataclasses.fields(ModelSettings)) == spec(fields[2:])


def test_typed_sections():
    cfg = build_run_config({
        "seed": "9",
        "train.base_lr": "1e-5",
        "train.total_steps": "77",
        "train.freeze_entity_embeddings": "true",
        "noise.enabled": "false",
        "model.d_model": "48",
        "paths.corpus": "x.jsonl",
    })
    assert cfg.seed == 9
    assert cfg.train.base_lr == 1e-5
    assert cfg.train.total_steps == 77
    assert cfg.train.freeze_entity_embeddings is True
    assert cfg.noise.enabled is False
    assert cfg.model.d_model == 48
    assert cfg.paths.corpus == "x.jsonl"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_run_config({"train.nope": "1"})
    with pytest.raises(ConfigError, match="unknown config key"):
        build_run_config({"wat.base_lr": "1"})


def test_noise_fractions_are_mask_and_random_only():
    # the kept share is 1 - mask_frac - random_frac; there is no key for it
    with pytest.raises(ConfigError, match="unknown config key"):
        build_run_config({"noise.keep_frac": "0.1"})
    with pytest.raises(ConfigError, match="mask_frac \\+ random_frac must be at most 1"):
        build_run_config({"noise.mask_frac": "0.9", "noise.random_frac": "0.2"})
    cfg = build_run_config({"noise.mask_frac": "0.5", "noise.random_frac": "0.25"})
    assert (cfg.noise.mask_frac, cfg.noise.random_frac) == (0.5, 0.25)


def test_bad_boolean_rejected():
    with pytest.raises(ConfigError, match="boolean"):
        build_run_config({"noise.enabled": "maybe"})


def test_seed_fanout_differs_per_section():
    cfg = build_run_config({"seed": "7"})
    assert cfg.candidates.rng_seed == derive_seed(7, "candidates")
    assert cfg.noise.rng_seed == derive_seed(7, "noise")
    assert cfg.train.rng_seed == derive_seed(7, "train")
    assert len({cfg.candidates.rng_seed, cfg.noise.rng_seed, cfg.train.rng_seed}) == 3


def test_explicit_section_seed_wins():
    cfg = build_run_config({"seed": "7", "noise.rng_seed": "123"})
    assert cfg.noise.rng_seed == 123
    assert cfg.candidates.rng_seed == derive_seed(7, "candidates")


def test_section_validation_propagates():
    with pytest.raises(ConfigError, match="candidates"):
        build_run_config({"candidates.k": "4", "candidates.min_random": "100"})


def test_override_args_split():
    overrides, rest = parse_override_args(
        ["pretrain", "--train.base_lr=2e-4", "--out-dir", "x", "--noise.enabled", "false"]
    )
    assert overrides == {"train.base_lr": "2e-4", "noise.enabled": "false"}
    assert rest == ["pretrain", "--out-dir", "x"]


def test_override_missing_value():
    with pytest.raises(ConfigError, match="missing a value"):
        parse_override_args(["--train.base_lr"])


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\ntrain.total_steps = 10\n")
    cfg = load_run_config(str(path), {"train.total_steps": "99"})
    assert cfg.train.total_steps == 99
    assert cfg.seed == 1


def test_resolved_text_round_trips():
    cfg = build_run_config({"seed": "4", "model.d_model": "24", "paths.out_dir": "runs/a"})
    text = resolved_text(cfg)
    again = build_run_config(parse_kv_text(text))
    assert again.model.d_model == 24
    assert again.paths.out_dir == "runs/a"
    assert again.train.rng_seed == cfg.train.rng_seed


@pytest.mark.parametrize("key, value", [
    ("train.base_lr", "nan"),
    ("train.clip_norm", "nan"),
    ("train.link_weight", "nan"),
    ("train.bio_weight", "nan"),
    ("noise.mask_frac", "nan"),
    ("noise.random_frac", "nan"),
    ("train.base_lr", "inf"),
    ("train.clip_norm", "inf"),
])
def test_non_finite_values_rejected_at_load(key, value):
    section, _, name = key.partition(".")
    with pytest.raises(ConfigError, match=rf"section '{section}': {name} must"):
        build_run_config({key: value})
