"""Flat config parsing, overrides, and seed fan-out."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elink.config import (
    ConfigError,
    ModelSettings,
    Paths,
    RunConfig,
    build_run_config,
    load_run_config,
    parse_kv_text,
    parse_override_args,
    resolved_text,
)
from elink.corpus import CONTEXT_MODES
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


@pytest.mark.parametrize("key, value, message", [
    ("model.n_heads", "3", "d_model must be divisible by n_heads"),
    ("model.d_model", "0", "all model dimensions must be positive"),
    ("model.max_len", "-5", "all model dimensions must be positive"),
    ("model.n_layers", "-1", "n_layers must be >= 0"),
    ("corpus.chunk_chars", "0", "chunk_chars must be positive"),
    ("corpus.window_bytes", "-1", "window_bytes must be positive"),
    ("corpus.mode", "paragraph", "mode must be one of"),
    ("corpus.context_mode", "lead3", "context_mode must be one of"),
])
def test_out_of_range_values_rejected_at_load(key, value, message):
    """The model section runs ModelConfig's own checks, and the corpus
    section its own, when the config loads."""
    section = key.partition(".")[0]
    with pytest.raises(ConfigError, match=rf"^section '{section}': {re.escape(message)}"):
        build_run_config({key: value})


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelConfig)])
def test_a_bad_model_dimension_is_named_with_its_value(name):
    """ModelConfig names the field it rejects and its value; a config key
    also gets its section."""
    bad = -1 if name == "n_layers" else -5
    message = rf"{name}\b.* {bad}$"
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{"vocab_size": 10, "n_entities": 10, name: bad})
    if name in {f.name for f in dataclasses.fields(ModelSettings)}:
        with pytest.raises(ConfigError, match=rf"^section 'model': .*{message}"):
            build_run_config({f"model.{name}": str(bad)})


@pytest.mark.parametrize("key", ["paths.docs", "corpus.context_mode", "train.softmax_mode"])
@pytest.mark.parametrize("line_end", ["\n", "\r"])
def test_a_value_with_a_line_break_fails_at_load(key, line_end):
    """The echo writes one line per setting, so a value that holds a line
    break, from a file or an override, cannot be echoed and fails."""
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: .* holds a line break"):
        build_run_config({key: f"a{line_end}b"})


ONE_LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))
UNIT = st.floats(0.0, 1.0)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SEEDS = st.integers(-(2**70), 2**70)


@st.composite
def run_settings(draw):
    """Flat items that build a valid RunConfig, each key of every section
    present or not: paths any one-line text, numbers in their valid ranges,
    n_heads a divisor of d_model."""
    items = {}

    def maybe(key, strategy):
        if draw(st.booleans()):
            items[key] = str(draw(strategy))

    maybe("seed", SEEDS)
    for f in dataclasses.fields(Paths):
        maybe(f"paths.{f.name}", ONE_LINE)
    for f in dataclasses.fields(ModelSettings):
        if f.name != "n_heads":
            maybe(f"model.{f.name}", st.integers(1, 1024))
    d_model = int(items.get("model.d_model", ModelSettings.d_model))
    heads = st.sampled_from([h for h in range(1, 65) if d_model % h == 0])
    if d_model % ModelSettings.n_heads:  # the default does not divide d_model
        items["model.n_heads"] = str(draw(heads))
    else:
        maybe("model.n_heads", heads)
    maybe("corpus.chunk_chars", st.integers(1, 10**6))
    maybe("corpus.mode", st.sampled_from(["chunk", "sentence", "window"]))
    maybe("corpus.context_mode", st.sampled_from(CONTEXT_MODES))
    maybe("corpus.window_bytes", st.integers(1, 10**6))
    if draw(st.booleans()):   # all four budgets, as they bound each other
        budgets = draw(st.lists(st.integers(0, 1000), min_size=3, max_size=3))
        names = ("max_page", "max_phrase", "min_random", "k")
        values = [*budgets, sum(budgets) + draw(st.integers(0, 1000))]
        items.update({f"candidates.{n}": str(v) for n, v in zip(names, values)})
    mask = draw(UNIT)
    if draw(st.booleans()):
        items.update({"noise.mask_frac": str(mask),
                      "noise.random_frac": str(draw(st.floats(0.0, 1.0 - mask)))})
    maybe("noise.select_rate", UNIT)
    maybe("noise.enabled", st.sampled_from(["true", "false", "1", "0", "yes", "no", "True"]))
    for key in ("base_lr", "clip_norm", "eps"):
        maybe(f"train.{key}", POSITIVE)
    maybe("train.warmup_frac", st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    for key in ("beta1", "beta2"):
        maybe(f"train.{key}", st.floats(0.0, 1.0, exclude_max=True))
    for key in ("link_weight", "bio_weight"):
        maybe(f"train.{key}", FINITE)
    for key in ("total_steps", "batch_size", "log_interval"):
        maybe(f"train.{key}", st.integers(1, 10**6))
    maybe("train.checkpoint_interval", st.integers(0, 10**6))
    maybe("train.softmax_mode", st.sampled_from(["candidates", "all_entities"]))
    maybe("train.freeze_entity_embeddings", st.booleans())
    for section in ("candidates", "noise", "train"):
        maybe(f"{section}.rng_seed", SEEDS)
    return items


@given(run_settings())
@settings(max_examples=200, deadline=None)
def test_resolved_text_rebuilds_the_config(items):
    """The echo of any valid config, every path included, parses and
    builds back to the same config, so it reruns the run."""
    cfg = build_run_config(items)
    assert build_run_config(parse_kv_text(resolved_text(cfg))) == cfg


KNOWN_KEYS = {"seed"} | {
    f"{section.name}.{f.name}"
    for section in dataclasses.fields(RunConfig) if section.name != "seed"
    for f in dataclasses.fields(getattr(RunConfig(), section.name))
}


@given(run_settings(), st.data())
@settings(max_examples=300, deadline=None)
def test_config_file_under_a_random_corruption(tmp_path_factory, items, data):
    """One change to a config file written from valid settings: a value
    replaced by random one-line text, a line's `=` deleted, an unknown key
    inserted, or the line ends switched to CRLF or CR. The file either
    loads, or raises ConfigError naming the changed key, its section or its
    `path:line`; never anything else. An unknown key always fails, and
    switched line ends load the same config."""
    lines = [f"{key} = {value}" for key, value in items.items()]
    kind = data.draw(st.sampled_from(
        ["unknown", "line_ends"] + (["value", "no_equals"] if lines else [])))
    eol = data.draw(st.sampled_from(["\r\n", "\r"])) if kind == "line_ends" else "\n"
    key, k = None, None  # the changed key, and its line's index
    if kind == "unknown":
        key = data.draw(st.from_regex(r"[a-z]{1,8}(\.[a-z_]{1,12})?", fullmatch=True)
                        .filter(lambda key: key not in KNOWN_KEYS))
        k = data.draw(st.integers(0, len(lines)))
        lines.insert(k, f"{key} = 1")
    elif kind != "line_ends":
        k = data.draw(st.integers(0, len(lines) - 1))
        key = list(items)[k]
        if kind == "value":
            lines[k] = f"{key} = {data.draw(ONE_LINE)}"
        else:
            lines[k] = lines[k].replace("=", "", 1)
    path = tmp_path_factory.mktemp("config") / "run.cfg"
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    try:
        cfg = load_run_config(str(path), {})
    except ConfigError as exc:
        assert key is not None, str(exc)
        named = (key, f"section '{key.partition('.')[0]}'", f"{path}:{k + 1}: ")
        assert any(name in str(exc) for name in named), str(exc)
    else:
        assert kind != "unknown"
        if kind == "line_ends":
            assert cfg == build_run_config(items)
