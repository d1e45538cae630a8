"""Flat `key = value` run configuration with dotted keys and CLI overrides.

A config file (UTF-8, `#` comments) covers every tunable section; command
line overrides of the form `--section.key=value` take precedence. All
sub-component seeds are fanned out from the single top-level `seed` unless
a section seed is set explicitly, so one integer reproduces a whole run.
"""

import dataclasses
from dataclasses import dataclass, field

from .candidates import CandidateConfig
from .corpus import CONTEXT_MODES, read_text, split_lines
from .model import ModelConfig
from .noising import NoiseConfig
from .seeding import derive_seed
from .training import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class Paths:
    docs: str | None = None
    corpus: str | None = None
    token_vocab: str | None = None
    entity_vocab: str | None = None
    page_links: str | None = None
    phrase_table: str | None = None
    alias_table: str | None = None
    redirects: str | None = None
    checkpoint: str | None = None
    dataset: str | None = None
    out_dir: str | None = None


@dataclass
class ModelSettings:
    """ModelConfig minus the vocabulary sizes, which come from vocab files."""

    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 4
    d_ff: int = 256
    d_entity: int = 256
    max_len: int = 256

    def __post_init__(self):
        # ModelConfig's own checks, with stand-in vocabulary sizes
        ModelConfig(1, 1, **dataclasses.asdict(self))


CORPUS_MODES = ("chunk", "sentence", "window")


@dataclass
class CorpusSettings:
    chunk_chars: int = 1000
    mode: str = "chunk"
    context_mode: str = "title_lead2"
    window_bytes: int = 256

    def __post_init__(self):
        if self.mode not in CORPUS_MODES:
            raise ValueError(f"mode must be one of {CORPUS_MODES}, got {self.mode!r}")
        if self.context_mode not in CONTEXT_MODES:
            raise ValueError(
                f"context_mode must be one of {CONTEXT_MODES}, got {self.context_mode!r}"
            )
        for name in ("chunk_chars", "window_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class RunConfig:
    seed: int = 0
    paths: Paths = field(default_factory=Paths)
    model: ModelSettings = field(default_factory=ModelSettings)
    corpus: CorpusSettings = field(default_factory=CorpusSettings)
    candidates: CandidateConfig = field(default_factory=CandidateConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    train: TrainConfig = field(default_factory=TrainConfig)


_SECTIONS = ("paths", "model", "corpus", "candidates", "noise", "train")


def _coerce(raw: str, typ, key: str):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if "\n" in raw or "\r" in raw:
        raise ConfigError(f"{key}: {raw!r} holds a line break, so it cannot be echoed")
    return raw


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines into a flat dict; later keys win."""
    items: dict[str, str] = {}
    lines, linenos = split_lines(text)
    for lineno, line in zip(linenos, lines):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = stripped.partition("=")
        items[key.strip()] = value.strip()
    return items


def parse_kv_file(path) -> dict[str, str]:
    return parse_kv_text(read_text(path), source=str(path))


def parse_override_args(args: list[str]) -> tuple[dict[str, str], list[str]]:
    """Split argv into dotted-key overrides (`--a.b=v` or `--a.b v`) and the rest."""
    overrides: dict[str, str] = {}
    rest: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg.startswith("--") and "." in arg.split("=", 1)[0]:
            key = arg[2:]
            if "=" in key:
                key, _, value = key.partition("=")
            else:
                if i + 1 >= len(args):
                    raise ConfigError(f"override {arg} is missing a value")
                i += 1
                value = args[i]
            overrides[key] = value
        else:
            rest.append(arg)
        i += 1
    return overrides, rest


def build_run_config(items: dict[str, str]) -> RunConfig:
    """Typed RunConfig from flat items, with seed fan-out for unset sub-seeds."""
    cfg = RunConfig()
    updates: dict[str, dict] = {name: {} for name in _SECTIONS}
    explicit_seeds: set[str] = set()

    for key, raw in items.items():
        if key == "seed":
            cfg.seed = _coerce(raw, int, key)
            continue
        section_name, _, fname = key.partition(".")
        if section_name not in _SECTIONS or not fname:
            raise ConfigError(f"unknown config key {key!r}")
        section = getattr(cfg, section_name)
        fields = {f.name: f for f in dataclasses.fields(section)}
        if fname not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        ftype = fields[fname].type
        typ = ftype if ftype in (int, float, bool) else str
        updates[section_name][fname] = _coerce(raw, typ, key)
        if fname == "rng_seed":
            explicit_seeds.add(section_name)

    for name in ("candidates", "noise", "train"):
        if name not in explicit_seeds:
            updates[name]["rng_seed"] = derive_seed(cfg.seed, name)

    for name in _SECTIONS:
        section = getattr(cfg, name)
        if updates[name]:
            try:
                setattr(cfg, name, dataclasses.replace(section, **updates[name]))
            except ValueError as exc:
                raise ConfigError(f"section {name!r}: {exc}") from exc
    return cfg


def load_run_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
    items = parse_kv_file(path) if path else {}
    items.update(overrides)
    return build_run_config(items)


def resolved_text(cfg: RunConfig) -> str:
    """The fully-resolved config, echoable beside run outputs."""
    lines = [f"seed = {cfg.seed}"]
    for name in _SECTIONS:
        section = getattr(cfg, name)
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            if value is None:
                continue
            lines.append(f"{name}.{f.name} = {value}")
    return "\n".join(lines) + "\n"
