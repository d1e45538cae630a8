"""Self-test of the benchmark's tracer and metric names: python3 -m pytest perfbench"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from tracer import Span, Target, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tr = Tracer(clock)

    def sleep(dt):
        clock.now += dt

    def fail():
        clock.now += 0.25
        raise KeyError("boom")

    leaf = tr.wrap(sleep, "leaf")
    broken = tr.wrap(fail, "broken")

    def outer():
        clock.now += 1.0
        leaf(2.0)
        clock.now += 0.5
        leaf(3.0)
        with pytest.raises(KeyError):
            broken()

    tr.wrap(outer, "outer")()
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("outer", None), ("leaf", 0), ("leaf", 0), ("broken", 0)
    ]
    assert tr.spans[0].end - tr.spans[0].start == 6.75
    assert self_times(tr.spans) == [1.5, 2.0, 3.0, 0.25]


def test_install_wraps_every_binding(monkeypatch):
    def f(x):
        return x + 1

    class K:
        def m(self):
            return 3

    original_m = K.m
    pkg, a, b, other = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b", "other"))
    a.f, a.K = f, K
    b.f = b.alias = pkg.f = other.f = f
    for mod in (pkg, a, b, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tr = Tracer()
    tr.install([Target("fakepkg.a", "f", "a.f"), Target("fakepkg.a", "K.m", "a.K.m")], "fakepkg")
    assert a.f is b.f is b.alias is pkg.f
    assert a.f is not f and other.f is f
    assert b.alias(1) == 2 and K().m() == 3
    assert [s.name for s in tr.spans] == ["a.f", "a.K.m"]
    tr.uninstall()
    assert a.f is b.f is b.alias is pkg.f is f
    assert K.m is original_m


def test_install_reaches_every_elink_module_binding():
    import elink.cli
    import elink.config
    import elink.model
    import elink.training

    build_batch, encode = elink.model.build_batch, elink.model.encode
    tr = Tracer()
    tr.install(layers.TARGETS, "elink")
    try:
        assert tr.absent == []
        assert elink.training.build_batch is elink.model.build_batch
        assert elink.model.build_batch.__wrapped__ is build_batch
        assert elink.encode is elink.model.encode is not encode
        assert elink.cli.load_run_config is elink.config.load_run_config
        assert elink.cli.load_run_config.__wrapped__ is not None
    finally:
        tr.uninstall()
    assert elink.training.build_batch is elink.model.build_batch is build_batch
    assert elink.encode is elink.model.encode is encode


def test_missing_function_is_absent_not_a_crash(monkeypatch):
    import elink.evaluation
    import elink.model

    monkeypatch.delattr(elink.model, "rank_entities")
    monkeypatch.delattr(elink.evaluation, "rank_entities")
    tr = Tracer()
    tr.install([*layers.TARGETS, Target("elink.nowhere", "f", "nowhere.f")], "elink")
    tr.uninstall()
    assert tr.absent == ["model.rank_entities", "nowhere.f"]

    # A traced eval-disambig run without rank_entities spans: the metric is
    # left out (the runner reports it absent) and nothing else breaks.
    spans = [Span("cli.command", 0.0, 1.0, None, 1), Span("model.encode", 0.1, 0.2, 0, 1)]
    found = layers.layer_metrics(spans, {1: "disambig_all"}, n_entities=10)
    assert "model.rank_entities.ms_per_context.p50" not in found
    assert found["trace.coverage.disambig_all_frac"] == pytest.approx(0.1)


def test_step_metrics_split_at_adam_returns():
    spans = [
        Span("cli.command", 0.0, 10.0, None, 1),
        Span("model.build_batch", 1.0, 2.0, 0, 1, (2, 10)),
        Span("model.encode", 2.0, 4.0, 0, 1),
        Span("training.adam_step", 4.0, 5.0, 0, 1),
        Span("model.build_batch", 5.0, 6.0, 0, 1, (0, 10)),
        Span("model.encode", 6.0, 7.5, 0, 1),
        Span("training.adam_step", 8.0, 9.0, 0, 1),
        Span("model.save_checkpoint", 9.0, 9.5, 0, 1),
    ]
    found = layers.layer_metrics(spans, {1: "pretrain"}, n_entities=10)
    assert found["model.encode.ms_per_step.n"] == 2
    assert found["model.encode.ms_per_step.p50"] == pytest.approx(1750.0)
    assert found["model.encode.ms_per_step.p90"] == pytest.approx(2000.0)
    assert found["training.step_ms.p50"] == pytest.approx(4000.0)
    assert found["training.loop_other.ms_per_step.p50"] == pytest.approx(500.0)
    assert found["model.build_batch.pad_frac"] == pytest.approx(0.1)
    assert found["model.save_checkpoint.ms.p50"] == pytest.approx(500.0)
    assert "training.adam_step.ms_per_step.p50" in found
    assert "candidates.assemble_candidates.ms_per_step.p50" not in found


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.metric_units(harness.THROUGHPUTS)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
