"""Which elink functions the traced run wraps, and the per-layer metrics
derived from their spans.

Training metrics are per optimizer step: a step ends when `adam_step`
returns, and a span belongs to the step whose end it precedes. Inference
metrics are per call, within the command kinds named for each. Every
timing is reported as its median (`.p50`), 90th percentile (`.p90`) and
sample count (`.n`). A metric with no samples, for instance because its
function is gone from the package, is reported as 0 and listed as absent.
"""

import math
import statistics
from bisect import bisect_left

from tracer import Span, Target, self_times

PRETRAIN = ("pretrain",)
LINK = ("link",)
ALL = ("disambig_all",)
ALIAS = ("disambig_alias",)
DISAMBIG = ALL + ALIAS
INFER = LINK + DISAMBIG
COMMAND_KINDS = PRETRAIN + INFER
ROOT = "cli.command"   # span the benchmark opens around each elink.cli.main call


def _pad_info(batch):
    return int(batch.pad_mask.sum()), int(batch.pad_mask.size)


def _union_size(sets):
    return len(sets[0].entities) if sets else 0


TARGETS = [
    Target("elink.corpus", "load_contexts", "corpus.load_contexts"),
    Target("elink.corpus", "chunk_document", "corpus.chunk_document"),
    Target("elink.candidates", "assemble_candidates", "candidates.assemble_candidates"),
    Target("elink.candidates", "batch_negatives", "candidates.batch_negatives", _union_size),
    Target("elink.noising", "apply_noise", "noising.apply_noise"),
    Target("elink.autodiff", "Tensor.backward", "autodiff.backward"),
    Target("elink.model", "build_batch", "model.build_batch", _pad_info),
    Target("elink.model", "encode", "model.encode"),
    Target("elink.model", "linking_loss", "model.linking_loss"),
    Target("elink.model", "bio_loss", "model.bio_loss"),
    Target("elink.model", "backward", "model.backward"),
    Target("elink.model", "predict_end_to_end", "model.predict_end_to_end", len),
    Target("elink.model", "score_and_prob", "model.score_and_prob"),
    Target("elink.model", "rank_entities", "model.rank_entities"),
    Target("elink.model", "save_checkpoint", "model.save_checkpoint"),
    Target("elink.model", "load_checkpoint", "model.load_checkpoint"),
    Target("elink.training", "adam_step", "training.adam_step"),
    Target("elink.training", "clip_gradients", "training.clip_gradients"),
    Target("elink.aliastable", "resolve", "aliastable.resolve"),
    Target("elink.aliastable", "AliasTable.lookup", "aliastable.lookup"),
    Target("elink.evaluation", "run_disambiguation", "evaluation.run_disambiguation"),
    Target("elink.config", "load_run_config", "config.load_run_config"),
]

# metric base -> (span name, self time?); summed per training step
STEP_METRICS = {
    "candidates.assemble_candidates.ms_per_step": ("candidates.assemble_candidates", False),
    "candidates.batch_negatives.ms_per_step": ("candidates.batch_negatives", False),
    "noising.apply_noise.ms_per_step": ("noising.apply_noise", False),
    "autodiff.backward.ms_per_step": ("autodiff.backward", True),
    "model.build_batch.ms_per_step": ("model.build_batch", False),
    "model.encode.ms_per_step": ("model.encode", False),
    "model.linking_loss.ms_per_step": ("model.linking_loss", False),
    "model.bio_loss.ms_per_step": ("model.bio_loss", False),
    "model.backward.ms_per_step": ("model.backward", True),
    "training.adam_step.ms_per_step": ("training.adam_step", False),
    "training.clip_gradients.ms_per_step": ("training.clip_gradients", False),
}

# metric base -> (span name, self time?, command kinds); one sample per call
CALL_METRICS = {
    "corpus.load_contexts.ms": ("corpus.load_contexts", False, DISAMBIG),
    "corpus.chunk_document.ms": ("corpus.chunk_document", False, LINK),
    "model.encode.ms_per_call": ("model.encode", False, ALIAS),
    "model.predict_end_to_end.ms_per_chunk": ("model.predict_end_to_end", False, LINK),
    "model.score_and_prob.ms_per_span": ("model.score_and_prob", False, LINK),
    "model.rank_entities.ms_per_context": ("model.rank_entities", False, ALL),
    "model.save_checkpoint.ms": ("model.save_checkpoint", False, PRETRAIN),
    "model.load_checkpoint.ms": ("model.load_checkpoint", False, INFER),
    "aliastable.resolve.ms": ("aliastable.resolve", False, ALIAS),
    "evaluation.run_disambiguation.self_ms": ("evaluation.run_disambiguation", True, DISAMBIG),
    "config.load_run_config.ms": ("config.load_run_config", False, COMMAND_KINDS),
    **{f"cli.command.{k}.ms": (ROOT, False, (k,)) for k in COMMAND_KINDS},
}

# metric base -> unit; the remaining per-layer metrics, one value each
SCALAR_METRICS = {
    "candidates.union_size": "count",
    "candidates.union_frac": "ratio",
    "model.build_batch.pad_frac": "ratio",
    "model.spans_per_chunk": "count",
    "aliastable.lookup.calls": "count",
    "aliastable.lookup.ms": "ms",
    "trace.coverage.step_frac": "ratio",
    **{f"trace.coverage.{k}_frac": "ratio" for k in COMMAND_KINDS},
}

STEP_EXTRA = ("training.step_ms", "training.loop_other.ms_per_step")


def metric_units(throughputs) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for base in [*STEP_METRICS, *STEP_EXTRA, *CALL_METRICS]:
        units.update({f"{base}.p50": "ms", f"{base}.p90": "ms", f"{base}.n": "count"})
    units.update(SCALAR_METRICS)
    units.update({f"trace.overhead_frac.{t}": "ratio" for t in throughputs})
    return units


def _dist(base: str, samples, out: dict) -> None:
    if samples:
        ordered = sorted(samples)
        out[f"{base}.p50"] = statistics.median(ordered)
        out[f"{base}.p90"] = ordered[math.ceil(0.9 * len(ordered)) - 1]
        out[f"{base}.n"] = len(samples)


def _ms(span: Span) -> float:
    return 1e3 * (span.end - span.start)


def span_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total ms and self ms, for the run report."""
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, {"n": 0, "total_ms": 0.0, "self_ms": 0.0})
        t["n"] += 1
        t["total_ms"] += _ms(s)
        t["self_ms"] += 1e3 * self_s
    return out


def layer_metrics(spans: list[Span], kinds: dict[int, str], n_entities: int) -> dict:
    """Per-layer metrics from the spans of traced commands.

    kinds maps each traced run id to its command kind. Returns only the
    metrics that have samples; the caller marks the rest absent.
    """
    selfs = [1e3 * t for t in self_times(spans)]
    by_run: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_run.setdefault(s.run, []).append(i)
    out: dict = {}

    step_samples = {base: [] for base in [*STEP_METRICS, *STEP_EXTRA]}
    wanted = {name: (base, use_self) for base, (name, use_self) in STEP_METRICS.items()}
    unions, pads, covered, stepped = [], [0, 0], 0.0, 0.0
    for run, idxs in by_run.items():
        if kinds.get(run) != "pretrain":
            continue
        ends = sorted(spans[i].end for i in idxs if spans[i].name == "training.adam_step")
        if not ends:
            continue
        per_step: dict[str, list[float]] = {}
        for i in idxs:
            s = spans[i]
            step = bisect_left(ends, s.end)
            if step == len(ends):
                continue
            if s.name in wanted:
                base, use_self = wanted[s.name]
                per_step.setdefault(base, [0.0] * len(ends))[step] += (
                    selfs[i] if use_self else _ms(s)
                )
            if s.name == "candidates.batch_negatives":
                unions.append(s.info)
            elif s.name == "model.build_batch":
                pads[0] += s.info[0]
                pads[1] += s.info[1]
        for base, values in per_step.items():
            step_samples[base] += values
        members = set(idxs)
        for lo, hi in zip(ends, ends[1:]):
            inside = {i for i in members if spans[i].start >= lo and spans[i].end <= hi}
            cover = sum(_ms(spans[i]) for i in inside if spans[i].parent not in inside)
            step_samples["training.step_ms"].append(1e3 * (hi - lo))
            step_samples["training.loop_other.ms_per_step"].append(1e3 * (hi - lo) - cover)
            covered += cover
            stepped += 1e3 * (hi - lo)
    for base, samples in step_samples.items():
        _dist(base, samples, out)
    if unions:
        out["candidates.union_size"] = statistics.median(unions)
        out["candidates.union_frac"] = statistics.median(unions) / n_entities
    if pads[1]:
        out["model.build_batch.pad_frac"] = pads[0] / pads[1]
    if stepped:
        out["trace.coverage.step_frac"] = covered / stepped

    for base, (name, use_self, allowed) in CALL_METRICS.items():
        samples = [
            selfs[i] if use_self else _ms(s)
            for i, s in enumerate(spans)
            if s.name == name and kinds.get(s.run) in allowed
        ]
        _dist(base, samples, out)

    chunks = [s.info for s in spans if s.name == "model.predict_end_to_end" and kinds.get(s.run) in LINK]
    if chunks:
        out["model.spans_per_chunk"] = sum(chunks) / len(chunks)
    lookups = [
        [_ms(spans[i]) for i in idxs if spans[i].name == "aliastable.lookup"]
        for run, idxs in by_run.items()
        if kinds.get(run) in ALIAS
    ]
    if any(lookups):
        out["aliastable.lookup.calls"] = statistics.median(len(x) for x in lookups)
        out["aliastable.lookup.ms"] = statistics.median(sum(x) for x in lookups)

    for kind in COMMAND_KINDS:
        roots = [i for i, s in enumerate(spans) if s.name == ROOT and kinds.get(s.run) == kind]
        total = sum(_ms(spans[i]) for i in roots)
        if total:
            out[f"trace.coverage.{kind}_frac"] = 1.0 - sum(selfs[i] for i in roots) / total
    return out
