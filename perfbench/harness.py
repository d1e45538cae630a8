"""One benchmark run: set-up, rounds of elink commands, checks and metrics.

Imported by run.py once the BLAS thread cap is set and the checkout's src/
is on sys.path, so the elink imported here is the one being measured.
"""

import contextlib
import gc
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks
import layers
import world
from elink import cli
from elink.model import ModelConfig, ModelParams, encode, load_checkpoint, save_checkpoint, span_repr
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BATCH_SIZE = 32
SETUP_REPEATS = 3

MODEL = dict(d_model=64, n_layers=4, n_heads=4, d_ff=256, d_entity=256, max_len=256)
SETTINGS = {
    **{f"model.{k}": v for k, v in MODEL.items()},
    "candidates.k": 768,
    "candidates.max_page": 256,
    "candidates.max_phrase": 384,
    "candidates.min_random": 128,
    "noise.enabled": "true",
    "train.batch_size": BATCH_SIZE,
    "train.log_interval": 1,
    "corpus.chunk_chars": 1000,
}

# The entity-table size decides which layers dominate. At 20k, encoder
# forward and tape backward are most of a training step. At 100k,
# table-sized work is over half of each command: Adam, clipping, the
# candidate fill, the dense gather gradient, and full-vocabulary scoring
# and ranking. Inference inputs are sized so each command takes 1-4 s on 2 cores.
WORKLOADS = {
    "e20k": world.WorldSpec(n_entities=20_000, n_train=128, link_chars=12_000,
                            n_disambig_all=10, n_disambig_alias=128),
    "e100k": world.WorldSpec(n_entities=100_000, n_train=128, link_chars=3000,
                             n_disambig_all=2, n_disambig_alias=128),
}

COMMANDS = ("pretrain", "link", "disambig_all", "disambig_alias")

# end-to-end throughput -> (command kind, unit)
THROUGHPUTS = {
    "train_steps_per_s": ("pretrain", "steps/s"),
    "train_tokens_per_s": ("pretrain", "tokens/s"),
    "link_chars_per_s": ("link", "chars/s"),
    "disambig_all_mentions_per_s": ("disambig_all", "mentions/s"),
    "disambig_alias_mentions_per_s": ("disambig_alias", "mentions/s"),
}
# The end-to-end metrics of BENCHMARK.json, which a change may not worsen by
# more than their bounds. The inference throughputs are printed but not
# gated: on a shared 2-core host their ten-run spreads reached 0.19-0.30,
# over the 0.25 limit, because their Python-bound work follows the host's
# speed from minute to minute.
GATED = ("train_steps_per_s", "train_tokens_per_s")
E2E_UNITS = {**{k: THROUGHPUTS[k][1] for k in GATED}, "setup_s": "s", "peak_rss_mb": "MB"}


def _blas_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                facts["blas_threads"] = int(getattr(dll, symbol)())
                return facts
    return facts


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat, or zeros elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _world_digest(path: Path) -> str:
    """Digest of the generated files; run.cfg names the per-process work dir."""
    h = hashlib.blake2b(digest_size=16)
    for f in sorted(path.iterdir()):
        if f.name != "run.cfg":
            h.update(f.name.encode() + checks.file_digest(str(f)).encode())
    return h.hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, work: Path):
        self.spec = WORKLOADS[workload]
        self.seed, self.trace, self.work = seed, trace, work
        # One whole epoch per pretrain call, so every context is batched once
        # and the non-pad token count is exact.
        if self.spec.n_train % BATCH_SIZE:
            raise ValueError("n_train must be a whole number of batches")
        self.steps = self.spec.n_train // BATCH_SIZE
        self.tracer = Tracer()
        self.calls: list[dict] = []          # kind, traced, wall, ok
        self.kinds: dict[int, str] = {}      # traced run id -> command kind
        self.digests: dict[str, set] = {}
        self.errors: list[str] = []

    # -- set-up -----------------------------------------------------------

    def setup(self) -> list[float]:
        """Write the world, config and untrained checkpoint; repeated to time it."""
        times, digests = [], set()
        world_dir = self.work / "world"
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(world_dir, ignore_errors=True)
            t0 = time.perf_counter()
            w = world.write_world(str(world_dir), self.spec, self.seed)
            settings = {
                "seed": self.seed,
                **SETTINGS,
                "train.total_steps": self.steps,
                "paths.token_vocab": w.paths["tokens.txt"],
                "paths.entity_vocab": w.paths["entities.txt"],
                "paths.page_links": w.paths["page_links.tsv"],
                "paths.phrase_table": w.paths["phrase.tsv"],
                "paths.alias_table": w.paths["aliases.tsv"],
            }
            cfg_path = world_dir / "run.cfg"
            cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
            model_config = ModelConfig(vocab_size=w.vocab_size, n_entities=w.n_entities, **MODEL)
            params = ModelParams.initialize(model_config, self.seed)
            ckpt = world_dir / "untrained.elck"
            save_checkpoint(str(ckpt), params)
            times.append(time.perf_counter() - t0)
            digests.add(_world_digest(world_dir))
        if len(digests) != 1:
            self.errors.append("set-up is not deterministic: world files differ between repeats")
        self.w, self.cfg_path, self.ckpt = w, str(cfg_path), str(ckpt)
        self.model_config = model_config
        self.n_parameters = params.n_parameters()
        self.dtype = str(params["ent_emb"].data.dtype)
        self.digests["world"] = digests
        return times

    def expectations(self) -> None:
        """Untimed: the link input, entity ids and oracle predictions."""
        p = self.w.paths
        with open(p["link_input.txt"], encoding="utf-8") as f:
            self.link_text = f.read()
        self.entity_ids = {world.entity_id(i) for i in range(self.w.n_entities)}
        params = load_checkpoint(self.ckpt)   # the float32 weights the commands see
        self.oracle = {
            "disambig_all": checks.oracle_predictions(
                params, p["disambig_all.jsonl"], None, encode, span_repr),
            "disambig_alias": checks.oracle_predictions(
                params, p["disambig_alias.jsonl"], world.same_name, encode, span_repr),
        }
        for kind, preds in self.oracle.items():
            if len(preds) != getattr(self.w, f"{kind}_mentions"):
                self.errors.append(f"{kind}: the oracle saw a different gold count")

    # -- commands ---------------------------------------------------------

    def argv(self, kind: str) -> list[str]:
        p = self.w.paths
        if kind == "pretrain":
            return ["pretrain", "--config", self.cfg_path, "--corpus", p["train.jsonl"],
                    "--out-dir", str(self.work / "pretrain")]
        if kind == "link":
            return ["link", "--config", self.cfg_path, "--checkpoint", self.ckpt,
                    "--input", p["link_input.txt"]]
        mode = "all" if kind == "disambig_all" else "alias"
        return ["eval-disambig", "--config", self.cfg_path, "--checkpoint", self.ckpt,
                "--dataset", p[f"{kind}.jsonl"], "--candidates", mode,
                "--errors-out", str(self.work / f"{kind}_errors.tsv")]

    def check(self, kind: str, stdout: str) -> None:
        if kind == "pretrain":
            digest = checks.check_pretrain(stdout, str(self.work / "pretrain"), self.steps,
                                           self.model_config, load_checkpoint)
        elif kind == "link":
            digest = checks.check_link(stdout, self.link_text, self.entity_ids)
        else:
            checks.check_disambig(stdout, str(self.work / f"{kind}_errors.tsv"), self.oracle[kind],
                                  world.entity_id, alias=kind == "disambig_alias")
            digest = checks.text_digest(stdout)
        self.digests.setdefault(kind, set()).add(digest)
        if len(self.digests[kind]) > 1:
            raise checks.CheckFailed(f"{kind} output differs between rounds of one seed")

    def invoke(self, kind: str, traced: bool) -> None:
        if kind == "pretrain":
            shutil.rmtree(self.work / "pretrain", ignore_errors=True)
        with contextlib.suppress(FileNotFoundError):
            (self.work / f"{kind}_errors.tsv").unlink()
        # Start each command from a collected heap, as a fresh process would.
        gc.collect()
        buf = io.StringIO()
        ok, rc = False, None
        if traced:
            self.tracer.run += 1
            self.kinds[self.tracer.run] = kind
            self.tracer.install(layers.TARGETS, "elink")
            root = self.tracer.open(layers.ROOT)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(self.argv(kind))
        except Exception:
            self.errors.append(f"{kind} raised:\n{traceback.format_exc()}")
        finally:
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.close(root)
                self.tracer.uninstall()
        if rc == 0:
            try:
                self.check(kind, buf.getvalue())
                ok = True
            except (checks.CheckFailed, ValueError, KeyError, OSError) as exc:
                self.errors.append(f"{kind} failed its check: {exc}")
        elif rc is not None:
            self.errors.append(f"{kind} exited with {rc}")
        self.calls.append({"kind": kind, "traced": traced, "wall": wall, "ok": ok})

    def measure(self, seconds: float) -> None:
        """Rounds of every command for about `seconds`: a round starts while
        half the previous round still fits. With tracing, every second round
        is traced and at least one round of each sort runs."""
        start = time.perf_counter()
        rounds, last = 0, 0.0
        while rounds < (2 if self.trace else 1) or (
            time.perf_counter() - start + last / 2 <= seconds
        ):
            t0 = time.perf_counter()
            for kind in COMMANDS:
                self.invoke(kind, traced=self.trace and rounds % 2 == 1)
            last = time.perf_counter() - t0
            rounds += 1

    # -- metrics ----------------------------------------------------------

    def throughputs(self, traced: bool) -> dict[str, float]:
        """Median over successful calls of work per call / wall time."""
        w = self.w
        work = {
            "train_steps_per_s": self.steps,
            "train_tokens_per_s": w.train_tokens,
            "link_chars_per_s": w.link_chars,
            "disambig_all_mentions_per_s": w.disambig_all_mentions,
            "disambig_alias_mentions_per_s": w.disambig_alias_mentions,
        }
        out = {}
        for name, (kind, _) in THROUGHPUTS.items():
            rates = [work[name] / c["wall"] for c in self.calls
                     if c["kind"] == kind and c["traced"] == traced and c["ok"]]
            if rates:
                out[name] = statistics.median(rates)
        return out


def run(workload: str, seed: int, seconds: float, trace: bool, nproc: int) -> tuple[dict, dict]:
    """One run; returns (report, result) for the last two stdout lines."""
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    bench = Bench(workload, seed, trace, work)
    try:
        setup_times = bench.setup()
        bench.expectations()
        ticks0 = _cpu_ticks()
        bench.measure(seconds)
        ticks1 = _cpu_ticks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = len(bench.calls)
    failed = sum(not c["ok"] for c in bench.calls)
    untraced = bench.throughputs(traced=False)
    e2e = {
        **untraced,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "errors": bench.errors,
        "facts": {
            "nproc": nproc,
            "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
            **_blas_facts(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "dtype": bench.dtype,
            "git_commit": _git_commit(),
            # Share of CPU time the host took from this machine while measuring.
            "cpu_steal_frac": (ticks1[0] - ticks0[0]) / max(ticks1[1] - ticks0[1], 1),
            **bench.w.facts(),
            "n_parameters": bench.n_parameters,
            "train_steps_per_call": bench.steps,
        },
        "digests": {k: sorted(v) for k, v in bench.digests.items()},
        "oracle_accuracy": {
            k: 100.0 * sum(g == p for g, p in v) / len(v) for k, v in bench.oracle.items()
        },
        "walls_s": {kind: [round(c["wall"], 4) for c in bench.calls if c["kind"] == kind]
                    for kind in COMMANDS},
        "setup_s_samples": setup_times,
        "end_to_end": {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items() if k in e2e},
        "ungated": {
            **{k: {"value": v, "unit": THROUGHPUTS[k][1]} for k, v in untraced.items()
               if k not in GATED},
            "failed_ops_frac": {"value": failed / max(attempted, 1), "unit": "ratio"},
        },
    }

    if trace:
        traced = bench.throughputs(traced=True)
        units = layers.metric_units(THROUGHPUTS)
        found = layers.layer_metrics(bench.tracer.spans, bench.kinds, bench.w.n_entities)
        for name in THROUGHPUTS:
            if name in traced and name in untraced:
                found[f"trace.overhead_frac.{name}"] = 1.0 - traced[name] / untraced[name]
        report["spans"] = layers.span_totals(bench.tracer.spans)
        report["absent"] = sorted(set(units) - set(found))
        report["absent_functions"] = bench.tracer.absent
        metrics = {k: {"value": found.get(k, 0), "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": e2e.get(k, 0.0), "unit": u} for k, u in E2E_UNITS.items()}

    result = {
        "correct": failed == 0 and not bench.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result
