"""Benchmark of elink's user commands: pretrain, link and eval-disambig.

Run from the repository root:

    python3 perfbench/run.py --workload e20k --seed 1 --seconds 45 --trace 0

A run generates its world from --seed (world.py) and sets it up several
times to time set-up. Then, for about --seconds, it repeats rounds of the
real commands, called in this process through elink.cli.main:

    elink pretrain                         one epoch from scratch, B=32
    elink link                             raw text
    elink eval-disambig --candidates all   held-out context cache
    elink eval-disambig --candidates alias larger held-out context cache

Each command's output is checked (checks.py). A command that raises,
returns non-zero or fails its check counts as failed. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; a
table above the JSON lines also prints the inference throughputs and the
share of failed commands. With --trace 1 every
second round runs with the spans of layers.py installed. The metrics are
then the per-layer ones, plus the traced-vs-untraced gap of each throughput.
The line before it is a JSON report with the run's facts, digests and counts.
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        want = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(want)
    return nproc


def main(argv=None) -> int:
    if not (SRC / "elink" / "__init__.py").is_file():
        print(f"error: no elink sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import elink

    if Path(elink.__file__).resolve().parent != SRC / "elink":
        print(f"error: imported elink from {elink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    report, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), nproc)
    for err in report["errors"]:
        print(err, file=sys.stderr)
    for name, m in {**report["end_to_end"], **report["ungated"]}.items():
        print(f"{name:32s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
