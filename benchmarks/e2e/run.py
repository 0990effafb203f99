"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload fit-dblp --seed 0 --seconds 15 --trace 0

Run from anywhere inside a full checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer ones (see README.md).  The human-readable
metrics, checks and known defects come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A machine-labelled run record is written to ``--out``
(default ``.bench_work/<workload>-trace<T>.json``), and a traced run also
writes its spans to ``spans-<workload>.json`` beside it.

Exit status: 0 when every check passed, 1 when a check or an operation
failed, 2 when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import os

# BLAS threads change float results on multi-core machines, and one thread
# leaves the cores to the program; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="run record path")
    return parser.parse_args(argv)


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    """Where the run happened: code version, cores, interpreter and BLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": git_sha(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    # The script's own directory would shadow the stdlib ``trace`` module;
    # import the harness as the ``e2e`` package instead.
    sys.path[0:1] = [str(SRC), str(HERE.parent)]
    from e2e.trace import Tracer
    from e2e.workloads import END_TO_END, WORKLOADS, Session, layer_targets, per_layer_units

    from repro.core import EHNAConfig

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; expected one of {list(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    out = args.out or work / f"{args.workload}-trace{args.trace}.json"
    tmp = work / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    tracer = Tracer(layer_targets()) if args.trace else None
    session = Session(args.seed, args.seconds, tmp, tracer)
    error = None
    try:
        if tracer is None:
            WORKLOADS[args.workload](session)
        else:
            with tracer:
                WORKLOADS[args.workload](session)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        if session.failed == 0:
            # It raised outside a request (set-up or a check): count that
            # step as the failed operation.
            session.attempted += 1
            session.failed += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {}
    if error is None:
        if tracer is None:
            units, values = END_TO_END, session.end_to_end()
        else:
            units, values = per_layer_units(), session.per_layer()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = error is None and finite and session.correct

    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:>16.6g} {m['unit']}")
    for name, c in session.checks.items():
        print(f"check {name}: {'ok' if c['ok'] else 'FAILED'}")
    for name, d in session.known_defects.items():
        print(f"known defect {name}: {'fixed' if d['ok'] else d['detail']}")

    record = {
        "schema": "repro-e2e-record/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": machine(),
        "settings": {
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "omp_threads": os.environ["OMP_NUM_THREADS"],
            "precision": EHNAConfig().precision,
        },
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "passes": session.passes,
        "timed_s": session.timed_s,
        "latency_samples": len(session.latencies),
        "setup_samples": session.setup_s,
        "checks": session.checks,
        "known_defects": session.known_defects,
        "deterministic": session.deterministic,
        "metrics": metrics,
        "error": error,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        spans = out.parent / f"spans-{args.workload}.json"
        spans.write_text(json.dumps(tracer.span_records()) + "\n")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
