"""Compare two sets of end-to-end benchmark run records.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Side A is the parent (baseline), side B the change.  Records are the
``--out`` files of ``run.py``; give them in the order they were run, parent
and change alternating, so that A[i] and B[i] form a pair.  For every
(workload, end-to-end metric) pair the untraced records give each side's
median and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, unless every B run beats every A run and the
  evidence below holds; or ``latency_p99_ms`` from records with fewer than
  1,000 latency samples (fewer than ten beyond the p99);
- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: B's median is better by more than the bound and the
  evidence holds: each side has at least 10 records, B wins at least 9 in
  10 of the pairs, and the medians differ by more than A's quartile
  distance.  Better by more than the bound without that evidence is
  ``unresolved``;
- ``within-bound``: anything else.

Deterministic values (walk and hop counts, link AUC, ...) and the traced
runs' count metrics must be identical across all records of one workload
and seed.  Traced records also print the per-layer self times, and a side
holding both kinds of record prints its tracing overhead.

Exit status: 1 if any pair regressed or any count differs, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Per-layer units whose values are counts of work, not timings: they
#: must repeat exactly at a fixed seed.
EXACT_UNITS = {"count", "ratio", "events", "bytes"}

#: Evidence an ``improved`` verdict needs: records per side, and the share
#: of (A[i], B[i]) pairs that B must win.
MIN_RUNS, MIN_WIN_SHARE = 10, 0.9

#: Latency samples every record needs before its p99 is judged.
MIN_P99_SAMPLES = 1000


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles``."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med)


def verdict(a, b, bound: float, better: str) -> tuple[str, float]:
    """Verdict for B against A, and B's relative change (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    q1_a, med_a, q3_a = quartiles(a)
    med_b = quartiles(b)[1]
    worse = sign * (med_b - med_a) / abs(med_a)
    pairs = list(zip(a, b))
    proven = (
        min(len(a), len(b)) >= MIN_RUNS
        and sum(sign * (y - x) < 0 for x, y in pairs) >= MIN_WIN_SHARE * len(pairs)
        and abs(med_b - med_a) > q3_a - q1_a
    )
    if max(spread(a), spread(b)) > bound:
        b_wins_all = all(sign * (y - x) < 0 for x in a for y in b)
        return ("improved" if b_wins_all and proven else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return ("improved" if proven else "unresolved"), worse
    return "within-bound", worse


def _summary(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def load_records(paths) -> list[dict]:
    records = []
    for path in paths:
        record = json.loads(Path(path).read_text())
        if not isinstance(record, dict) or "workload" not in record:
            raise SystemExit(f"compare.py: {path} is not a run record")
        records.append(record)
    return records


def values(records, workload: str, metric: str, trace: bool) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def count_mismatches(records) -> list[str]:
    """Deterministic values and traced counts that differ at one seed."""
    seen: dict[tuple, dict] = defaultdict(dict)
    problems = []
    for r in records:
        key = (r["workload"], r["seed"])
        items = dict(r.get("deterministic", {}))
        if r["trace"]:
            items.update(
                (name, m["value"])
                for name, m in r["metrics"].items()
                if m["unit"] in EXACT_UNITS and not name.startswith("trace.")
            )
        for name, value in items.items():
            first = seen[key].setdefault(name, value)
            if first != value:
                problems.append(f"{r['workload']} seed {r['seed']}: {name} {first} != {value}")
    return problems


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    side_a, side_b = load_records(argv[:cut]), load_records(argv[cut + 1 :])
    bench = json.loads(BENCHMARK.read_text())
    workloads = sorted({r["workload"] for r in side_a + side_b})
    regressed = False

    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for m in bench["end_to_end"]:
            a = values(side_a, workload, m["name"], False)
            b = values(side_b, workload, m["name"], False)
            if not a or not b:
                continue
            result, worse = verdict(a, b, m["bound"], m["better"])
            samples = min(
                r.get("latency_samples", MIN_P99_SAMPLES)
                for r in side_a + side_b
                if r["workload"] == workload and not r["trace"]
            )
            if m["name"] == "latency_p99_ms" and samples < MIN_P99_SAMPLES:
                result = f"unresolved ({samples} samples)"
            regressed |= result == "regressed"
            print(
                f"{workload:<14} {m['name']:<18} {_summary(a):>32} {_summary(b):>32} "
                f"{worse:>+8.1%} {m['bound']:>6.0%}  {result}"
            )

    for workload in workloads:
        for name, side in (("A", side_a), ("B", side_b)):
            plain = values(side, workload, "throughput_per_s", False)
            traced = values(side, workload, "trace.throughput_per_s", True)
            if plain and traced:
                overhead = 1.0 - statistics.median(traced) / statistics.median(plain)
                print(f"{workload}: tracing overhead on side {name}: {overhead:.1%} of throughput")

    for workload in workloads:
        a = [r for r in side_a if r["workload"] == workload and r["trace"]]
        b = [r for r in side_b if r["workload"] == workload and r["trace"]]
        if not (a and b):
            continue
        print(f"\n{workload}: per-layer self time, one set-up plus one pass (median, s)")
        for name in a[0]["metrics"]:
            if not name.endswith(".self_s"):
                continue
            med_a = statistics.median(r["metrics"][name]["value"] for r in a)
            med_b = statistics.median(r["metrics"][name]["value"] for r in b)
            if med_a or med_b:
                print(f"  {name:<52} {med_a:>10.4g} {med_b:>10.4g}")

    problems = count_mismatches(side_a + side_b)
    for problem in problems:
        print(f"count differs: {problem}")
    return 1 if regressed or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
