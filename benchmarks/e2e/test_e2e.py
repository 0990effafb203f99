"""Tier-1 checks of the end-to-end benchmark harness, at tiny input sizes."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from e2e import compare
from e2e.trace import Target, Tracer
from e2e.workloads import END_TO_END, WORKLOADS, Session, layer_targets, per_layer_units

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: Workload sizes small enough for tier-1; the benchmark's are the defaults.
TINY = {
    "fit-dblp": dict(scale=0.2),
    "walks-hub-1m": dict(num_events=20_000, num_nodes=2_000, requests=2, batch_edges=16),
    "serve-digg": dict(
        scale=0.2, queries_per_batch=2, absorb_every=3, checkpoint_every=4, probe_nodes=8
    ),
}

#: Checks that hold only at the benchmark's sizes.
FULL_SIZE_CHECKS = {"link_auc_floor"}

_MISSING = object()


def _run(workload: str, workdir: Path, trace: bool) -> Session:
    tracer = Tracer(layer_targets()) if trace else None
    session = Session(seed=0, seconds=0, workdir=workdir, tracer=tracer)
    if tracer is None:
        WORKLOADS[workload](session, **TINY[workload])
    else:
        with tracer:
            WORKLOADS[workload](session, **TINY[workload])
    failed = {name for name, c in session.checks.items() if not c["ok"]}
    assert failed <= FULL_SIZE_CHECKS, session.checks
    assert session.setups == 1 and len(session.setup_s) == 1
    assert session.attempted >= 1 and session.failed == 0
    return session


def test_benchmark_declares_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == per_layer_units()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    values = _run(workload, tmp_path, trace=False).end_to_end()
    assert set(values) == set(END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in values.values()), values


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_nests_spans_and_restores_originals(workload, tmp_path):
    targets = layer_targets()
    originals = [vars(t.owner).get(t.attr, _MISSING) for t in targets]
    session = _run(workload, tmp_path, trace=True)

    values = session.per_layer()
    assert set(values) == set(per_layer_units())
    assert all(math.isfinite(v) for v in values.values()), values
    for t in targets:
        assert values[f"{t.name}.self_s"] <= values[f"{t.name}.total_s"] + 1e-12
    spans = {s.id: s for s in session.tracer.spans}
    assert spans
    for span in spans.values():
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    for t, original in zip(targets, originals):
        assert vars(t.owner).get(t.attr, _MISSING) is original, t.name


class _Widget:
    def __init__(self, x):
        self.x = x

    def __call__(self, y):
        return self.x + y

    @classmethod
    def make(cls, x):
        return cls(x)

    def fail(self):
        raise _BOOM


class _Gadget(_Widget):
    pass


_BOOM = KeyError("boom")


def test_tracer_keeps_descriptor_kinds_and_restores_after_an_error():
    targets = [
        Target("w", _Widget, "__init__"),
        Target("w", _Widget, "__call__"),
        Target("w", _Widget, "make"),
        Target("g", _Gadget, "fail"),
    ]
    originals = [vars(t.owner).get(t.attr, _MISSING) for t in targets]
    tracer = Tracer(targets)
    with pytest.raises(KeyError) as raised:
        with tracer:
            assert isinstance(vars(_Widget)["make"], classmethod)
            assert _Widget.make(2)(3) == 5
            _Gadget(1).fail()
    assert raised.value is _BOOM
    for t, original in zip(targets, originals):
        assert vars(t.owner).get(t.attr, _MISSING) is original
    assert "fail" not in vars(_Gadget)

    metrics = tracer.layer_metrics(passes=1)
    assert metrics["w._Widget.__init__.calls"] == 2
    assert metrics["w._Widget.__call__.calls"] == 1
    assert metrics["g._Gadget.fail.calls"] == 1
    assert metrics["g.ops.failed"] == 1 and "w.ops.failed" not in metrics
    assert metrics["w.ops.attempted"] == 4
    make, init = tracer.spans[0], tracer.spans[1]
    assert init.parent == make.id
    assert metrics["w._Widget.make.self_s"] <= metrics["w._Widget.make.total_s"]


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.0, 102.0]
    assert compare.verdict(base, [101, 100, 102, 99, 100], 0.1, "higher")[0] == "within-bound"
    assert compare.verdict(base, [80, 81, 79, 80, 82], 0.1, "higher")[0] == "regressed"
    assert compare.verdict(base, [120, 121, 119, 120, 122], 0.1, "lower")[0] == "regressed"
    assert compare.verdict(base, [60, 140, 100, 70, 130], 0.1, "higher")[0] == "unresolved"
    # A gain needs ten pairs, nine won, and a shift wider than A's quartiles.
    assert compare.verdict(base, [130, 131, 129, 130, 132], 0.1, "higher")[0] == "unresolved"
    assert compare.verdict([100.0], [130.0], 0.1, "higher")[0] == "unresolved"
    ten = base * 2
    faster = [130.0, 131, 129, 130, 132, 128, 131, 130, 129, 130]
    assert compare.verdict(ten, faster, 0.1, "higher")[0] == "improved"
    assert compare.verdict(ten, [x * 0.5 for x in ten], 0.1, "lower")[0] == "improved"
    two_losses = faster[:8] + [100.0, 101.0]
    assert compare.verdict(ten, two_losses, 0.1, "higher")[0] == "unresolved"
    # Wide spreads resolve only when every B run beats every A run, with evidence.
    wide, far = [60.0, 140, 100, 70, 130], [150.0, 290, 200, 160, 280]
    assert compare.verdict(wide, far, 0.1, "higher")[0] == "unresolved"
    assert compare.verdict(wide * 2, far * 2, 0.1, "higher")[0] == "improved"
    assert compare.verdict(wide * 2, far * 2, 0.1, "lower")[0] == "unresolved"


def test_compare_exit_status(tmp_path, capsys):
    def record(name, throughput, hops, p99=None, samples=1000):
        metrics = {"throughput_per_s": {"value": throughput, "unit": "1/s"}}
        if p99 is not None:
            metrics = {"latency_p99_ms": {"value": p99, "unit": "ms"}}
        path = tmp_path / f"{name}.json"
        path.write_text(
            json.dumps(
                {
                    "workload": "walks-hub-1m",
                    "seed": 0,
                    "trace": False,
                    "latency_samples": samples,
                    "deterministic": {"hops": hops},
                    "metrics": metrics,
                }
            )
        )
        return str(path)

    a = [record(f"a{i}", 100.0 + i, 7) for i in range(3)]
    same = [record(f"b{i}", 101.0 - i, 7) for i in range(3)]
    slower = [record(f"c{i}", 70.0 + i, 7) for i in range(3)]
    other_work = [record(f"d{i}", 100.0 + i, 8) for i in range(3)]
    assert compare.main([*a, "--", *same]) == 0
    assert compare.main([*a, "--", *slower]) == 1
    assert compare.main([*a, "--", *other_work]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "count differs" in out

    # A p99 over fewer than 1,000 samples is not judged.
    p99 = [record(f"e{i}", 0, 7, p99=10.0 + i, samples=96) for i in range(3)]
    p99_slower = [record(f"f{i}", 0, 7, p99=20.0 + i, samples=96) for i in range(3)]
    assert compare.main([*p99, "--", *p99_slower]) == 0
    assert "unresolved (96 samples)" in capsys.readouterr().out
