# Developer entry points.  Everything runs offline with PYTHONPATH=src;
# no installation step is required.

PY ?= python
export PYTHONPATH := src

.PHONY: test test-stream test-faults test-parallel bench bench-train bench-precision bench-streaming bench-scale bench-parallel bench-all docs-check quickstart lint api-check check reprolint lint-report tables

## Tier-1 test suite (the gate every change must keep green).  Runs all
## four static gates first (see `make check`), then the pytest suite.
test: check
	$(PY) -m pytest -x -q

## All four static gates behind one runner, one PASS/FAIL line each:
## check_api.py, check_docs.py, check_lint.py (ruff wrapper), reprolint.
check:
	$(PY) tools/check.py

## The AST-based invariant checker alone (RNG/dtype/seam/durability/API/
## marker contracts; see docs/architecture.md "Static analysis").
reprolint:
	$(PY) -m tools.reprolint src tests

## Machine-readable invariant-debt snapshot, tracked across PRs next to
## the perf numbers.
lint-report:
	$(PY) -m tools.reprolint --format json --output benchmarks/results/lint.json src tests

## Streaming layer suite, *including* the stress-marked property sweeps
## that tier-1 deselects (pytest.ini: addopts = -m "not stress").
test-stream:
	$(PY) -m pytest tests/stream tests/graph/test_extend_buffered.py \
		tests/core/test_stream_regression.py -q -m "stress or not stress"

## Crash-safety suite: the fault-injection sweep (kill the service at every
## injection point, assert exact recovery) plus the recovery edge cases.
## These also run in tier-1; this target is the focused inner loop.
test-faults:
	$(PY) -m pytest -q -m faults

## Worker-pool suite: every parallel-marked test (real spawn pools), not
## just the tier-1 smoke subset.
test-parallel:
	$(PY) -m pytest -q -m parallel tests/parallel tests/storage/test_shared.py

## Assert every EmbeddingMethod subclass implements the v2 API surface.
api-check:
	$(PY) tools/check_api.py

## ruff check (pinned version; skips cleanly when ruff is unavailable).
lint:
	$(PY) tools/check_lint.py

## Fast walk-engine benchmark (asserts the >=5x batched speedup).
bench:
	$(PY) -m pytest benchmarks/bench_walk_engine.py -q -s

## Train-step benchmark (asserts the >=1.5x fused-kernel speedup and the
## fused-vs-reference loss-trajectory match).
bench-train:
	$(PY) -m pytest benchmarks/bench_train_step.py -q -s

## Precision-policy benchmark (float32 >=1.5x train-step speedup, ~2x
## walk-buffer memory reduction, link-prediction AUC parity).
bench-precision:
	$(PY) -m pytest benchmarks/bench_precision.py -q -s

## Streaming benchmark (amortized extend >=2x over per-call re-sort on a
## 50k-event replay; records ingest throughput and encode p50/p99 latency).
bench-streaming:
	$(PY) -m pytest benchmarks/bench_streaming.py -q -s

## Million-event storage benchmark: chunked ingest into the columnar memmap
## store, CSR build, walk engine and train step at 1M events, with peak-RSS
## tracking.  Writes benchmarks/results/scale.txt.  Excluded from tier-1
## (pytest.ini deselects the scale marker).
bench-scale:
	$(PY) -m pytest benchmarks/bench_scale.py -q -s -m scale

## Core-scaling benchmark: sharded walks and pooled sharded training at
## 1/2/4/8 workers over one shared-memory graph, plus a hub-anchored walk
## row and the sync bitwise-invariance assertion.  Writes
## benchmarks/results/parallel.txt.  Excluded from tier-1 (scale marker).
bench-parallel:
	$(PY) -m pytest benchmarks/bench_parallel.py -q -s -m scale

## Every benchmark, including full experiment regenerations (slow).
bench-all:
	$(PY) -m pytest benchmarks -q -s -m "scale or not scale"

## Fail if README code blocks drift from the example files they mirror.
docs-check:
	$(PY) tools/check_docs.py

## Run the 60-second quickstart end to end.
quickstart:
	$(PY) examples/quickstart.py

## Smallest-scale paper-table grid through the task CLI (repro.tasks.Runner:
## one fit per method/dataset, markdown ResultTable on stdout).
tables:
	$(PY) -m repro.tasks --datasets digg --methods LINE EHNA \
		--tasks link_prediction node_classification temporal_ranking \
		--scale 0.05 --dim 8 --repeats 2 --candidates 6 --queries 15 \
		--ehna-epochs 1 --sgns-epochs 1
