"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import gc
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import temporal_sbm, tmall_like
from repro.graph import TemporalGraph


@pytest.fixture(scope="session", autouse=True)
def no_thread_outlives_the_session():
    """Fail the run if any thread but the main one is still alive at its
    end.

    ``OnlineService.close`` joins its background checkpoint writer; the
    writer of a service dropped without ``close`` exits once the service
    is collected, and so does every other thread a test starts.  A thread
    still running after that is hung or leaked.
    """
    yield
    gc.collect()
    leaked = []
    for thread in threading.enumerate():
        if thread is threading.main_thread():
            continue
        thread.join(timeout=10)
        if thread.is_alive():
            leaked.append(thread.name)
    assert not leaked, f"threads outlived the tests: {leaked}"


def _shared_memory_segments() -> set[str]:
    """Names of the POSIX shared-memory segments ``SharedMemory`` created
    (``psm_*``) that exist now."""
    return {path.name for path in Path("/dev/shm").glob("psm_*")}


@pytest.fixture(scope="session", autouse=True)
def no_shared_memory_segment_outlives_the_session():
    """Fail the run if a ``psm_*`` segment exists at its end that did not
    exist at its start.

    The owner of every shared pack unlinks it on ``close`` (and, as a
    backstop, when the pack is collected), so a segment still present after
    the tests is one a code path kept alive or never released.
    """
    before = _shared_memory_segments()
    yield
    gc.collect()
    leaked = sorted(_shared_memory_segments() - before)
    assert not leaked, f"shared-memory segments outlived the tests: {leaked}"


@pytest.fixture(autouse=True)
def strict_float_errors():
    """Run every test with floating-point faults raised, not flagged.

    Division by zero, overflow and invalid operations (the faults a silent
    ``float32`` narrowing could introduce) raise ``FloatingPointError``
    instead of passing NaN/inf downstream.  **Allowlisted exception:**
    underflow stays ignored — gradual underflow to zero is the designed
    behavior of ``exp(-large)`` in the decay kernels, sigmoids and masked
    softmaxes (``exp(-1e9)`` on padded positions), and is benign in both
    precisions.  Code with *intentional* non-finite arithmetic declares it
    locally with ``np.errstate`` (e.g. the baselines' clipped-log losses),
    which overrides this outer context.
    """
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        yield


@pytest.fixture
def tiny_graph() -> TemporalGraph:
    """The paper's Figure 1 co-author example (nodes 1-8 -> ids 0-7).

    Edges annotated with years; node 0 is the ego (paper's node 1).
    """
    edges = [
        (0, 1, 2011.0),  # 1-2
        (0, 2, 2011.1),  # 1-3 (slightly later for deterministic order)
        (1, 2, 2012.0),  # 2-3
        (0, 3, 2013.0),  # 1-4
        (3, 4, 2014.0),  # 4-5
        (0, 5, 2015.0),  # 1-6
        (4, 5, 2016.0),  # 5-6
        (4, 7, 2016.1),  # 5-8
        (6, 7, 2017.0),  # 7-8
        (5, 6, 2017.1),  # 6-7
        (0, 6, 2018.0),  # 1-7
    ]
    src, dst, t = zip(*edges)
    return TemporalGraph.from_edges(
        np.array(src), np.array(dst), np.array(t)
    )


@pytest.fixture
def path_graph() -> TemporalGraph:
    """Path 0-1-2-3-4 with strictly increasing times 1..4."""
    return TemporalGraph.from_edges(
        np.array([0, 1, 2, 3]),
        np.array([1, 2, 3, 4]),
        np.array([1.0, 2.0, 3.0, 4.0]),
    )


@pytest.fixture
def sbm_graph() -> TemporalGraph:
    """Small community-structured temporal graph."""
    return temporal_sbm(num_nodes=40, num_edges=240, num_communities=4, seed=7)


@pytest.fixture
def bipartite_graph() -> TemporalGraph:
    """Small bipartite purchase graph (Tmall-like)."""
    return tmall_like(num_users=25, num_items=12, num_purchases=200, seed=3)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for stochastic tests."""
    return np.random.default_rng(12345)
