"""Shared fixtures for the test suite.

The fixtures provide the handful of artefacts almost every test needs:
small deterministic programs, a couple of cache configurations spanning
the interesting regimes, and a fixed timing model.

``--differential`` makes every :class:`AnalysisPipeline` built in the
session default to ``differential=True``, so each analysis any test
consumes — cold, delta or handed along — is checked against the python
oracle, ``analyze_wcet``.
"""

from __future__ import annotations

import pytest

from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.timing import TimingModel
from repro.cache.config import CacheConfig
from repro.program.builder import ProgramBuilder


def pytest_addoption(parser):
    parser.addoption(
        "--differential", action="store_true", default=False,
        help="build every AnalysisPipeline with differential=True unless "
             "a test passes differential itself",
    )


@pytest.fixture(autouse=True, scope="session")
def _differential_pipelines(request):
    """Under ``--differential``, default every pipeline's
    ``differential`` to ``True`` for the whole session."""
    if not request.config.getoption("--differential"):
        yield
        return
    original = AnalysisPipeline.__init__

    def init(self, *args, **kwargs):
        kwargs.setdefault("differential", True)
        original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AnalysisPipeline, "__init__", init)
        yield


@pytest.fixture
def timing() -> TimingModel:
    """A fixed 1/30/1-cycle timing model (Λ = 30)."""
    return TimingModel(hit_cycles=1, miss_penalty_cycles=30, prefetch_issue_cycles=1)


@pytest.fixture
def tiny_cache() -> CacheConfig:
    """A 256 B direct-mapped cache (16 sets of 16 B) — conflict heavy."""
    return CacheConfig(associativity=1, block_size=16, capacity=256)


@pytest.fixture
def small_cache() -> CacheConfig:
    """A 2-way 512 B cache."""
    return CacheConfig(associativity=2, block_size=16, capacity=512)


@pytest.fixture
def big_cache() -> CacheConfig:
    """An 8 KiB 4-way cache — everything fits."""
    return CacheConfig(associativity=4, block_size=32, capacity=8192)


@pytest.fixture
def straight_program():
    """A straight-line program: entry, 20 instructions, exit."""
    b = ProgramBuilder("straight")
    b.code(20)
    return b.build()


@pytest.fixture
def loop_program():
    """One loop (bound 10, sim 8) with a conditional inside."""
    b = ProgramBuilder("loopy")
    b.code(4)
    with b.loop(bound=10, sim_iterations=8):
        b.code(3)
        with b.if_else(taken_prob=0.5) as arms:
            with arms.then_():
                b.code(2)
            with arms.else_():
                b.code(5)
    b.code(2)
    return b.build()


@pytest.fixture
def nested_program():
    """Two nested loops plus a function call."""
    b = ProgramBuilder("nested")
    with b.function("helper"):
        b.code(6)
    b.code(3)
    with b.loop(bound=5, sim_iterations=5):
        b.code(2)
        with b.loop(bound=4, sim_iterations=3):
            b.code(4)
        b.call("helper")
    b.code(2)
    return b.build()


@pytest.fixture
def thrash_program():
    """A loop whose body is ~2.5x a 256 B cache (conflict storm)."""
    b = ProgramBuilder("thrash")
    b.code(4)
    with b.loop(bound=12, sim_iterations=10):
        b.code(160)
    b.code(2)
    return b.build()
