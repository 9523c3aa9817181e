"""Shared fixtures for the benchmark harness.

All benchmarks share one session-scoped :class:`~repro.sim.Runner`, so
profiling work (cache replays, compression measurement) is done once
per (app, input, preprocessing) and reused by every figure that needs
it — exactly how the paper's figures share one set of simulations.

Two environment knobs engage the orchestration layer
(see docs/ORCHESTRATION.md):

``REPRO_JOBS``
    worker processes for the shared runner (default 1, in-process);
``REPRO_CACHE_DIR``
    content-addressed result cache root; when set, warm benchmark
    reruns skip profiling entirely (the code-salted cache key
    invalidates stale entries automatically after model changes).
"""

import os

import pytest

from repro.harness import ExperimentResult, render_table, save_table
from repro.sim import Runner

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def runner():
    return Runner(
        jobs=int(os.environ.get("REPRO_JOBS", "1")),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or None)


@pytest.fixture(scope="session")
def report():
    """Print a result table and save it under benchmarks/results/."""

    def _report(result: ExperimentResult) -> ExperimentResult:
        text = render_table(result)
        print()
        print(text)
        save_table(result, RESULTS_DIR)
        return result

    return _report


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
