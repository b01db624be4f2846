"""Benchmark fixtures.

The figure benchmarks measure the *analysis* stage against a pre-built
dataset; ``test_bench_pipeline.py`` times the measurement stages, and the
repository benchmark (``make perfbench``) times the entry points end to
end.  ``REPRO_SCALE`` selects the workload; benchmarks default to
``tiny`` so `pytest benchmarks/ --benchmark-only` completes in minutes.
Run with ``REPRO_SCALE=paper`` to regenerate figures at the paper's scale.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.context import ExperimentContext


def _bench_scale() -> str:
    return os.environ.get("REPRO_SCALE", "tiny")


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """Shared experiment context with crowd + crawl datasets materialized."""
    context = ExperimentContext(_bench_scale(), seed=2013)
    # Materialize both datasets up front so benches measure analysis only.
    _ = context.crowd
    _ = context.crawl
    _ = context.crawl_clean
    _ = context.crowd_clean
    return context
