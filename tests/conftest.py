"""Shared test fixtures and hypothesis configuration."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property-based tests fast in CI while still exercising a useful
# number of cases; HYPOTHESIS_PROFILE=thorough selects the deep profile
# (tests that pin their own max_examples keep it under either).
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for test-local sampling."""
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture
def small_stream():
    """A tiny materialized synthetic stream shared across tests."""
    from repro.data.synthetic import SyntheticStream

    stream = SyntheticStream(
        d=500, n_signal=30, avg_nnz=12.0, label_noise=0.02, seed=7
    )
    return stream, stream.materialize(400)
