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


def c_backend_param():
    """The ``"c"`` kernel backend as a parametrize value: when it cannot
    build on this host, its cases skip with the recorded reason."""
    from repro import kernels

    try:
        kernels.get_backend("c")
    except kernels.BackendUnavailableError as exc:
        return pytest.param("c", marks=pytest.mark.skip(reason=str(exc)))
    return "c"


@pytest.fixture
def kernel_backend(request):
    """Pin the process kernel backend for one test: ``numpy`` unless the
    test parametrizes this fixture (``indirect=True``) with another
    name, e.g. ``c_backend_param()``."""
    from repro import kernels

    name = getattr(request, "param", "numpy")
    kernels.set_backend(name)
    try:
        yield name
    finally:
        kernels.set_backend(None)


def retired_backend_param(name: str = "python"):
    """A deleted backend's name as a parametrize value for model-level
    suites.  Old checkpoints and pickles still carry ``"python"`` (the
    interpreted loop backend) and ``"numba"``; models and stores built
    with either resolve it to the numpy reference and must train, serve
    and persist bit-identically.  The one ``KernelBackendWarning`` per
    process that resolution emits is asserted in
    ``test_kernel_backends.py::TestRetiredBackendNames`` and silenced
    here."""
    return pytest.param(name, marks=pytest.mark.filterwarnings(
        "ignore::repro.kernels.KernelBackendWarning"
    ))


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
