"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nestreg.diagnostics import random_block

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def block(rng: np.random.Generator, kind: str, width: int, **kwargs):
    """One block's random float64 parameters (``random_block`` without its registry)."""
    return random_block(rng, kind, width, **kwargs)[0]
