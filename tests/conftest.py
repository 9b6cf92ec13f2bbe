"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC11C)


@pytest.fixture
def rngs():
    def make(seed: int) -> random.Random:
        return random.Random(seed)

    return make


@pytest.fixture
def lane_rounds(monkeypatch):
    """The width of every round the fast engine's unicast lane delivers."""
    from repro.core.fastlane import FixedLane

    widths = []
    deliver = FixedLane.deliver

    def counting(self, senders, width, record=None):
        widths.append(width)
        return deliver(self, senders, width, record)

    monkeypatch.setattr(FixedLane, "deliver", counting)
    return widths
