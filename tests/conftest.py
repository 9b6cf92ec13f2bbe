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
def int_rounds(monkeypatch):
    """The width of every round delivered as ints, on either generator
    engine (both run the legacy loop)."""
    from repro.core.engine import legacy

    widths = []
    decide = legacy.int_round_width

    def recording(pending):
        width = decide(pending)
        if width is not None:
            widths.append(width)
        return width

    monkeypatch.setattr(legacy, "int_round_width", recording)
    return widths


@pytest.fixture
def bits_path_plan():
    """An active fault plan whose one trigger never fires: a run under
    it delivers every round as ``Bits`` and is otherwise the run without
    it."""
    from repro.core.faults import FaultPlan

    return FaultPlan(triggers={(10**9, 0, 1): "drop"})
