"""Shared fixtures for the serve suite.

Telemetry is a process-wide hub and chaos a process-wide switchboard;
both are reset around every test so counter assertions and forced
policies never leak between cases.
"""

import pytest

from repro import telemetry
from repro.resilience import chaos
from repro.serve.config import ServeConfig


@pytest.fixture(autouse=True)
def _isolate_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture(autouse=True)
def _chaos_off(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.set_policy(None)
    yield
    chaos.set_policy(None)


class FakeClock:
    """A hand-cranked monotonic clock for admission/breaker tests."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def serve_config(tmp_path):
    """A serial config rooted in the test tmpdir."""
    return ServeConfig(socket=str(tmp_path / "serve.sock"), jobs=1,
                       state_dir=str(tmp_path / "state"))
