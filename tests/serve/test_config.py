"""Service configuration: env values and overrides share one set of
lower bounds."""

import pytest

from repro.serve.config import LOWER_BOUNDS, ServeConfig

ZEROED = dict(batch_size=0, queue_size=0, burst=0, window=0,
              breaker_threshold=0)


def test_zero_overrides_come_out_at_the_bounds():
    config = ServeConfig.from_env(**ZEROED)
    assert {name: getattr(config, name) for name in ZEROED} == \
        {name: LOWER_BOUNDS[name] for name in ZEROED}


def test_zero_env_values_come_out_at_the_bounds(monkeypatch):
    for var in ("QUEUE", "BURST", "BATCH", "BREAKER", "WINDOW"):
        monkeypatch.setenv(f"REPRO_SERVE_{var}", "0")
    monkeypatch.setenv("REPRO_SERVE_RATE", "-2")
    monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "-1")
    config = ServeConfig.from_env()
    assert {name: getattr(config, name) for name in LOWER_BOUNDS} == \
        {**LOWER_BOUNDS, "breaker_cooldown_s": 5.0}


@pytest.mark.parametrize("name", sorted(LOWER_BOUNDS))
def test_constructor_and_replace_apply_the_bound(name):
    from dataclasses import replace
    below = LOWER_BOUNDS[name] - 1
    assert getattr(ServeConfig(**{name: below}), name) == \
        LOWER_BOUNDS[name]
    assert getattr(replace(ServeConfig(), **{name: below}), name) == \
        LOWER_BOUNDS[name]


def test_values_above_the_bounds_are_kept():
    config = ServeConfig.from_env(batch_size=3, queue_size=5, rate=2.5)
    assert (config.batch_size, config.queue_size, config.rate) == \
        (3, 5, 2.5)
