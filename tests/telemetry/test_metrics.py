"""Metrics registry: counters, gauges, histogram percentiles."""

import os
import subprocess
import sys

from repro.telemetry import Histogram, MetricsRegistry

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

_RESERVOIR_SCRIPT = """
from repro.telemetry import Histogram
h = Histogram("span.models.ithemal.fit", max_samples=16)
for v in range(500):
    h.observe(float(v))
print(h._samples)
"""


def _reservoir_under_hashseed(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.path.abspath(SRC) \
        + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", _RESERVOIR_SCRIPT],
                          env=env, capture_output=True, text=True,
                          check=True).stdout


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(5)
        assert reg.counter("c").value == 6

    def test_gauge_holds_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.0)
        reg.gauge("g").set(1.5)
        assert reg.gauge("g").value == 1.5

    def test_same_name_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("x") is reg.histogram("x")


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("h")
        for v in (4.0, 1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == 2.5

    def test_percentiles_on_uniform_data(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert abs(h.p50 - 50) <= 1
        assert abs(h.p95 - 95) <= 1
        assert abs(h.p99 - 99) <= 1
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.mean is None
        assert h.p50 is None
        assert h.summary()["count"] == 0

    def test_reservoir_caps_memory_keeps_exact_counts(self):
        h = Histogram("h", max_samples=256)
        n = 10_000
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert h.min == 0.0
        assert h.max == float(n - 1)
        assert len(h._samples) == 256
        # Sampled median of a uniform ramp stays near the middle.
        assert 0.3 * n < h.p50 < 0.7 * n

    def test_percentiles_deterministic_per_name(self):
        def build():
            h = Histogram("same-name", max_samples=64)
            for v in range(1000):
                h.observe(float(v))
            return h.p95
        assert build() == build()

    def test_reservoir_independent_of_hash_seed(self):
        """The reservoir RNG is seeded from a CRC-32 of the name, not
        ``hash()``: fresh interpreters keep the same samples."""
        runs = {_reservoir_under_hashseed(s) for s in ("0", "1", "7")}
        assert len(runs) == 1


class TestSnapshot:
    def test_snapshot_is_plain_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a.b").inc(2)
        reg.gauge("g").set(0.5)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"] == {"a.b": 2}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot()["counters"] == {}
