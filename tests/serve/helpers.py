"""A daemon on a background-thread event loop, for the serve suite."""

import asyncio
import threading
import time

from repro import telemetry
from repro.serve.client import ServeClient
from repro.serve.core import ProfilingService
from repro.serve.daemon import ServeDaemon


class DaemonHarness:
    """Run a ServeDaemon on a background-thread event loop.

    With ``slow_callback_s`` the loop runs in asyncio's debug mode,
    which logs a warning for each callback that holds it that long.
    """

    def __init__(self, config, slow_callback_s=None):
        self.config = config
        self.service = ProfilingService(config)
        self.daemon = ServeDaemon(self.service, config)
        self.loop = None
        self.slow_callback_s = slow_callback_s
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        loop = asyncio.new_event_loop()
        if self.slow_callback_s is not None:
            loop.set_debug(True)
            loop.slow_callback_duration = self.slow_callback_s
        self.loop = loop
        asyncio.set_event_loop(loop)
        try:
            self.loop.run_until_complete(self.daemon.run())
        finally:
            self.loop.close()

    def __enter__(self):
        # Metrics-only collection, exactly what ``repro serve`` turns
        # on — the counters back /v1/stats.
        telemetry.enable()
        self._thread.start()
        self.client = ServeClient(socket_path=self.config.socket,
                                  timeout=30.0)
        self.client.wait_ready()
        return self.client

    def __exit__(self, exc_type, exc, tb):
        self.client.close()
        self.drain()

    def drain(self):
        """Drain the daemon as SIGTERM does and wait for its thread."""
        deadline = time.monotonic() + 5.0
        while self.loop is None and time.monotonic() < deadline:
            time.sleep(0.01)
        if self.loop is not None and self.loop.is_running():
            self.loop.call_soon_threadsafe(self.daemon._begin_drain,
                                           "TEST")
        self._thread.join(timeout=30.0)
        assert not self._thread.is_alive(), "daemon failed to drain"


def wait_until(predicate, timeout=30.0) -> bool:
    """Poll ``predicate`` until it holds; False once ``timeout`` ends."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True
