"""Service configuration: one dataclass, env-var defaults, CLI wins.

Every knob has a ``REPRO_SERVE_*`` environment variable (registered in
:mod:`repro.envvars`, group ``serve``) so operators can tune a deployed
daemon without editing unit files; the matching ``repro serve`` CLI
flag, when given, takes precedence.  All parsing is defensive — a
malformed value falls back to the default rather than refusing to
start, because a service that fails to boot over a typo'd env var is
itself a robustness bug.  For the same reason a value below a knob's
lower bound (:data:`LOWER_BOUNDS`) is raised to it, whether it came
from the environment, a flag or the constructor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.parallel.shard_cache import cache_root

#: Env-var name -> (attribute, parser, default).  The single source the
#: dataclass defaults and ``from_env`` both draw from.
_ENV_FLOAT = float
_ENV_INT = int

DEFAULT_QUEUE = 64
DEFAULT_DEADLINE_MS = 30_000
DEFAULT_RATE = 0.0          # tokens/second per client; 0 = unlimited
DEFAULT_BURST = 16
DEFAULT_BATCH = 64
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN_S = 5.0
DEFAULT_WINDOW = 32
DEFAULT_DRAIN_S = 10.0


#: The least value each numeric knob may take.  Env values and CLI
#: overrides alike are raised to it: a batch size of 0, say, would pop
#: nothing, so a queued request would never run nor miss its deadline.
LOWER_BOUNDS = {"queue_size": 1, "rate": 0.0, "burst": 1,
                "batch_size": 1, "breaker_threshold": 1,
                "breaker_cooldown_s": 0.0, "window": 1, "drain_s": 0.0}


def _env_number(name: str, default, parse):
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return parse(raw)
    except ValueError:
        return default


def default_state_dir() -> str:
    """Where the daemon keeps its journal and per-seed result stores.

    ``$REPRO_SERVE_STATE`` wins; otherwise a ``serve/`` subdirectory of
    the cache root the pipeline and the batch CLI use
    (:func:`repro.parallel.shard_cache.cache_root`), so all three share
    one cache tree by default, whatever the working directory.
    """
    explicit = os.environ.get("REPRO_SERVE_STATE")
    if explicit:
        return explicit
    return os.path.join(cache_root(), "serve")


@dataclass(frozen=True)
class ServeConfig:
    """Every tunable the daemon honours, in one immutable bundle."""

    #: Listen address: exactly one of ``socket`` / ``port`` is set.
    socket: Optional[str] = None
    port: Optional[int] = None
    host: str = "127.0.0.1"

    #: Worker-pool width for batch execution (1 = in-process serial).
    jobs: int = 1

    #: Bounded admission queue capacity; a full queue sheds with 429.
    queue_size: int = DEFAULT_QUEUE
    #: Default per-request deadline when the client sends none.
    deadline_ms: float = DEFAULT_DEADLINE_MS
    #: Per-client token-bucket refill rate (req/s); 0 disables limits.
    rate: float = DEFAULT_RATE
    #: Token-bucket burst capacity.
    burst: int = DEFAULT_BURST
    #: Max requests coalesced into one engine batch.
    batch_size: int = DEFAULT_BATCH
    #: Consecutive worker-trouble batches before the breaker opens.
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    #: Seconds the breaker stays open before a half-open probe.
    breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S
    #: Completed requests per serve-metrics window.
    window: int = DEFAULT_WINDOW
    #: Ceiling on graceful SIGTERM drain before forced shutdown.
    drain_s: float = DEFAULT_DRAIN_S
    #: State directory (request journal + per-seed result stores).
    state_dir: str = field(default_factory=default_state_dir)

    def __post_init__(self) -> None:
        for name, floor in LOWER_BOUNDS.items():
            if getattr(self, name) < floor:
                object.__setattr__(self, name, floor)

    @classmethod
    def from_env(cls, **overrides) -> "ServeConfig":
        """Env-var defaults, then explicit keyword overrides on top.

        ``None`` overrides are dropped so argparse defaults of ``None``
        mean "not given on the command line".  Either source is raised
        to :data:`LOWER_BOUNDS`.
        """
        cfg = cls(
            queue_size=_env_number(
                "REPRO_SERVE_QUEUE", DEFAULT_QUEUE, _ENV_INT),
            deadline_ms=_env_number(
                "REPRO_SERVE_DEADLINE_MS", DEFAULT_DEADLINE_MS,
                _ENV_FLOAT),
            rate=_env_number(
                "REPRO_SERVE_RATE", DEFAULT_RATE, _ENV_FLOAT),
            burst=_env_number(
                "REPRO_SERVE_BURST", DEFAULT_BURST, _ENV_INT),
            batch_size=_env_number(
                "REPRO_SERVE_BATCH", DEFAULT_BATCH, _ENV_INT),
            breaker_threshold=_env_number(
                "REPRO_SERVE_BREAKER", DEFAULT_BREAKER_THRESHOLD,
                _ENV_INT),
            breaker_cooldown_s=_env_number(
                "REPRO_SERVE_BREAKER_COOLDOWN_S",
                DEFAULT_BREAKER_COOLDOWN_S, _ENV_FLOAT),
            window=_env_number(
                "REPRO_SERVE_WINDOW", DEFAULT_WINDOW, _ENV_INT),
            drain_s=_env_number(
                "REPRO_SERVE_DRAIN_S", DEFAULT_DRAIN_S, _ENV_FLOAT),
            state_dir=default_state_dir(),
        )
        cleaned = {k: v for k, v in overrides.items() if v is not None}
        return replace(cfg, **cleaned) if cleaned else cfg
