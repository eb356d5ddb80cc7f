"""Deterministic chaos / fault injection.

Every hostile scenario the pipeline must survive — a worker process
dying, a worker hanging past its deadline, a result-store record
arriving truncated or as garbage, a transient ``OSError`` on a
record write, a full disk, a block whose simulation raises out of
nowhere — is woven
through the stack as a *named fault point*.  A seeded
:class:`ChaosPolicy` (``--chaos SPEC`` on the CLI, ``$REPRO_CHAOS`` in
the environment, or :func:`forced` in tests) arms those points.

Determinism is the whole design: whether a point fires for a given key
is a pure function of ``(seed, point, key, attempt)`` — a keyed hash
compared against the point's rate — never of wall clock, call order,
or process identity.  The same spec therefore injects the same faults
into a serial run, a pooled run, and a re-run next week, which is what
lets the differential suites assert that every fault is *transparent*
(retried/quarantined without changing output bytes) or *accounted*
(visible in the funnel and the run report's resilience section).

Spec grammar (see docs/robustness.md)::

    SPEC    := <seed> [":" entry ("," entry)*]
    entry   := <point> "=" <rate>        # rate in [0, 1]
             | "all" "=" <rate>          # every point at once
             | "hang_s" "=" <seconds>    # how long worker_hang sleeps

    e.g.  --chaos "42:worker_crash=0.1,write_oserror=0.2"
          REPRO_CHAOS="7:all=0.05" pytest tests/parallel

Worker-process-only faults (``worker_crash``, ``worker_hang``) are
additionally gated on :func:`in_worker`, so a serial in-process run —
or the parent's own serial rescue of a crashed shard — never hard-kills
the main process.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ChaosFault
from repro.telemetry import core as telemetry

ENV_VAR = "REPRO_CHAOS"

#: Fault points woven through the batch pipeline, in pipeline order.
PIPELINE_FAULT_POINTS: Tuple[str, ...] = (
    "worker_crash",    # worker process hard-exits at shard start
    "worker_hang",     # worker sleeps past the shard deadline
    "cache_truncate",  # store record write leaves truncated JSON
    "cache_garbage",   # store record write leaves non-JSON garbage
    "write_oserror",   # transient OSError on the record write (1st try)
    "disk_full",       # persistent ENOSPC on the record write
    "block_poison",    # RuntimeError surfaces mid-simulation
)

#: Fault points specific to the ``repro serve`` daemon (request path).
SERVE_FAULT_POINTS: Tuple[str, ...] = (
    "serve_accept_error",  # daemon: accepted connection dies immediately
    "serve_slow_client",   # daemon: response stalls mid-write (hang_s)
    "serve_queue_full",    # daemon: admission queue reports full
)

#: Every named fault point.
FAULT_POINTS: Tuple[str, ...] = \
    PIPELINE_FAULT_POINTS + SERVE_FAULT_POINTS

#: Hard exit code used by the ``worker_crash`` point (recognisable in
#: worker post-mortems; the parent only ever sees BrokenProcessPool).
CRASH_EXIT_CODE = 113

DEFAULT_HANG_SECONDS = 30.0


class ChaosSpecError(ValueError):
    """The ``--chaos`` / ``$REPRO_CHAOS`` spec could not be parsed."""


@dataclass(frozen=True)
class ChaosPolicy:
    """A seeded, rate-per-point fault plan.

    ``should_fire`` is deterministic and order-independent: the hash
    covers the seed, the point name, the caller-supplied key (shard
    digest, block text, ...) and the attempt number, so retries can opt
    into *transient* semantics by hashing the attempt in, and
    *persistent* semantics by leaving it at 0.
    """

    seed: int
    rates: Dict[str, float] = field(default_factory=dict)
    hang_seconds: float = DEFAULT_HANG_SECONDS
    #: The spec string this policy was parsed from ("" if programmatic).
    spec: str = ""

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Parse the ``<seed>[:point=rate,...]`` grammar."""
        text = spec.strip()
        head, _, tail = text.partition(":")
        try:
            seed = int(head)
        except ValueError:
            raise ChaosSpecError(
                f"chaos spec must start with an integer seed: {spec!r}")
        rates: Dict[str, float] = {}
        hang_seconds = DEFAULT_HANG_SECONDS
        for entry in filter(None, (e.strip()
                                   for e in tail.split(","))):
            name, sep, value = entry.partition("=")
            name = name.strip()
            if not sep:
                raise ChaosSpecError(
                    f"chaos entry {entry!r} is not <name>=<value>")
            try:
                number = float(value)
            except ValueError:
                raise ChaosSpecError(
                    f"chaos entry {entry!r} has a non-numeric value")
            if name == "hang_s":
                hang_seconds = number
            elif name == "all":
                for point in FAULT_POINTS:
                    rates[point] = number
            elif name in FAULT_POINTS:
                rates[name] = number
            else:
                raise ChaosSpecError(
                    f"unknown fault point {name!r} "
                    f"(expected one of {', '.join(FAULT_POINTS)})")
        for point, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ChaosSpecError(
                    f"rate for {point!r} must be in [0, 1], got {rate}")
        return cls(seed=seed, rates=rates, hang_seconds=hang_seconds,
                   spec=text)

    # ------------------------------------------------------------------

    def rate(self, point: str) -> float:
        return self.rates.get(point, 0.0)

    def should_fire(self, point: str, key: str,
                    attempt: int = 0) -> bool:
        """Pure decision function — no state, no clock, no RNG.

        blake2b rather than CRC-32: CRC is linear, so near-identical
        keys (or the same key at successive attempts) land in a
        narrow band of hash values and a rate threshold degenerates
        to all-or-nothing across them.  A cryptographic hash makes
        the per-key decisions independent — and it is just as
        process-stable (never ``PYTHONHASHSEED``-dependent).
        """
        rate = self.rates.get(point, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        token = f"{self.seed}|{point}|{key}|{attempt}".encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2 ** 64 < rate


# ---------------------------------------------------------------------------
# Process-wide switchboard (mirrors repro.simcore.config)
# ---------------------------------------------------------------------------

#: Programmatic override; ``None`` defers to the environment.
_override: Optional[ChaosPolicy] = None
_OVERRIDE_OFF = ChaosPolicy(seed=0)  # sentinel for "forced off"

#: Parsed-env memo: (raw env string, policy) so ``active()`` stays a
#: dict lookup on the hot path instead of a parse.
_env_cache: Tuple[Optional[str], Optional[ChaosPolicy]] = (None, None)

#: Set by the pool-worker initialiser; worker-only faults key off it.
_in_worker = False


def active() -> Optional[ChaosPolicy]:
    """The armed policy, or ``None`` when chaos is off (the default)."""
    global _env_cache
    if _override is not None:
        return None if _override is _OVERRIDE_OFF else _override
    raw = os.environ.get(ENV_VAR)
    if not raw or not raw.strip():
        return None
    cached_raw, cached_policy = _env_cache
    if raw != cached_raw:
        _env_cache = (raw, ChaosPolicy.parse(raw))
    return _env_cache[1]


def set_policy(policy: Optional[ChaosPolicy]) -> None:
    """Force a policy (or ``None`` to defer to ``$REPRO_CHAOS``)."""
    global _override
    _override = policy


@contextmanager
def forced(policy: Optional[ChaosPolicy]) -> Iterator[None]:
    """Temporarily arm ``policy`` (``None`` forces chaos *off*)."""
    global _override
    saved = _override
    _override = _OVERRIDE_OFF if policy is None else policy
    try:
        yield
    finally:
        _override = saved


def mark_worker() -> None:
    """Flag this process as a pool worker (worker faults may fire)."""
    global _in_worker
    _in_worker = True


def in_worker() -> bool:
    return _in_worker


# ---------------------------------------------------------------------------
# Fire helpers
# ---------------------------------------------------------------------------

def should_fire(point: str, key: str, attempt: int = 0) -> bool:
    """Decision only — no accounting.  False when chaos is off."""
    policy = active()
    return policy is not None and policy.should_fire(point, key,
                                                     attempt)


def account(point: str, key: str = "") -> None:
    """Record one injection in the run's telemetry.

    Called by the site that *observes* the fault in the parent process
    — worker-side firings are invisible to the parent's registry, so
    the engine mirrors the (deterministic) decision on its side.
    """
    telemetry.count(f"resilience.fault_injected.{point}")
    telemetry.event("resilience.fault_injected", point=point,
                    key=str(key)[:120])


def fire(point: str, key: str, attempt: int = 0,
         count: bool = True) -> bool:
    """Decide and (optionally) account in one step."""
    if not should_fire(point, key, attempt):
        return False
    if count:
        account(point, key)
    return True


def poison(key: str) -> None:
    """Raise :class:`ChaosFault` if ``block_poison`` fires for ``key``.

    Accounting is deliberately *not* done here: poisoned blocks are
    visible through the ``quarantined`` funnel bucket and the
    ``chaos_block_poison`` info tally, which — unlike a process-local
    counter — survive the trip back from pool workers.
    """
    if fire("block_poison", key, count=False):
        raise ChaosFault("block_poison", key[:80])
