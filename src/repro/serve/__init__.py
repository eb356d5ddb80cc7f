"""repro.serve — crash-safe profiling-as-a-service daemon.

The batch pipeline (PRs 2–9) turned one-shot profiling runs fast,
parallel-deterministic, and crash-safe; this package turns them into a
long-lived service.  ``repro serve --socket PATH | --port N`` stands up
an asyncio daemon that accepts block-profiling requests over HTTP
(Unix-domain socket or TCP), batches whatever is queued when its
batcher wakes (requests arriving while a batch runs form the next
one) into content-addressed one-block shards, and executes them on
the existing ``repro.parallel`` engine — so the shared v3 shard cache
becomes a multi-tenant result store and dedup across clients is
free.

Robustness is the headline (see docs/service.md):

* :mod:`repro.serve.admission` — bounded admission queue with
  deterministic load shedding (429 + retry-after) and per-client
  token-bucket rate limits;
* :mod:`repro.serve.breaker` — a circuit breaker around the worker
  pool (trip on consecutive worker failures, half-open probes,
  scalar fallback while open);
* :mod:`repro.serve.requestlog` — a CRC-self-checked request journal
  (same line format as :mod:`repro.resilience.journal`) giving
  SIGKILL → restart byte-identical replay of in-flight requests;
* :mod:`repro.serve.metrics` — per-window p50/p95/p99 latency,
  jitter, and deadline-miss-rate ``serve.*`` telemetry;
* :mod:`repro.serve.daemon` — the asyncio server itself: no
  request runs before its ``req`` record is durable, deadlines are
  enforced before work reaches a worker, graceful SIGTERM drain,
  and the ``serve_*`` chaos fault points.
"""

from repro.serve.admission import (AdmissionDecision, AdmissionQueue,
                                   TokenBucket)
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.core import (ProfileRequest, ProfilingService,
                              RequestError, request_digest)
from repro.serve.requestlog import REQUEST_LOG_NAME, RequestJournal

__all__ = [
    "ServeConfig",
    "AdmissionQueue", "AdmissionDecision", "TokenBucket",
    "CircuitBreaker",
    "RequestJournal", "REQUEST_LOG_NAME",
    "ProfilingService", "ProfileRequest", "RequestError",
    "request_digest",
]
