"""The fast-path switchboard.

One global predicate, :func:`enabled`, consulted by every fast-path
layer (executor session, pricing without the LRU, annotation
early-exit, combined two-factor run, profile memo).  Disabled by ``REPRO_NO_FASTPATH=1`` in
the environment (exported by the CLI's ``--no-fastpath`` before any
worker forks, so pools inherit it) or programmatically via
:func:`set_enabled` / :func:`forced` in tests.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

ENV_VAR = "REPRO_NO_FASTPATH"

_DISABLING = ("1", "true", "yes", "on")

#: Programmatic override; ``None`` defers to the environment.
_override: Optional[bool] = None


def enabled() -> bool:
    """Is the simulation-core fast path active?"""
    if _override is not None:
        return _override
    return os.environ.get(ENV_VAR, "").strip().lower() not in _DISABLING


def set_enabled(value: Optional[bool]) -> None:
    """Force the fast path on/off; ``None`` defers to ``$REPRO_NO_FASTPATH``."""
    global _override
    _override = None if value is None else bool(value)


@contextmanager
def forced(value: bool) -> Iterator[None]:
    """Temporarily force the fast path on or off (tests, benches)."""
    global _override
    saved = _override
    _override = bool(value)
    try:
        yield
    finally:
        _override = saved
