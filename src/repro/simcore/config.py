"""The oracle switch.

One global predicate, :func:`enabled`, consulted by every fast-path
layer (executor session, pricing without the LRU, combined two-factor
run, profile memo) and, through :func:`repro.runtime.blockplan.enabled`,
by compiled block plans.  ``REPRO_NO_FASTPATH=1`` in the environment
(exported by the CLI's ``--no-fastpath`` before any worker forks, so
pools inherit it) turns all of them off: the plain interpreter and
full simulation, which every tier is a byte-exact replay of.  Tests
and benches isolate one tier with :func:`forced` here or
:func:`repro.runtime.blockplan.forced`.
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
