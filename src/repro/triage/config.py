"""The triage switchboard.

Mirrors :mod:`repro.simcore.config` with the polarity inverted:
triage is *opt-in* (``REPRO_TRIAGE=1`` enables it, exported by the
CLI's ``--triage`` before any worker forks, so pools inherit it),
where the fast path and block plans are opt-out.  Tests and
benches use :func:`forced` / :func:`forced_tolerance` exactly like
``simcore.config.forced``.

The tolerance is the revalidation acceptance band: a cached value is
replayed iff ``abs(predicted - cached) <= tolerance * max(abs(cached),
1.0)``.  It only steers *routing* — a wrong tolerance costs speed
(more blocks fall through to full simulation), never bytes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

ENV_VAR = "REPRO_TRIAGE"
TOL_VAR = "REPRO_TRIAGE_TOL"

#: Default revalidation tolerance (relative, floored at 1.0 cycles).
DEFAULT_TOLERANCE = 0.25

_ENABLING = ("1", "true", "yes", "on")

#: Programmatic overrides; ``None`` defers to the environment.
_override: Optional[bool] = None
_tol_override: Optional[float] = None


def enabled() -> bool:
    """Is the triage stage active?  (Opt-in, default off.)"""
    if _override is not None:
        return _override
    return os.environ.get(ENV_VAR, "").strip().lower() in _ENABLING


def set_enabled(value: Optional[bool]) -> None:
    """Force triage on/off; ``None`` defers to ``$REPRO_TRIAGE``."""
    global _override
    _override = None if value is None else bool(value)


@contextmanager
def forced(value: bool) -> Iterator[None]:
    """Temporarily force triage on or off (tests, benches)."""
    global _override
    saved = _override
    _override = bool(value)
    try:
        yield
    finally:
        _override = saved


def tolerance() -> float:
    """The active revalidation tolerance.

    ``$REPRO_TRIAGE_TOL`` if it parses as a positive float, else
    :data:`DEFAULT_TOLERANCE` — a malformed value degrades to the
    default rather than failing the run (tolerance steers routing
    only, never bytes).
    """
    if _tol_override is not None:
        return _tol_override
    env = os.environ.get(TOL_VAR, "").strip()
    if env:
        try:
            value = float(env)
        except ValueError:
            return DEFAULT_TOLERANCE
        if value > 0.0:
            return value
    return DEFAULT_TOLERANCE


def set_tolerance(value: Optional[float]) -> None:
    """Force the tolerance; ``None`` defers to ``$REPRO_TRIAGE_TOL``."""
    global _tol_override
    _tol_override = None if value is None else float(value)


@contextmanager
def forced_tolerance(value: float) -> Iterator[None]:
    """Temporarily force the revalidation tolerance."""
    global _tol_override
    saved = _tol_override
    _tol_override = float(value)
    try:
        yield
    finally:
        _tol_override = saved
