"""The switch for block-compiled execution plans.

Plans are on whenever the simulation-core fast path is
(:func:`repro.simcore.config.enabled`): ``REPRO_NO_FASTPATH=1`` turns
both off, and no variable of its own turns off plans alone.  Tests and
benches can force plans either way within a scope via :func:`forced`,
which wins over the oracle switch, to isolate this tier.  Lives in its
own small module so :mod:`repro.runtime.memory`,
:mod:`repro.runtime.executor` and the tests can all import it without
touching the executor↔plan import cycle.

The differential suite and the ``oracle-differential`` CI leg prove
that flipping this switch never changes a single serialized byte of
any profile — it only changes how fast the bytes are produced.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.simcore import config as simcore

#: Programmatic override; ``None`` defers to the oracle switch.
_override: Optional[bool] = None


def enabled() -> bool:
    """True when block-compiled plans should be used."""
    if _override is not None:
        return _override
    return simcore.enabled()


@contextmanager
def forced(value: bool) -> Iterator[None]:
    """Force plans on/off within a scope (tests and benchmarks)."""
    global _override
    previous = _override
    _override = value
    try:
        yield
    finally:
        _override = previous
