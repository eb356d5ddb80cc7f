"""One function call in a one-shot forked worker.

``Forked(fn, *args, jobs=jobs)`` starts ``fn(*args)`` in a worker
process of its own, and :meth:`Forked.result` collects what it
returned, so the caller can do other work in between.  The pipeline
runs Table V's static-model predictions this way while the parent
trains Ithemal, and LDA while the first row profiles
(docs/parallel.md, "The model half in the pool").

- At ``jobs == 1`` nothing forks: :meth:`~Forked.result` calls
  ``fn(*args)`` in process.
- The worker starts with the engine's worker initialiser, so the
  telemetry it inherited is dropped.  When the parent collects
  telemetry, the worker counts into a fresh registry and its counters
  come back with the result, to be added to the parent's.  Its spans
  and events stay in the worker, as an untraced pool worker's do.
- A worker that dies, or sends nothing within the shard timeout, is
  replaced by a call in process, with one ``parallel.forked_fallback``
  event.  An exception ``fn`` raises propagates from ``result()``, as
  it would serially.

The worker is a bare forked process with a one-way pipe back, not a
``ProcessPoolExecutor``: a pool keeps a manager thread and a queue
feeder thread alive in the parent, and LDA's worker is still running
while the engine forks its own pool, so a pool here would carry a
thread across that fork.  This module starts no thread.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, Optional

from repro.parallel.engine import _init_worker, default_shard_timeout
from repro.telemetry import core as telemetry


def _call_in_worker(conn, counted: bool, fn: Callable, args: tuple
                    ) -> None:
    """Worker side: send back ``fn(*args)`` and the counters it bumped."""
    _init_worker()
    if counted:
        telemetry.enable()  # metrics only, into the fresh registry
    try:
        value = fn(*args)
    except Exception as exc:
        message = ("raised", exc, {})
    else:
        message = ("done", value,
                   telemetry.registry().snapshot()["counters"])
    # An unpicklable result or exception fails this send: the worker
    # then dies, and the parent calls ``fn`` itself.
    conn.send(message)
    conn.close()


class Forked:
    """``fn(*args)``, computed in a one-shot forked worker when
    ``jobs > 1`` and in process otherwise."""

    def __init__(self, fn: Callable, *args: Any, jobs: int):
        self._fn, self._args = fn, args
        self._process: Optional[multiprocessing.Process] = None
        if jobs > 1:
            context = multiprocessing.get_context()
            self._conn, sender = context.Pipe(duplex=False)
            self._process = context.Process(
                target=_call_in_worker,
                args=(sender, telemetry.is_enabled(), fn, args),
                daemon=True)
            self._process.start()
            sender.close()  # the worker's death must read as EOF here

    def result(self) -> Any:
        """What ``fn(*args)`` returned; call it once."""
        process, self._process = self._process, None
        if process is None:
            return self._fn(*self._args)
        message: Optional[tuple] = None
        try:
            if self._conn.poll(default_shard_timeout()):
                message = self._conn.recv()
        except (EOFError, OSError):
            pass  # the worker died
        finally:
            self._conn.close()
            if message is None:
                process.terminate()
            process.join()
        if message is None:
            telemetry.event("parallel.forked_fallback",
                            call=getattr(self._fn, "__qualname__",
                                         repr(self._fn)),
                            exitcode=process.exitcode)
            return self._fn(*self._args)
        status, value, counters = message
        if status == "raised":
            raise value
        _add_counters(counters)
        return value


def _add_counters(counters: Dict[str, int]) -> None:
    for name, amount in counters.items():
        if amount:
            telemetry.count(name, amount)
