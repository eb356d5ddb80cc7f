"""Self-time tracer for the per-layer metrics.

The benchmark's traced runs wrap the public entry points of each
``repro`` layer from outside the program: a wrapper is installed on
the defining class or module, and every ``from module import name``
alias already bound in a loaded ``repro.*`` module is rebound to it.
Each wrapper keeps a per-thread stack of open spans, so a layer's
*self* time is its span's duration minus the time its wrapped
children covered.  Summed over every label, self times therefore add
up to the wall time of the outermost wrapped calls.

Pool workers are separate processes and are never wrapped: on pooled
runs the totals cover the parent side only (engine and store).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple, Union

#: A span label, or a function of (call args, open stack) giving one.
Label = Union[str, Callable[[tuple, List[list]], str]]


def _schedule_label(args: tuple, stack: List[list]) -> str:
    """Scheduler time split by caller: a cost model or the profiler."""
    if any(frame[0].startswith("models.") for frame in stack):
        return "uarch.schedule.models"
    return "uarch.schedule.profiler"


def _predict_label(args: tuple, stack: List[list]) -> str:
    return f"models.{args[0].name.lower()}.predict"


#: (module, attribute path, label) for every wrapped entry point.
TARGETS: Sequence[Tuple[str, str, Label]] = (
    ("repro.corpus.dataset", "build_corpus", "corpus.build"),
    ("repro.classify.lda", "LatentDirichletAllocation.fit",
     "classify.lda"),
    ("repro.classify.lda", "LatentDirichletAllocation.transform",
     "classify.lda"),
    ("repro.profiler.harness", "BasicBlockProfiler.profile_many",
     "profiler.profile_many"),
    ("repro.profiler.harness", "BasicBlockProfiler.profile",
     "profiler.profile"),
    ("repro.profiler.mapping", "map_pages", "profiler.map_pages"),
    ("repro.runtime.executor", "Executor.execute_block",
     "runtime.execute_block"),
    ("repro.uarch.machine", "Machine.run", "uarch.machine_run"),
    ("repro.uarch.scheduler", "DataflowScheduler.schedule",
     _schedule_label),
    ("repro.models.base", "CostModel.predict_safe", _predict_label),
    ("repro.models.ithemal", "IthemalModel.fit", "models.ithemal.fit"),
    ("repro.parallel.engine", "profile_corpus_sharded",
     "parallel.engine"),
    ("repro.parallel.shard_cache", "ShardCache.load",
     "parallel.cache_load"),
    ("repro.parallel.shard_cache", "ShardCache.store",
     "parallel.cache_store"),
    ("repro.eval.validation", "validate", "eval.validate"),
)


def load_targets(targets: Sequence[Tuple[str, str, Label]] = TARGETS
                 ) -> None:
    """Import every module holding a target.

    Untraced runs call this too, so traced and untraced processes have
    paid for the same imports before they report ready.
    """
    for module_name, _path, _label in targets:
        importlib.import_module(module_name)


class Tracer:
    """Per-label self time, call count and non-``None`` result count."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Calls that returned something other than ``None`` (for the
        #: shard store, a load that hit).
        self.returned: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, label: Label) -> Callable:
        """``fn`` recording a span under ``label`` on every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            name = label(args, stack) if callable(label) else label
            frame = [name, 0.0]   # label, time covered by children
            stack.append(frame)
            result = None
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = self.clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.self_s[name] = (self.self_s.get(name, 0.0)
                                         + elapsed - frame[1])
                    self.calls[name] = self.calls.get(name, 0) + 1
                    if result is not None:
                        self.returned[name] = \
                            self.returned.get(name, 0) + 1
        return traced

    def install(self, targets: Sequence[Tuple[str, str, Label]] = TARGETS
                ) -> None:
        """Wrap every target; rebind module-level aliases to it."""
        swapped: Dict[int, Tuple[object, Callable]] = {}
        load_targets(targets)
        for module_name, path, label in targets:
            owner = sys.modules[module_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self.wrap(original, label)
            self._set(owner, attr, wrapped)
            swapped[id(original)] = (original, wrapped)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                entry = swapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, key, entry[1])

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Plain-JSON snapshot: label -> self_s / calls / returned."""
        with self._lock:
            return {name: {"self_s": self.self_s[name],
                           "calls": self.calls.get(name, 0),
                           "returned": self.returned.get(name, 0)}
                    for name in sorted(self.self_s)}
