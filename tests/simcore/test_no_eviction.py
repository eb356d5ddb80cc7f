"""Pricing without the LRU: the rule, on both sides of it.

A trace whose L1D can never evict (the frames its memory maps fit
every set, as in the default single-physical-page mode) is priced in
one pass, with no LRU and a checkpoint certified from that fact
alone.  Every other trace is priced by the two full LRU passes and
gets no checkpoint, and both must equal the oracle: full simulation
with the fast path off.
"""

import pytest

from repro.corpus import tensorflow_ablation_block
from repro.isa.parser import parse_block
from repro.profiler import (AblationStage, BasicBlockProfiler,
                            config_for_stage, relaxed)
from repro.profiler.environment import Environment, EnvironmentConfig
from repro.profiler.harness import ProfilerConfig
from repro.profiler.mapping import map_pages
from repro.runtime.executor import Executor
from repro.runtime.state import INIT_CONSTANT
from repro.simcore import config as simcore
from repro.uarch.caches import CacheModel, never_evicts
from repro.uarch.descriptor import CacheGeometry
from repro.uarch.machine import Machine

from tests.simcore.test_differential import _fingerprint

#: A streaming AVX2/FMA kernel: its pointer moves every iteration, so
#: no iteration of its trace repeats an earlier one.
STREAMING = ("vmovups (%rdi), %ymm0\n"
             "vfmadd231ps 32(%rdi), %ymm0, %ymm1\n"
             "add $64, %rdi")

L1D = CacheGeometry(32 * 1024, 64, 8)

#: The register every address below is based on, and its page offset.
BASE_OFFSET = INIT_CONSTANT & 0xFFF


def page_load(page: int, offset: int = 0) -> str:
    """A qword load from ``offset`` into the ``page``-th virtual page
    above ``%rdi``'s."""
    return f"mov {page * 4096 + offset - BASE_OFFSET}(%rdi), %rax"


def pages_block(pages) -> str:
    """One load per page, each at its own line offset, so every line
    falls into a set of its own."""
    return "\n".join(page_load(k, 64 * k) for k in pages)


def mapped_trace(text, unroll, single_page=True):
    """A block's measurement trace and the memory it ran under."""
    env = Environment(EnvironmentConfig(single_physical_page=single_page))
    env.reset()
    block = parse_block(text)
    outcome = map_pages(env, block, unroll=unroll, max_faults=512)
    assert outcome.success, outcome.failure
    env.reinitialize()
    trace = Executor(env.state, env.memory).execute_block(block, unroll)
    return block, trace, env.memory


@pytest.fixture
def lru_calls(monkeypatch):
    """Counts the L1D/LRU accesses made while the test runs."""
    calls = []
    access_range = CacheModel.access_range

    def spy(self, address, width):
        calls.append(address)
        return access_range(self, address, width)

    monkeypatch.setattr(CacheModel, "access_range", spy)
    return calls


def schedule_spy(machine):
    """Record every ``(unroll, checkpoint)`` the machine schedules."""
    schedule = machine.scheduler.schedule
    calls = []

    def spy(block, unroll, annotations=None, keep_records=False,
            checkpoint=None):
        calls.append((unroll, checkpoint))
        return schedule(block, unroll, annotations,
                        keep_records=keep_records, checkpoint=checkpoint)

    machine.scheduler.schedule = spy
    return calls


def timed(text, unroll, single_page, fast, checkpoint_unroll=None):
    """One Haswell run of the block's trace, fast path on or off."""
    with simcore.forced(fast):
        block, trace, memory = mapped_trace(text, unroll, single_page)
        return Machine("haswell").run(block, unroll, trace, memory,
                                      checkpoint_unroll=checkpoint_unroll)


@pytest.mark.parametrize("geometry, frames", [
    (L1D, L1D.ways),
    (CacheGeometry(16 * 1024, 64, 8), 4),   # 32 sets x 64 B: half a page
    (CacheGeometry(64 * 1024, 64, 8), 8),   # 128 sets x 64 B: two pages
], ids=["page", "half-page", "two-page"])
def test_the_rule_at_its_boundary(geometry, frames):
    assert never_evicts(geometry, frames)
    assert not never_evicts(geometry, frames + 1)


class TestNoWitnessNeeded:
    def test_profile_schedules_once_per_uarch(self, lru_calls):
        machine = Machine("haswell")
        calls = schedule_spy(machine)
        with simcore.forced(True):
            fast = BasicBlockProfiler(machine).profile(STREAMING)
        u1, u2 = (m.unroll for m in fast.measurements)
        assert calls == [(u2, u1)]
        assert lru_calls == []
        with simcore.forced(False):
            slow = BasicBlockProfiler(Machine("haswell")).profile(STREAMING)
        assert _fingerprint(fast) == _fingerprint(slow)
        assert fast.extra.get("fastpath_extrapolated") == 1.0

    def test_checkpoint_reports_no_witness(self):
        # The checkpoint is certified with no steady witness at all.
        fast = timed(STREAMING, 32, True, True, checkpoint_unroll=16)
        assert fast.pricing.checkpoint == 16
        assert fast.samples == timed(STREAMING, 32, True, False).samples
        assert fast.checkpoint.samples == \
            timed(STREAMING, 16, True, False).samples

    def test_ways_frames_price_without_the_lru(self, lru_calls):
        text = pages_block(range(L1D.ways))
        _block, _trace, memory = mapped_trace(text, 16, False)
        assert len(memory.physical_pages) == L1D.ways
        fast = timed(text, 16, False, True)
        assert lru_calls == []
        assert fast.samples == timed(text, 16, False, False).samples


class TestEvictableTraces:
    """Traces whose L1D can evict: both LRU passes, no checkpoint,
    and the oracle's bytes."""

    def test_more_frames_than_ways_take_the_lru(self, lru_calls):
        text = pages_block(range(L1D.ways + 1))
        _block, _trace, memory = mapped_trace(text, 32, False)
        assert len(memory.physical_pages) == L1D.ways + 1
        fast = timed(text, 32, False, True, checkpoint_unroll=16)
        assert lru_calls
        # Asked for a checkpoint, an evictable trace gets none; each
        # factor is timed on its own and equals a standalone oracle run.
        assert fast.pricing.checkpoint is None
        assert fast.checkpoint is None
        assert fast.samples == timed(text, 32, False, False).samples
        assert timed(text, 16, False, True).samples == \
            timed(text, 16, False, False).samples

    def test_profile_equals_the_slow_path(self):
        config = ProfilerConfig(
            environment=EnvironmentConfig(single_physical_page=False))
        text = pages_block(range(L1D.ways + 2))
        machine = Machine("haswell")
        calls = schedule_spy(machine)
        with simcore.forced(True):
            fast = BasicBlockProfiler(machine, config).profile(text)
        with simcore.forced(False):
            slow = BasicBlockProfiler(Machine("haswell"),
                                      config).profile(text)
        assert fast.ok
        # No checkpoint: each factor is scheduled on its own, as the
        # oracle schedules it.
        u1, u2 = (m.unroll for m in fast.measurements)
        assert calls == [(u2, None), (u1, None)]
        assert "fastpath_extrapolated" not in fast.extra
        assert _fingerprint(fast) == _fingerprint(slow)

    def test_period_two_trace_at_an_odd_unroll(self):
        # ``xor $64`` flips the base between two lines every
        # iteration: period 2, and the odd unroll ends mid-period.
        text = pages_block(range(L1D.ways + 2)) + "\nxor $64, %rdi"
        assert timed(text, 15, False, True).samples == \
            timed(text, 15, False, False).samples

    #: Line 0 of eight pages, page 7 first: frames are handed out in
    #: first-touch order, so page 6 gets the highest frame number.
    EIGHT_PAGES = [page_load(7)] + [page_load(k) for k in range(7)]

    def test_a_page_crossing_spill_can_evict(self, lru_calls):
        # The access that crosses from page 6 into page 7 is tagged
        # from page 6's frame, so its tail line takes a ninth frame
        # number: nine lines compete for set 0.
        text = "\n".join(self.EIGHT_PAGES + [page_load(6, 4092)])
        _block, _trace, memory = mapped_trace(text, 16, False)
        assert len(memory.physical_pages) == L1D.ways
        fast = timed(text, 16, False, True)
        assert lru_calls
        slow = timed(text, 16, False, False)
        assert slow.samples[0].l1d_read_misses > 0
        assert fast.samples == slow.samples

    def test_the_same_frames_uncrossed_skip_the_lru(self, lru_calls):
        text = "\n".join(self.EIGHT_PAGES)
        fast = timed(text, 16, False, True)
        assert lru_calls == []
        assert fast.samples == timed(text, 16, False, False).samples

    def test_table2_page_mapping_equals_the_slow_path(self):
        config = relaxed(config_for_stage(AblationStage.PAGE_MAPPING))
        block = tensorflow_ablation_block()
        results = []
        for fast in (True, False):
            with simcore.forced(fast):
                results.append(BasicBlockProfiler(
                    Machine("haswell"), config).profile(block))
        assert results[0].ok
        misses = results[0].measurements[0]
        assert misses.l1d_read_misses + misses.l1d_write_misses > 0
        assert _fingerprint(results[0]) == _fingerprint(results[1])
