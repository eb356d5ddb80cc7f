"""Cross-cutting property-based tests on core invariants."""

import json
import os
import tempfile
from dataclasses import astuple

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import simcore
from repro.corpus import BlockRecord, BlockSynthesizer, get_spec
from repro.errors import ModelError, UnsupportedInstructionError
from repro.isa.parser import parse_block
from repro.models import IacaModel, LlvmMcaModel, OsacaModel
from repro.models.portsim import PortSimulatorModel
from repro.parallel import ShardCache, profile_corpus_sharded
from repro.profiler import BasicBlockProfiler
from repro.profiler.environment import EnvironmentConfig
from repro.profiler.harness import ProfilerConfig, result_entry
from repro.runtime import blockplan
from repro.uarch import Machine
from repro.uarch.scheduler import DataflowScheduler, InstrAnnotation
from repro.uarch.tables import get_uarch
from repro.uarch.uops import Decomposer


@st.composite
def corpus_blocks(draw, apps=("llvm", "openblas", "ffmpeg", "spanner")):
    app = draw(st.sampled_from(apps))
    seed = draw(st.integers(min_value=0, max_value=400))
    return BlockSynthesizer(get_spec(app), seed=seed).block()


def make_scheduler(uarch="haswell"):
    desc, table, div = get_uarch(uarch)
    return DataflowScheduler(desc, Decomposer(desc, table, div))


class TestSchedulerInvariants:
    @given(corpus_blocks(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_cycles_monotone_in_unroll(self, block, unroll):
        if not block.is_supported:
            return
        sched = make_scheduler()
        shorter = sched.schedule(block, unroll).cycles
        longer = sched.schedule(block, unroll + 1).cycles
        assert longer >= shorter

    @given(corpus_blocks())
    @settings(max_examples=30, deadline=None)
    def test_schedule_deterministic(self, block):
        if not block.is_supported:
            return
        sched = make_scheduler()
        assert sched.schedule(block, 8).cycles == \
            sched.schedule(block, 8).cycles

    @given(corpus_blocks())
    @settings(max_examples=30, deadline=None)
    def test_steady_slope_bounded_by_front_end(self, block):
        """Throughput can never beat the allocation width."""
        if not block.is_supported:
            return
        sched = make_scheduler()
        c16 = sched.schedule(block, 16).cycles
        c32 = sched.schedule(block, 32).cycles
        slope = (c32 - c16) / 16
        min_slots = len(block) / 4.0  # >= 1 slot per instruction
        assert slope >= min_slots * 0.999 or slope >= 0.25


class TestProfilerInvariants:
    @given(corpus_blocks())
    @settings(max_examples=25, deadline=None)
    def test_profile_never_raises_and_is_deterministic(self, block):
        profiler = BasicBlockProfiler(Machine("haswell", seed=11))
        first = profiler.profile(block)
        second = profiler.profile(block)
        assert first.ok == second.ok
        if first.ok:
            assert first.throughput == second.throughput
            assert first.throughput > 0
        else:
            assert first.failure == second.failure

    @given(corpus_blocks())
    @settings(max_examples=15, deadline=None)
    def test_throughput_agrees_across_machines_with_same_seedless_base(
            self, block):
        """Noise seeds differ but the accepted (clean) value is the
        noise-free simulation, so seeds must not change results."""
        a = BasicBlockProfiler(Machine("haswell", seed=1)).profile(block)
        b = BasicBlockProfiler(Machine("haswell", seed=2)).profile(block)
        if a.ok and b.ok:
            assert a.throughput == b.throughput


class TestModelInvariants:
    @given(corpus_blocks())
    @settings(max_examples=20, deadline=None)
    def test_models_never_raise(self, block):
        from repro.models import simulator_models
        for model in simulator_models():
            prediction = model.predict_safe(block, "haswell")
            if prediction.ok:
                assert prediction.throughput > 0

    @given(corpus_blocks())
    @settings(max_examples=20, deadline=None)
    def test_features_are_finite(self, block):
        import numpy as np
        from repro.models.features import block_features
        if not block.is_supported:
            return
        features = block_features(block)
        assert np.isfinite(features).all()


UARCHES = ("ivybridge", "haswell", "skylake")

#: One instance per analyser, shared so each keeps its per-uarch
#: scheduler cache across examples.
SIMULATORS = {cls.name: cls() for cls in (IacaModel, LlvmMcaModel,
                                          OsacaModel)}

GOLDEN_CORPUS = os.path.join(os.path.dirname(__file__), "data",
                             "golden_corpus.json")


def golden_blocks():
    with open(GOLDEN_CORPUS) as fh:
        return [parse_block(b["text"]) for b in json.load(fh)["blocks"]]


def check_combined_schedule(model, block, uarch):
    """Assert the model's one combined pass equals two standalone ones.

    Returns whether the model analysed the block at all.
    """
    u1, u2 = PortSimulatorModel.UNROLL_PAIR
    try:
        analysed = model.preprocess(block)
        sched = model._scheduler(uarch)
        combined = sched.schedule(analysed, u2, checkpoint=u1)
    except (ModelError, UnsupportedInstructionError):
        return False
    c1 = sched.schedule(analysed, u1).cycles
    c2 = sched.schedule(analysed, u2).cycles
    assert (combined.checkpoint_cycles, combined.cycles) == (c1, c2)
    assert combined.records == []
    # The throughput the two-call implementation derived.
    two_call = max((c2 - c1) / (u2 - u1), 1.0 / sched.desc.issue_width)
    assert model.simulate(analysed, uarch)[0] == two_call
    return True


@pytest.mark.parametrize("uarch", UARCHES)
@pytest.mark.parametrize("name", sorted(SIMULATORS))
class TestCombinedStaticSchedule:
    """``schedule(b, 28, checkpoint=12)`` is the two standalone runs."""

    @given(block=corpus_blocks())
    @settings(max_examples=15, deadline=None)
    def test_generated_blocks(self, name, uarch, block):
        check_combined_schedule(SIMULATORS[name], block, uarch)

    def test_golden_corpus(self, name, uarch):
        analysed = sum(check_combined_schedule(SIMULATORS[name], block,
                                               uarch)
                       for block in golden_blocks())
        # Nearly all 46 blocks must be analysed, or this proves nothing.
        assert analysed >= 40


#: Shapes generated corpora rarely draw: dividers, and rename-only
#: tails whose makespan is the front-end drain (fetch stalls included).
RARE_BLOCKS = ("xor %edx, %edx\ndiv %ecx\ntest %edx, %edx",
               "mov (%rdi), %rax\ncqo\nidiv %rcx\nmov %rax, 8(%rdi)",
               "add (%rsi), %rax\nnop\nxor %ecx, %ecx\nmov %rax, %rbx")

#: Few addresses and widths, so drawn writes fully or partly cover
#: later reads (store forwarding and its partial-overlap replay).
ADDRESSES = (0x5000, 0x5004, 0x5008)
WIDTHS = (1, 4, 8)


@st.composite
def annotation(draw, instr, div_classes):
    """Dynamic facts a trace could record for one execution of ``instr``."""
    ann = InstrAnnotation(
        subnormal=draw(st.sampled_from((False, False, False, True))),
        fetch_stall=draw(st.sampled_from((0, 0, 0, 3, 9))))
    if instr.info.group == "int_div":
        ann.div_class = draw(st.sampled_from(div_classes))
    if instr.loads_memory or instr.mnemonic == "pop":
        ann.read_accesses = draw(st.lists(st.tuples(
            st.sampled_from(ADDRESSES), st.sampled_from(WIDTHS),
            st.sampled_from((0, 11, 15))), max_size=2))
    if instr.stores_memory or instr.mnemonic == "push":
        ann.write_accesses = draw(st.lists(st.tuples(
            st.sampled_from(ADDRESSES), st.sampled_from(WIDTHS)),
            max_size=2))
    return ann


@st.composite
def annotated_runs(draw):
    """(block, uarch, u1, u2, one drawn annotation per dynamic
    instruction of ``u2`` iterations)."""
    block = draw(st.one_of(
        corpus_blocks(), st.sampled_from(RARE_BLOCKS).map(parse_block)))
    assume(block.is_supported and len(block) <= 16)
    uarch = draw(st.sampled_from(UARCHES))
    u1 = draw(st.integers(min_value=1, max_value=3))
    u2 = u1 + draw(st.integers(min_value=1, max_value=3))
    div_classes = sorted(get_uarch(uarch)[2])
    anns = [draw(annotation(block.instructions[i % len(block)],
                            div_classes))
            for i in range(u2 * len(block))]
    return block, uarch, u1, u2, anns


@given(run=annotated_runs())
@settings(max_examples=60, deadline=None)
def test_annotated_checkpoint_is_the_prefix_schedule(run):
    """The profiler's combined two-factor run relies on this: with
    identical prefix annotations, the checkpoint reading and every
    record before it equal a standalone schedule of the prefix."""
    block, uarch, u1, u2, anns = run
    sched = make_scheduler(uarch)
    prefix = anns[:u1 * len(block)]
    combined = sched.schedule(block, u2, anns, checkpoint=u1)
    assert combined.checkpoint_cycles == \
        sched.schedule(block, u1, prefix).cycles
    long = sched.schedule(block, u2, anns, keep_records=True)
    short = sched.schedule(block, u1, prefix, keep_records=True)
    assert short.records == [r for r in long.records
                             if r.instr_index < len(prefix)]


def measured(result):
    """Everything a profile measures; ``extra`` is informational only."""
    return (result.ok, result.failure, result.throughput,
            tuple(astuple(m) for m in result.measurements),
            result.pages_mapped, result.num_faults,
            result.subnormal_events)


#: (fast path, block plans) per tier; the first is the interpreter.
TIERS = ((False, False), (False, True), (True, False), (True, True))


@given(block=corpus_blocks(), uarch=st.sampled_from(UARCHES),
       single_page=st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_tier_measures_generated_blocks_identically(block, uarch,
                                                          single_page):
    """Fast path and block plans agree with the interpreter on
    generated blocks, not only on the golden corpus, with every page
    on one physical frame (the L1D never evicts) or each on its own."""
    config = ProfilerConfig(environment=EnvironmentConfig(
        single_physical_page=single_page))
    results = []
    for fast, plans in TIERS:
        with simcore.forced(fast), blockplan.forced(plans):
            result = BasicBlockProfiler(Machine(uarch),
                                        config).profile(block)
        results.append(measured(result))
    for tier, result in zip(TIERS[1:], results[1:]):
        assert result == results[0], tier


@given(block=corpus_blocks(), order=st.permutations(UARCHES))
@settings(max_examples=40, deadline=None)
def test_sibling_results_equal_standalone_profiles(block, order):
    """Each uarch that has no result yet profiles the block and times
    it on the uarches after it too; every result, timed as a sibling
    or not, is exactly a standalone profile, on every tier."""
    for tier in TIERS:
        with simcore.forced(tier[0]), blockplan.forced(tier[1]):
            shared, got = {}, []
            for i, uarch in enumerate(order):
                result = shared.pop(uarch, None)
                if result is None:
                    profiler = BasicBlockProfiler(
                        Machine(uarch),
                        siblings=[Machine(u) for u in order[i + 1:]])
                    result = profiler.profile(block)
                    shared.update((r.uarch, r)
                                  for r in profiler.take_shared())
                got.append(result)
            alone = [BasicBlockProfiler(Machine(uarch)).profile(block)
                     for uarch in order]
        assert not shared, tier
        for uarch, mine, want in zip(order, got, alone):
            assert (mine.uarch, measured(mine), mine.extra) == \
                (uarch, measured(want), want.extra), (tier, uarch)


@given(block=corpus_blocks())
@settings(max_examples=30, deadline=None)
def test_stored_entries_equal_standalone_profiles(block):
    """A block run through the engine on each uarch in turn, with the
    later uarches as siblings, leaves one record per uarch in the
    store; each reads back as the entry of a standalone profile."""
    record = BlockRecord(block=block, application="prop", frequency=1,
                         block_id=0)
    with tempfile.TemporaryDirectory() as directory:
        store = ShardCache(directory)
        for i, uarch in enumerate(UARCHES):
            profile_corpus_sharded([record], uarch, jobs=1, cache=store,
                                   siblings=UARCHES[i + 1:])
        stored = [store.load(uarch, block.text()) for uarch in UARCHES]
    alone = [result_entry(BasicBlockProfiler(Machine(uarch))
                          .profile(block)) for uarch in UARCHES]
    assert stored == alone
