"""End-to-end profiling through the public harness."""

import pytest

from repro.profiler import (BasicBlockProfiler, FailureReason,
                            ProfilerConfig, profile_block)
from repro.profiler.ablation import AblationStage, config_for_stage
from repro.profiler.harness import (fold_entries,
                                    profile_records_detailed,
                                    result_entry)
from repro.uarch import Machine


class TestBasicProfiles:
    def test_simple_chain(self, profiler):
        result = profiler.profile("add %rbx, %rax")
        assert result.ok
        assert result.throughput == 1.0

    def test_accepts_text_or_block(self, profiler):
        from repro.isa import parse_block
        a = profiler.profile("add %rbx, %rax")
        b = profiler.profile(parse_block("add %rbx, %rax"))
        assert a.throughput == b.throughput

    def test_div_block_matches_paper_scale(self, profiler):
        result = profiler.profile(
            "xor %edx, %edx\ndiv %ecx\ntest %edx, %edx")
        assert result.ok
        assert 20 <= result.throughput <= 27  # paper: 21.62

    def test_zero_idiom(self, profiler):
        result = profiler.profile("vxorps %xmm2, %xmm2, %xmm2")
        assert result.throughput == pytest.approx(0.25, abs=0.01)

    def test_memory_block_profiles_cleanly(self, profiler):
        result = profiler.profile("mov (%rdi), %rax\nadd $64, %rdi")
        assert result.ok
        assert result.pages_mapped >= 1
        for m in result.measurements:
            assert m.l1d_read_misses == 0
            assert m.l1i_misses == 0

    def test_measurements_recorded_per_factor(self, profiler):
        result = profiler.profile("add %rbx, %rax")
        assert len(result.measurements) == 2
        assert result.measurements[0].unroll < \
            result.measurements[1].unroll
        assert all(m.clean_runs >= 8 for m in result.measurements)

    def test_throughput_is_deterministic(self, profiler):
        a = profiler.profile("imul %rbx, %rax")
        b = profiler.profile("imul %rbx, %rax")
        assert a.throughput == b.throughput


class TestFailures:
    def test_unsupported_isa_on_ivybridge(self):
        profiler = BasicBlockProfiler(Machine("ivybridge"))
        result = profiler.profile("vpaddd %ymm0, %ymm1, %ymm2")
        assert result.failure is FailureReason.UNSUPPORTED_ISA

    def test_unsupported_instruction(self, profiler):
        result = profiler.profile("cpuid")
        assert result.failure is FailureReason.UNSUPPORTED

    def test_sigfpe(self, profiler):
        result = profiler.profile(
            "xor %ecx, %ecx\nxor %edx, %edx\ndiv %ecx")
        assert result.failure is FailureReason.SIGFPE

    def test_invalid_address(self, profiler):
        result = profiler.profile("mov 0x40, %rax")
        assert result.failure is FailureReason.INVALID_ADDRESS

    def test_misaligned_dropped(self, profiler):
        result = profiler.profile("movups 60(%rdi), %xmm0")
        assert result.failure is FailureReason.MISALIGNED

    def test_never_raises_on_junk_blocks(self, profiler):
        for text in ("cpuid", "mov 0x40, %rax",
                     "xor %ecx, %ecx\nxor %edx, %edx\ndiv %ecx"):
            result = profiler.profile(text)
            assert not result.ok and result.failure is not None


class TestConfigModes:
    def test_naive_strategy_single_measurement(self):
        config = ProfilerConfig(unroll_strategy="naive", naive_unroll=50)
        result = BasicBlockProfiler(Machine("haswell"), config) \
            .profile("add %rbx, %rax")
        assert len(result.measurements) == 1
        assert result.measurements[0].unroll == 50

    def test_unknown_strategy_rejected(self):
        config = ProfilerConfig(unroll_strategy="magic")
        profiler = BasicBlockProfiler(Machine("haswell"), config)
        with pytest.raises(ValueError):
            profiler.profile("add %rbx, %rax")

    def test_stage_none_is_agner_style(self):
        config = config_for_stage(AblationStage.NONE)
        profiler = BasicBlockProfiler(Machine("haswell"), config)
        assert profiler.profile("mov (%rdi), %rax").failure \
            is FailureReason.SEGFAULT
        assert profiler.profile("add %rbx, %rax").ok

    def test_profile_block_convenience(self):
        result = profile_block("add %rbx, %rax", uarch="skylake")
        assert result.ok and result.uarch == "skylake"

    def test_naive_vs_two_factor_on_large_block(self):
        """Table I row 2 vs row 3: intelligent unrolling recovers the
        large blocks naive 100x unrolling loses to the I-cache."""
        big = "\n".join(f"add $1, %r{8 + k % 8}" for k in range(90))
        naive = BasicBlockProfiler(
            Machine("haswell"),
            ProfilerConfig(unroll_strategy="naive")).profile(big)
        smart = BasicBlockProfiler(Machine("haswell")).profile(big)
        assert naive.failure is FailureReason.L1I_MISS
        assert smart.ok

    def test_profile_many_preserves_order(self, profiler):
        results = profiler.profile_many(
            ["add %rbx, %rax", "cpuid", "imul %rbx, %rax"])
        assert results[0].ok
        assert not results[1].ok
        assert results[2].ok


class TestEntries:
    """What a corpus profile and the result store keep of a result."""

    def test_accepted_block_keeps_its_throughput(self):
        from repro.profiler.result import ProfileResult
        result = ProfileResult("nop", "haswell", throughput=1.25,
                               extra={"blockplan_compiled": 1.0,
                                      "fastpath_extrapolated": 0.0})
        assert result_entry(result) == {
            "throughput": 1.25, "extra": ["blockplan_compiled"]}

    def test_dropped_blocks_keep_their_reason(self):
        from repro.profiler.result import ProfileResult
        assert result_entry(ProfileResult("nop", "haswell",
                                          throughput=0.0)) == \
            {"reason": "zero_throughput"}
        assert result_entry(ProfileResult(
            "nop", "haswell", failure=FailureReason.SIGFPE)) == \
            {"reason": "sigfpe"}

    def test_fold_is_the_profile_of_the_records(self, small_corpus):
        records = small_corpus.records[:40]
        profiler = BasicBlockProfiler(Machine("haswell"))
        entries = [result_entry(r) for r in
                   profiler.profile_many([r.block for r in records])]
        folded = fold_entries((r.block_id, e)
                              for r, e in zip(records, entries))
        whole = profile_records_detailed(
            BasicBlockProfiler(Machine("haswell")), records)
        assert (folded.throughputs, folded.funnel, folded.info) == \
            (whole.throughputs, whole.funnel, whole.info)
        assert whole.funnel["total"] == len(records)
        assert len(whole.funnel["dropped"]) >= 1
