"""Sibling profiling: one functional half per block, timed per uarch.

A profiler given siblings maps and prices each fresh block once, times
it on every sibling that supports it and prices alike, and hands those
results to its owner, which stores them for the sibling's own row.
Every result a row reads back must equal a standalone profile,
whether a serial experiment or a pool worker timed it.
"""

import json
import os
from dataclasses import astuple, replace

import pytest

from repro import simcore, telemetry
from repro.corpus import tensorflow_ablation_block
from repro.eval.pipeline import UARCHES, Experiment
from repro.profiler import (AblationStage, BasicBlockProfiler,
                            config_for_stage, relaxed)
from repro.profiler.environment import Environment
from repro.profiler.mapping import map_pages
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPolicy
from repro.telemetry.core import MemorySink
from repro.uarch import Machine


def _fields(result):
    return (result.block_text, result.uarch, result.ok, result.failure,
            result.throughput,
            tuple(astuple(m) for m in result.measurements),
            result.pages_mapped, result.num_faults,
            result.subnormal_events, result.detail, result.extra)


def _through_siblings(block, machines, config=None):
    """Profile ``block`` on each machine in turn, as rows over a store
    do: a machine takes the result an earlier profiler timed for it,
    or profiles the block itself and times it on the machines after it
    as well.  Returns the results and the sibling results left over."""
    shared, results = {}, []
    for i, machine in enumerate(machines):
        result = shared.pop(machine.name, None)
        if result is None:
            profiler = BasicBlockProfiler(machine, config,
                                          siblings=machines[i + 1:])
            result = profiler.profile(block)
            shared.update((r.uarch, r) for r in profiler.take_shared())
        results.append(result)
    return results, shared


@pytest.fixture
def prices(monkeypatch):
    """Counts :meth:`Machine.price` calls by uarch."""
    calls = []
    original = Machine.price

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "price", counting)
    return calls


class TestProfiler:
    def test_naive_unroll_past_l1i_charges_fetch_stalls_once(self, prices):
        # 100 copies of the Table II block overflow L1I, so pricing
        # charges fetch stalls into annotations every uarch then reads.
        config = relaxed(config_for_stage(AblationStage.FTZ))
        block = tensorflow_ablation_block()
        machines = [Machine(u) for u in UARCHES]
        with simcore.forced(True):
            shared, left = _through_siblings(block, machines, config)
            assert prices == ["ivybridge"]
            alone = [BasicBlockProfiler(Machine(u), config).profile(block)
                     for u in UARCHES]
        assert all(m.l1i_misses for m in shared[0].measurements)
        assert [_fields(r) for r in shared] == [_fields(r) for r in alone]
        assert not left

    def test_other_pricing_key_prices_for_itself(self):
        # One frame per page: the L1D misses, so the miss penalty (a
        # pricing field) moves the throughput.
        config = relaxed(config_for_stage(AblationStage.PAGE_MAPPING))
        block = tensorflow_ablation_block()

        def slow_l1(uarch):
            machine = Machine(uarch)
            machine.desc = replace(machine.desc, l1_miss_penalty=40)
            return machine

        with simcore.forced(True):
            shared, left = _through_siblings(
                block, [Machine("haswell"), slow_l1("skylake")], config)
            alone = BasicBlockProfiler(slow_l1("skylake"),
                                       config).profile(block)
            plain = BasicBlockProfiler(Machine("skylake"),
                                       config).profile(block)
        assert shared[1].measurements[0].l1d_read_misses
        assert _fields(shared[1]) == _fields(alone)
        assert shared[1].throughput != plain.throughput
        assert not left

    def test_run_reprices_a_pricing_with_another_key(self):
        config = relaxed(config_for_stage(AblationStage.PAGE_MAPPING))
        block = tensorflow_ablation_block()
        env = Environment(config.environment)
        env.reset()
        with simcore.forced(True):
            mapping = map_pages(env, block, unroll=100)
            haswell = Machine("haswell").run(block, 100, mapping.trace,
                                             env.memory)
            slow = Machine("skylake")
            slow.desc = replace(slow.desc, l1_miss_penalty=40)
            reused = slow.run(block, 100, mapping.trace, env.memory,
                              pricing=haswell.pricing)
            fresh = slow.run(block, 100, mapping.trace, env.memory)
        assert reused.pricing.key == slow.pricing_key != haswell.pricing.key
        assert reused.samples == fresh.samples

    def test_run_refuses_a_pricing_for_another_factor(self):
        block = tensorflow_ablation_block()
        env = Environment()
        env.reset()
        mapping = map_pages(env, block, unroll=4)
        machine = Machine("haswell")
        run = machine.run(block, 4, mapping.trace, env.memory)
        with pytest.raises(ValueError):
            machine.run(block, 2, mapping.trace.prefix(2), env.memory,
                        pricing=run.pricing)

    def test_ivybridge_rejecting_a_block_times_no_sibling(self, prices):
        machines = [Machine(u) for u in UARCHES]
        shared, left = _through_siblings("vpaddd %ymm0, %ymm1, %ymm2",
                                         machines)
        assert not shared[0].ok
        assert "ivybridge" not in prices
        assert shared[1].ok and shared[2].ok
        assert not left

    def test_failing_sibling_gets_no_result(self, monkeypatch):
        machines = [Machine(u) for u in UARCHES]
        original = Machine.run

        def broken_on_skylake(self, *args, **kwargs):
            if self.name == "skylake":
                raise RuntimeError("sibling fault")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", broken_on_skylake)
        sink = MemorySink()
        telemetry.enable(sink)
        try:
            with simcore.forced(True):
                profiler = BasicBlockProfiler(machines[0],
                                              siblings=machines[1:])
                result = profiler.profile("add %rbx, %rax")
        finally:
            telemetry.reset()
        assert result.ok
        assert [(r.uarch, r.block_text) for r in profiler.take_shared()] \
            == [("haswell", "add %rbx, %rax")]
        assert not profiler.take_shared()
        (failed,) = [r for r in sink.records
                     if r["name"] == "profiler.sibling_failed"]
        assert (failed["uarch"], failed["error"]) == \
            ("skylake", "RuntimeError")


def _measure_all(experiment, uarches=UARCHES):
    return {u: (experiment.measured(u), experiment.funnel(u),
                experiment.info(u)) for u in uarches}


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """Points ``REPRO_CACHE`` at a fresh root; returns its seed-9
    store directory."""
    def use(name):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / name))
        return tmp_path / name / "results_9"
    return use


def _records(store):
    """(uarch, text) of every line in the store's logs."""
    records = []
    for name in os.listdir(store):
        if name.endswith(".log"):
            with open(store / name) as fh:
                records += [(name[:-len(".log")],
                             json.loads(line)["rec"]["text"])
                            for line in fh]
    return sorted(records)


class TestExperiment:
    SCALE = 0.0003

    def test_suite_equals_one_experiment_per_uarch(self, cache):
        cache("standalone")
        alone = {}
        for uarch in UARCHES:
            single = Experiment(scale=self.SCALE, seed=9, jobs=1,
                                uarches=(uarch,))
            alone[uarch] = (single.measured(uarch), single.funnel(uarch),
                            single.info(uarch))
        store = cache("suite")
        suite = Experiment(scale=self.SCALE, seed=9, jobs=1)
        assert _measure_all(suite) == alone
        assert len(_records(store)) == len(UARCHES) * len(suite.corpus)

    def test_filled_store_leaves_no_sibling_behind(self, cache):
        # Forced on throughout: the store keeps the fast path's info
        # tallies, and the siblings exist only on the fast path.  The
        # suite over a store skylake's own run filled reads the same
        # and ends with the same records as one over an empty store.
        with simcore.forced(True):
            filled = cache("suite")
            Experiment(scale=self.SCALE, seed=9, jobs=1,
                       uarches=("skylake",)).measured("skylake")
            first = _measure_all(Experiment(scale=self.SCALE, seed=9,
                                            jobs=1))
            fresh = cache("fresh")
            assert _measure_all(Experiment(scale=self.SCALE, seed=9,
                                           jobs=1)) == first
        assert _records(filled) == _records(fresh)

    def test_single_uarch_experiment_times_only_its_uarch(
            self, cache, monkeypatch):
        cache("single")
        timed = set()
        original = Machine.run

        def recording(self, *args, **kwargs):
            timed.add(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", recording)
        experiment = Experiment(scale=self.SCALE, seed=9, jobs=1,
                                uarches=("haswell",))
        experiment.measured("haswell")
        assert timed == {"haswell"}

    def test_counters_and_span_account_every_sibling(self, cache):
        cache("traced")
        sink = MemorySink()
        telemetry.enable(sink)
        try:
            with simcore.forced(True):
                _measure_all(Experiment(scale=self.SCALE, seed=9, jobs=1))
            counters = telemetry.registry().snapshot()["counters"]
        finally:
            telemetry.reset()
        spans = [r for r in sink.records
                 if r["name"] == "experiment.measure"]
        runs = [span["sibling_runs"] for span in spans]
        hits = [span["store_hits"] for span in spans]
        # Each result timed for a sibling is stored once and read back
        # once, by that sibling's own row.
        assert runs[0] > 0 and runs[2] == 0 and hits[0] == 0
        assert sum(runs) == sum(hits) == counters["profiler.sibling_runs"]
        assert counters["cache.shard.hits"] == sum(hits)


SIBLING_COUNTERS = ("profiler.sibling_runs", "cache.shard.hits")


def _counted(run):
    """``run()`` with the fast path on and metrics collected, and the
    counters it left."""
    telemetry.enable()
    try:
        with simcore.forced(True):
            value = run()
        return value, telemetry.registry().snapshot()["counters"]
    finally:
        telemetry.reset()


@pytest.fixture(scope="module")
def standalone(tmp_path_factory):
    """By corpus seed: one serial single-uarch experiment per uarch,
    fast path on (the store keeps its info tallies)."""
    memo = {}

    def measure(seed):
        if seed not in memo:
            with pytest.MonkeyPatch.context() as patch, \
                    simcore.forced(True):
                patch.setenv("REPRO_CACHE",
                             str(tmp_path_factory.mktemp("standalone")))
                memo[seed] = {}
                for uarch in UARCHES:
                    single = Experiment(scale=TestExperiment.SCALE,
                                        seed=seed, jobs=1,
                                        uarches=(uarch,))
                    memo[seed].update(_measure_all(single, (uarch,)))
        return memo[seed]
    return measure


class TestPooledExperiment:
    """Pool workers time siblings too: each pooled shard's worker
    sends its sibling results back with the shard, and the parent
    stores them for the siblings' own rows."""

    SCALE = TestExperiment.SCALE

    def test_suite_equals_one_serial_experiment_per_uarch(
            self, cache, standalone):
        store = cache("pooled")
        suite = Experiment(scale=self.SCALE, seed=9, jobs=2)
        measured, counters = _counted(lambda: _measure_all(suite))
        assert measured == standalone(9)
        assert counters.get("profiler.sibling_runs", 0) > 0
        assert len(_records(store)) == len(UARCHES) * len(suite.corpus)

    def test_filled_store_leaves_no_sibling_behind(self, cache,
                                                   standalone):
        store = cache("pooled")

        def suite_over_a_filled_store():
            Experiment(scale=self.SCALE, seed=9, jobs=2,
                       uarches=("skylake",)).measured("skylake")
            suite = Experiment(scale=self.SCALE, seed=9, jobs=2)
            return suite, _measure_all(suite)

        (suite, measured), counters = _counted(suite_over_a_filled_store)
        assert measured == standalone(9)
        assert counters.get("profiler.sibling_runs", 0) > 0
        assert len(_records(store)) == len(UARCHES) * len(suite.corpus)

    def test_rescued_shards_reprofile_in_their_own_rows(self, cache,
                                                        standalone):
        # On corpus seed 1 this policy crashes a worker in the first
        # window, so its shards are rescued with no siblings, while
        # the last shard of each row lands from a rebuilt pool with
        # its siblings.
        cache("chaos")
        suite = Experiment(scale=self.SCALE, seed=1, jobs=2)
        with chaos.forced(ChaosPolicy.parse("3:worker_crash=0.5")):
            measured, counters = _counted(lambda: _measure_all(suite))
        assert counters.get("parallel.worker_retries", 0) > 0
        assert measured == standalone(1)
        assert counters.get("profiler.sibling_runs", 0) > 0

    @pytest.mark.parametrize("traced", [True, False],
                             ids=["traced", "metrics-only"])
    def test_counters_and_spans_read_as_serial(self, cache, traced):
        # Chaos off: a rescued shard's blocks are timed in their own
        # rows, so the counts follow serial only with no worker fault.
        seen = {}
        for jobs in (1, 2):
            cache(f"jobs{jobs}")
            sink = MemorySink() if traced else None
            telemetry.enable(sink)
            try:
                with simcore.forced(True), chaos.forced(None):
                    _measure_all(Experiment(scale=self.SCALE, seed=9,
                                            jobs=jobs))
                counters = telemetry.registry().snapshot()["counters"]
            finally:
                telemetry.reset()
            spans = [(r["sibling_runs"], r["store_hits"])
                     for r in (sink.records if traced else ())
                     if r["name"] == "experiment.measure"]
            seen[jobs] = ([counters.get(name, 0)
                           for name in SIBLING_COUNTERS], spans)
        assert seen[1] == seen[2]
        counted, spans = seen[2]
        assert all(counted)
        if traced:
            assert [sum(column) for column in zip(*spans)] == counted
