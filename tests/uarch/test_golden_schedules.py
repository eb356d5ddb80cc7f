"""Golden schedules: every dispatch cycle, port and record is pinned.

``tests/data/golden_schedules.json`` holds, for each golden-corpus
block on each uarch, every ``DataflowScheduler.schedule`` call a
default-mode profile makes (captured with a spy, real trace
annotations included), plus IACA's, llvm-mca's and OSACA's combined
``(28, checkpoint=12)`` pass and their 3-iteration figure trace.  Each
entry pins the cycles, the checkpoint cycles and a CRC-32 over the
``UopRecord`` tuples of a ``keep_records=True`` re-run, so a change to
dispatch order, port choice or the multi-port tie-break fails here even
when no throughput moves.

Intentional timing changes: regenerate with

    PYTHONPATH=src python tests/data/regen_golden.py
"""

import importlib.util
import json
import os

import pytest

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
UARCHES = ("ivybridge", "haswell", "skylake")


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "regen_golden", os.path.join(DATA, "regen_golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(DATA, "golden_schedules.json")) as fh:
        return regen.golden_corpus(), json.load(fh)


@pytest.mark.parametrize("uarch", UARCHES)
def test_schedules_match_golden_exactly(golden, uarch):
    corpus, expected = golden
    actual = regen.uarch_schedules(corpus, uarch)
    assert actual.keys() == expected[uarch].keys()
    drifted = {(block_id, caller): (got, expected[uarch][block_id][caller])
               for block_id, entry in actual.items()
               for caller, got in entry.items()
               if got != expected[uarch][block_id].get(caller)}
    assert not drifted, (
        f"{len(drifted)} schedules drifted on {uarch} "
        f"((block, caller): (actual, golden)): "
        f"{dict(list(drifted.items())[:5])}")


#: Golden blocks each uarch profiles (the rest it rejects or drops
#: before timing).
PROFILED_BLOCKS = {"ivybridge": 39, "haswell": 44, "skylake": 44}


def test_golden_covers_annotated_and_static_schedules(golden):
    """The file pins what it claims, or it proves nothing."""
    _corpus, expected = golden
    for uarch in UARCHES:
        entries = expected[uarch].values()
        profiled = [e["profiler"] for e in entries if e["profiler"]]
        assert len(profiled) >= PROFILED_BLOCKS[uarch]
        # Single-page mode never evicts from the L1D, so every
        # profile is one combined two-factor schedule.
        for calls in profiled:
            assert len(calls) == 1 and calls[0][:2] == [32, 16], calls
        for model in ("IACA", "llvm-mca", "OSACA"):
            assert sum(e[model] is not None for e in entries) >= 40
