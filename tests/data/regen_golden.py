"""Regenerate the golden regression corpus and its expected profiles.

Run from the repo root **only when simulator timing is intentionally
changed**::

    PYTHONPATH=src python tests/data/regen_golden.py

and commit the rewritten ``golden_corpus.json`` /
``golden_profile_<uarch>.json`` / ``golden_schedules.json`` together
with the change that moved the numbers, explaining the drift in the
commit message.  The guard tests (``tests/parallel/test_golden.py``
and ``tests/uarch/test_golden_schedules.py``) exist precisely so that
timing drift cannot land silently.

A scheduler rewrite that claims identity must leave every file here
byte-identical: re-run this script and ``git diff --exit-code
tests/data/`` must print nothing.  The same holds for the learned half:
``golden_learned.json`` pins Ithemal's predictions, weights and losses
on the golden profiles and LDA's categories and topics (guard test
``tests/models/test_golden_learned.py``).
"""

import json
import os
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))

#: Frozen inputs: a small mixed corpus (scalar, memory, vector and
#: division blocks) profiled on every modelled uarch.
APPS = (("llvm", 10), ("openblas", 6), ("gzip", 6))
SEED = 11
UARCHES = ("ivybridge", "haswell", "skylake")

#: LDA is also pinned on perfbench's first corpus, whose vocabulary
#: and size are those of a real Table V run.
LDA_CORPUS = {"scale": 0.0002, "seed": 0}
#: ``classify_blocks``' default restarts: LDA seeds 0, 101, 202, 303.
LDA_RESTARTS = 4

#: Same-shape block families: every member of a family shares its
#: mnemonics, operand shapes and encoded lengths, with immediates
#: varying within one encoding class.  Eight members of each are
#: folded into the golden corpus (application ``lanes``) as ordinary
#: inputs that differ only in their immediates.
GOLDEN_LANE_SHAPES = (
    "movq (%%rax), %%rbx\naddq $0x%x, %%rbx\nmovq %%rbx, 8(%%rax)",
    "addq $0x%x, %%rbx\nxorq %%rbx, %%rcx\n"
    "leaq (%%rbx,%%rcx,2), %%rdx\nrolq $3, %%rdx",
    "cmpq $0x%x, %%rsi\ncmovne %%rdi, %%r8\nsete %%al\n"
    "sbbq %%rdx, %%rdx",
)
GOLDEN_LANE_MEMBERS = 8


def lane_family(shape, members):
    """Same-shape member texts for one family shape.

    Immediates stay in one x86 encoding class (imm32, 0x100 + 16*k)
    so every member has identical per-instruction encoded lengths.
    Shift-count immediates would truncate (count & 0x3f), but
    0x100+16k masks to a varying 5-bit pattern anyway, so the members
    still differ in what they compute.
    """
    return [shape % (0x100 + 16 * k) for k in range(members)]


def build_records():
    from repro.corpus.dataset import BlockRecord, Corpus, \
        build_application
    from repro.isa.parser import parse_block
    records = []
    for app, count in APPS:
        for record in build_application(app, count=count, seed=SEED):
            records.append(BlockRecord(
                block=record.block, application=app,
                frequency=record.frequency, block_id=len(records)))
    for shape in GOLDEN_LANE_SHAPES:
        for text in lane_family(shape, GOLDEN_LANE_MEMBERS):
            records.append(BlockRecord(
                block=parse_block(text), application="lanes",
                frequency=2, block_id=len(records)))
    return Corpus(records)


def golden_corpus():
    """The frozen golden corpus, read back from ``golden_corpus.json``."""
    from repro.corpus.dataset import BlockRecord, Corpus
    from repro.isa.parser import parse_block
    with open(os.path.join(HERE, "golden_corpus.json")) as fh:
        blocks = json.load(fh)["blocks"]
    return Corpus([BlockRecord(block=parse_block(b["text"]),
                               application=b["application"],
                               frequency=b["frequency"],
                               block_id=b["block_id"]) for b in blocks])


def records_crc(records):
    """CRC-32 over a schedule's ``UopRecord`` tuples, in order."""
    rows = [(r.instr_index, r.slot, r.mnemonic, r.kind, r.port,
             r.dispatch, r.finish) for r in records]
    return zlib.crc32(json.dumps(rows).encode())


def schedule_entry(unroll, checkpoint, result, records):
    return [unroll, checkpoint, result.cycles, result.checkpoint_cycles,
            records_crc(records)]


def profiler_schedules(block, uarch):
    """Every ``schedule()`` call one default-mode profile makes.

    A spy on the machine's scheduler captures each call's arguments
    and re-runs it with ``keep_records=True`` before the profiler
    sees the result, so the records belong to exactly the inputs
    (annotations included) the profiler scheduled.
    """
    from repro import simcore
    from repro.profiler import BasicBlockProfiler
    from repro.uarch import Machine

    machine = Machine(uarch)
    schedule = machine.scheduler.schedule
    calls = []

    def spy(block, unroll, annotations=None, keep_records=False,
            checkpoint=None):
        result = schedule(block, unroll, annotations,
                          keep_records=keep_records, checkpoint=checkpoint)
        records = schedule(block, unroll, annotations, keep_records=True,
                           checkpoint=checkpoint).records
        calls.append(schedule_entry(unroll, checkpoint, result, records))
        return result

    machine.scheduler.schedule = spy
    with simcore.forced(True):
        BasicBlockProfiler(machine).profile(block)
    return calls


def model_schedules(model, block, uarch):
    """A port simulator's combined two-factor pass and figure trace,
    or ``None`` when the model refuses the block."""
    from repro.errors import ModelError, UnsupportedInstructionError

    u1, u2 = model.UNROLL_PAIR
    try:
        analysed = model.preprocess(block)
        schedule = model._scheduler(uarch).schedule
        combined = schedule(analysed, u2, checkpoint=u1)
        records = schedule(analysed, u2, keep_records=True,
                           checkpoint=u1).records
        trace = model.schedule_trace(block, uarch, 3)
    except (ModelError, UnsupportedInstructionError):
        return None
    return [schedule_entry(u2, u1, combined, records),
            schedule_entry(3, None, trace, trace.records)]


def uarch_schedules(corpus, uarch):
    """Every schedule the profiler and the port simulators run on
    ``corpus`` for one uarch: ``{block_id: {caller: entries}}``, each
    entry ``[unroll, checkpoint, cycles, checkpoint cycles, CRC]``."""
    from repro.models import IacaModel, LlvmMcaModel, OsacaModel

    models = [cls() for cls in (IacaModel, LlvmMcaModel, OsacaModel)]
    schedules = {}
    for record in corpus:
        entry = {"profiler": profiler_schedules(record.block, uarch)}
        for model in models:
            entry[model.name] = model_schedules(model, record.block, uarch)
        schedules[str(record.block_id)] = entry
    return schedules


def dump_schedule_doc(doc, fh):
    """One line per (uarch, block): diffs name the block that moved."""
    fh.write('{\n')
    for u, (uarch, blocks) in enumerate(doc.items()):
        fh.write(f' "{uarch}": {{\n')
        for b, (block_id, entry) in enumerate(blocks.items()):
            tail = "," if b + 1 < len(blocks) else ""
            fh.write(f'  "{block_id}": {json.dumps(entry)}{tail}\n')
        fh.write(" }" + ("," if u + 1 < len(doc) else "") + "\n")
    fh.write("}\n")


def array_crc(*arrays):
    """CRC-32 over the float64 bytes (C order) of ``arrays``, in turn."""
    import numpy as np
    return zlib.crc32(b"".join(
        np.ascontiguousarray(a, dtype=np.float64).tobytes()
        for a in arrays))


def ithemal_golden(corpus, uarch):
    """Ithemal trained through ``validate()`` on the golden profile:
    the ``repr`` of each prediction, and CRC-32s of the network's
    weights and of its per-epoch training losses."""
    from repro.eval.validation import validate
    from repro.models import IthemalModel

    with open(os.path.join(HERE, f"golden_profile_{uarch}.json")) as fh:
        measured = {int(k): v
                    for k, v in json.load(fh)["throughputs"].items()}
    model = IthemalModel()
    result = validate(corpus, uarch, [model], measured=measured)
    net = model._nets[uarch]
    return {"predictions": {str(row.block_id):
                            repr(row.predictions[model.name])
                            for row in result.rows},
            "weights_crc": array_crc(net._w1, net._b1, net._w2, net._b2),
            "losses_crc": array_crc(net.training_losses)}


def lda_golden(blocks):
    """``classify_blocks``' categories and topics, and each restart
    seed's topics fitted alone on the same count matrix."""
    from repro.classify.categories import bag_counts, classify_blocks
    from repro.classify.lda import LatentDirichletAllocation, LdaConfig

    result = classify_blocks(blocks, n_restarts=LDA_RESTARTS)
    counts = bag_counts(result.mapper, result.vocabulary, blocks)
    restarts = []
    for restart in range(LDA_RESTARTS):
        lda = LatentDirichletAllocation(LdaConfig(seed=101 * restart))
        doc_topics = lda.fit_transform(counts)
        restarts.append({"seed": lda.config.seed,
                         "doc_topics_crc": array_crc(doc_topics),
                         "components_crc": array_crc(lda.components_)})
    return {"blocks": len(blocks),
            "categories": "".join(map(str, result.categories)),
            "doc_topics_crc": array_crc(result.doc_topics),
            "restarts": restarts}


def learned_golden(corpus):
    """The learned half's golden document."""
    from repro.corpus.dataset import build_corpus

    lda_corpus = build_corpus(**LDA_CORPUS)
    return {
        "ithemal": {uarch: ithemal_golden(corpus, uarch)
                    for uarch in UARCHES},
        "lda": {"golden": lda_golden(corpus.blocks),
                "scale_0.0002_seed_0": lda_golden(lda_corpus.blocks)},
    }


def main() -> None:
    from repro.eval.validation import profile_corpus_detailed

    corpus = build_records()
    corpus_doc = {
        "seed": SEED,
        "blocks": [{"block_id": r.block_id,
                    "application": r.application,
                    "frequency": r.frequency,
                    "text": r.block.text()} for r in corpus],
    }
    with open(os.path.join(HERE, "golden_corpus.json"), "w") as fh:
        json.dump(corpus_doc, fh, indent=1)
        fh.write("\n")

    for uarch in UARCHES:
        profile = profile_corpus_detailed(corpus, uarch, seed=SEED)
        doc = {"uarch": uarch, "seed": SEED,
               "throughputs": {str(k): v
                               for k, v in profile.throughputs.items()},
               "funnel": profile.funnel}
        path = os.path.join(HERE, f"golden_profile_{uarch}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}: {profile.funnel}")

    path = os.path.join(HERE, "golden_schedules.json")
    with open(path, "w") as fh:
        dump_schedule_doc({uarch: uarch_schedules(corpus, uarch)
                           for uarch in UARCHES}, fh)
    print(f"wrote {path}")

    path = os.path.join(HERE, "golden_learned.json")
    with open(path, "w") as fh:
        json.dump(learned_golden(corpus), fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
