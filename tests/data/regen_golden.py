"""Regenerate the golden regression corpus and its expected profiles.

Run from the repo root **only when simulator timing is intentionally
changed**::

    PYTHONPATH=src python tests/data/regen_golden.py

and commit the rewritten ``golden_corpus.json`` /
``golden_profile_<uarch>.json`` together with the change that moved
the numbers, explaining the drift in the commit message.  The guard
test (``tests/parallel/test_golden.py``) exists precisely so that
timing drift cannot land silently.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

#: Frozen inputs: a small mixed corpus (scalar, memory, vector and
#: division blocks) profiled on every modelled uarch.
APPS = (("llvm", 10), ("openblas", 6), ("gzip", 6))
SEED = 11
UARCHES = ("ivybridge", "haswell", "skylake")

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

#: Triage fixture shape: a mixed corpus for the triage differential
#: suite (``tests/triage``).  The ``cached`` role re-derives a subset
#: of the golden corpus (same apps, same seed — so a cold triage run
#: over it journals exactly those measurements), the ``novel`` role
#: draws from a disjoint seed, so a warm run over the mixed corpus
#: must revalidate the former and fall through to full simulation for
#: the latter.
TRIAGE_CACHED_APPS = (("llvm", 10), ("openblas", 6))
TRIAGE_NOVEL_APPS = (("llvm", 6), ("gzip", 4))
TRIAGE_NOVEL_SEED = 23


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


def build_triage_records():
    """The mixed novel/cached corpus behind ``golden_triage.json``.

    Novel blocks whose text collides with a cached block (the
    generators can repeat a popular idiom across seeds) are re-labelled
    ``cached`` — the triage store is content-addressed, so a repeated
    text legitimately revalidates no matter which role produced it.
    """
    from repro.corpus.dataset import BlockRecord, Corpus, \
        build_application
    records = []
    cached_texts = set()
    for app, count in TRIAGE_CACHED_APPS:
        for record in build_application(app, count=count, seed=SEED):
            cached_texts.add(record.block.text())
            records.append((BlockRecord(
                block=record.block, application=app,
                frequency=record.frequency,
                block_id=len(records)), "cached"))
    for app, count in TRIAGE_NOVEL_APPS:
        for record in build_application(app, count=count,
                                        seed=TRIAGE_NOVEL_SEED):
            role = "cached" if record.block.text() in cached_texts \
                else "novel"
            records.append((BlockRecord(
                block=record.block, application=app,
                frequency=record.frequency,
                block_id=len(records)), role))
    return Corpus([r for r, _ in records]), [role for _, role in records]


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

    triage_corpus, roles = build_triage_records()
    triage_doc = {
        "seed": SEED,
        "novel_seed": TRIAGE_NOVEL_SEED,
        "blocks": [{"block_id": r.block_id,
                    "application": r.application,
                    "frequency": r.frequency,
                    "role": role,
                    "text": r.block.text()}
                   for r, role in zip(triage_corpus, roles)],
    }
    with open(os.path.join(HERE, "golden_triage.json"), "w") as fh:
        json.dump(triage_doc, fh, indent=1)
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


if __name__ == "__main__":
    main()
