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


if __name__ == "__main__":
    main()
