"""Golden learned half: every Ithemal and LDA bit is pinned.

``tests/data/golden_learned.json`` holds, per uarch, Ithemal trained
through ``validate()`` on the golden corpus with the golden profile's
throughputs: the ``repr`` of every prediction and CRC-32s of the
network's weights and per-epoch training losses.  For LDA it holds
``classify_blocks`` on the golden corpus and on perfbench's first
corpus (scale 0.0002, seed 0): the categories, the chosen topics, and
each restart seed's topics fitted alone.  A rewrite of the MLP, LDA or
feature kernels that claims identity must pass here unchanged.

Intentional changes: regenerate with

    PYTHONPATH=src python tests/data/regen_golden.py
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "regen_golden", os.path.join(DATA, "regen_golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(DATA, "golden_learned.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def corpus():
    return regen.golden_corpus()


@pytest.mark.parametrize("uarch", regen.UARCHES)
def test_ithemal_matches_golden_exactly(expected, corpus, uarch):
    assert regen.ithemal_golden(corpus, uarch) == expected["ithemal"][uarch]


def test_lda_matches_golden_on_the_golden_corpus(expected, corpus):
    assert regen.lda_golden(corpus.blocks) == expected["lda"]["golden"]


def test_lda_matches_golden_on_perfbench_first_corpus(expected):
    from repro.corpus.dataset import build_corpus
    blocks = build_corpus(**regen.LDA_CORPUS).blocks
    assert regen.lda_golden(blocks) == expected["lda"]["scale_0.0002_seed_0"]


# ---------------------------------------------------------------------------
# Process stability: Ithemal must not depend on PYTHONHASHSEED
# ---------------------------------------------------------------------------

_ITHEMAL_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import regen_golden as regen
corpus = regen.golden_corpus()
print(json.dumps({u: regen.ithemal_golden(corpus, u) for u in regen.UARCHES}))
"""


def _ithemal_under_hashseed(hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.path.abspath(SRC) \
        + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _ITHEMAL_SCRIPT,
                          os.path.abspath(DATA)],
                         env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


def test_ithemal_predictions_independent_of_hash_seed(expected):
    """Each uarch's training sample is drawn from a fixed salt, not
    ``hash(uarch)``: fresh interpreters under three string-hash seeds
    train the same networks and predict the same numbers."""
    runs = {seed: _ithemal_under_hashseed(seed) for seed in ("0", "1", "7")}
    assert runs["0"] == expected["ithemal"]
    assert runs["1"] == runs["0"]
    assert runs["7"] == runs["0"]
