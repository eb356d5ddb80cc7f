"""What importing and profiling load, checked in fresh interpreters.

The evaluation stack needs scipy only for LDA's ``digamma``, and
imports it with LDA's first fit: importing the pipeline or the
classifier, and a whole Table V run, which reads no category, load no
scipy at all.  Kendall's tau and the topic-to-label assignment are
computed in the repo, so ``scipy.stats`` and ``scipy.optimize``, which
would dominate start-up time and memory, stay unloaded even then.  The
profiling path (``repro.parallel`` and the profiler under it, which
``repro serve`` and ``repro corpus`` run, result store included) needs
no evaluation code, numpy or scipy at all.  No timing is asserted, only
which modules a fresh interpreter ends up holding.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

_PROFILE_TWO_BLOCKS = """
from repro.corpus.dataset import BlockRecord, Corpus
from repro.isa.parser import parse_block
from repro.parallel import profile_corpus_sharded

blocks = [parse_block("add $1, %rdi\\ncmp %rcx, %rdi"),
          parse_block("imul %rbx, %rax")]
corpus = Corpus([BlockRecord(block=b, application="probe", frequency=1,
                             block_id=i) for i, b in enumerate(blocks)])
profile = profile_corpus_sharded(corpus, "haswell", jobs=1)
assert profile.funnel["total"] == 2, profile.funnel
"""


def _loaded(script: str, modules, tmp_path) -> dict:
    """Run ``script`` in a fresh interpreter; which ``modules`` it holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env["REPRO_CACHE"] = str(tmp_path / "cache")
    report = ("\nimport json, sys\nprint(json.dumps({m: m in sys.modules "
              f"for m in {list(modules)!r}}}))\n")
    out = subprocess.run([sys.executable, "-c", script + report],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


_TABLE_V = """
from repro import telemetry
from repro.eval.pipeline import UARCHES, Experiment
from repro.telemetry.core import MemorySink

sink = MemorySink()
telemetry.enable(sink)
exp = Experiment(scale=0.0001, seed=0, jobs={jobs})
assert all(exp.validation(uarch).rows for uarch in UARCHES)
spans = {{record.get("name") for record in sink.records}}
assert "experiment.validate" in spans, spans
assert not spans & {{"experiment.classify", "classify.lda"}}, spans
"""

_CLASSIFY_TWO_BLOCKS = """
import sys
from repro.classify import classify_blocks
from repro.isa.parser import parse_block

assert "scipy" not in sys.modules
result = classify_blocks([parse_block("add $1, %rdi\\ncmp %rcx, %rdi"),
                          parse_block("imul %rbx, %rax")])
assert len(result.categories) == 2
"""


@pytest.mark.parametrize("module", ["repro.eval.pipeline",
                                    "repro.classify",
                                    "repro.classify.lda"])
def test_pipeline_and_classifier_imports_load_no_scipy(module, tmp_path):
    loaded = _loaded(f"import {module}", (module, "scipy"), tmp_path)
    assert loaded == {module: True, "scipy": False}


@pytest.mark.parametrize("jobs", [1, 2])
def test_table_v_loads_no_scipy_and_classifies_nothing(jobs, tmp_path):
    loaded = _loaded(_TABLE_V.format(jobs=jobs), ("scipy",), tmp_path)
    assert loaded == {"scipy": False}


def test_the_first_lda_fit_loads_scipy_special(tmp_path):
    loaded = _loaded(_CLASSIFY_TWO_BLOCKS,
                     ("scipy.special", "scipy.stats", "scipy.optimize"),
                     tmp_path)
    assert loaded == {"scipy.special": True, "scipy.stats": False,
                      "scipy.optimize": False}


_FIT_SEES_SCIPY = """
import sys
from repro.classify import LatentDirichletAllocation, classify_blocks
from repro.isa.parser import parse_block

assert "scipy" not in sys.modules
seen = []
fit = LatentDirichletAllocation.fit


def recording_fit(self, *args, **kwargs):
    seen.append("scipy.special" in sys.modules)
    return fit(self, *args, **kwargs)


LatentDirichletAllocation.fit = recording_fit
classify_blocks([parse_block("add $1, %rdi\\ncmp %rcx, %rdi"),
                 parse_block("imul %rbx, %rax")])
assert seen == [True], seen
"""


def test_classify_blocks_loads_scipy_special_before_the_fit(tmp_path):
    # The fit's ``classify.lda`` span (and a tracer's wrapper of
    # ``fit``) then times LDA, not scipy's import.
    loaded = _loaded(_FIT_SEES_SCIPY, ("scipy.special",), tmp_path)
    assert loaded == {"scipy.special": True}


def test_pipeline_import_leaves_scipy_stats_and_optimize_out(tmp_path):
    loaded = _loaded("import repro.eval.pipeline",
                     ("scipy.stats", "scipy.optimize"), tmp_path)
    assert loaded == {"scipy.stats": False, "scipy.optimize": False}


def test_profiling_path_loads_no_eval_numpy_or_scipy(tmp_path):
    loaded = _loaded(_PROFILE_TWO_BLOCKS,
                     ("repro.parallel", "repro.eval", "numpy", "scipy"),
                     tmp_path)
    assert loaded == {"repro.parallel": True, "repro.eval": False,
                      "numpy": False, "scipy": False}


def test_corpus_measure_loads_no_eval_or_scipy(tmp_path):
    # The command measures through the result store, which must not
    # live where the evaluation stack does.  (Corpus synthesis loads
    # numpy, through ``repro.models``.)
    script = ("from repro import cli\n"
              "assert cli.main(['corpus', '--scale', '0.0001', "
              "'--measure', '--jobs', '1', '--out', 'suite.csv']) == 0\n")
    loaded = _loaded(script, ("repro.parallel", "repro.eval", "scipy"),
                     tmp_path)
    assert loaded == {"repro.parallel": True, "repro.eval": False,
                      "scipy": False}
    assert os.listdir(tmp_path / "cache") == ["results_0"]


def test_the_store_through_the_pipeline_loads_eval_but_not_scipy(
        tmp_path):
    loaded = _loaded("from repro.eval.pipeline import result_store\n"
                     "result_store(0)", ("repro.eval", "scipy"), tmp_path)
    assert loaded == {"repro.eval": True, "scipy": False}


@pytest.mark.parametrize("first, second", [
    ("repro.parallel", "repro.eval"),
    ("repro.eval", "repro.parallel"),
])
def test_parallel_and_eval_import_in_either_order(first, second,
                                                  tmp_path):
    loaded = _loaded(f"import {first}\nimport {second}",
                     (first, second), tmp_path)
    assert all(loaded.values())
