"""End-to-end experiment pipeline with caching.

Every bench and example needs the same expensive artefacts: a corpus,
its classification, per-uarch ground-truth measurements, and model
predictions.  ``Experiment`` builds them once per (scale, seed) —
memoised in-process and, for the measurements (the slow part, ~20 ms a
block), on disk in the result store under ``.cache/``, keyed by
(uarch, block text), so repeated bench runs are fast and edits to the
generators invalidate cleanly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry import profiling
from repro.classify.categories import ClassifierResult, classify_blocks
from repro.corpus.dataset import Corpus, build_corpus, build_google_corpus
from repro.eval.validation import ValidationResult, validate
from repro.models.base import CostModel
from repro.models.iaca import IacaModel
from repro.models.ithemal import IthemalModel
from repro.models.llvm_mca import LlvmMcaModel
from repro.models.osaca import OsacaModel
from repro.parallel import DEFAULT_SHARD_SIZE, profile_corpus_sharded
from repro.parallel.shard_cache import result_store


def _env(name: str, default: str) -> str:
    """``name``'s value, or ``default`` when it is unset or blank (as
    ``repro.parallel.default_jobs`` reads ``REPRO_JOBS``)."""
    return os.environ.get(name, "").strip() or default


#: Default scale for benches: 1/250 of the paper's 358k blocks.
DEFAULT_SCALE = float(_env("REPRO_SCALE", "0.004"))
DEFAULT_SEED = int(_env("REPRO_SEED", "0"))
#: Worker processes for measurement.  1 (fully serial) unless
#: ``REPRO_JOBS`` says otherwise; the CLI defaults to every core
#: instead (see ``repro.parallel.default_jobs``).
DEFAULT_JOBS = max(1, int(_env("REPRO_JOBS", "1")))
SHARD_SIZE = max(1, int(_env("REPRO_SHARD_SIZE", str(DEFAULT_SHARD_SIZE))))

UARCHES = ("ivybridge", "haswell", "skylake")


@dataclass
class Experiment:
    """Shared lazy artefacts for one (scale, seed) configuration."""

    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    #: Worker processes for :meth:`measured` (1 = serial in-process).
    jobs: int = DEFAULT_JOBS
    shard_size: int = SHARD_SIZE
    #: The uarches this experiment will measure.  A :meth:`measured` of
    #: the main corpus, serial or pooled, times each block it profiles
    #: on the ones not yet measured as well and stores those results
    #: for their own rows, so each block is mapped and priced once
    #: (docs/performance.md).
    uarches: Tuple[str, ...] = UARCHES
    _corpus: Optional[Corpus] = field(default=None, repr=False)
    _classification: Optional[ClassifierResult] = field(default=None,
                                                        repr=False)
    _categories: Optional[Dict[int, int]] = field(default=None,
                                                  repr=False)
    _measured: Dict[str, Dict[int, float]] = field(default_factory=dict,
                                                   repr=False)
    _funnels: Dict[str, Dict] = field(default_factory=dict, repr=False)
    _infos: Dict[str, Dict] = field(default_factory=dict, repr=False)
    _validations: Dict[str, ValidationResult] = field(
        default_factory=dict, repr=False)
    _models: Optional[List[CostModel]] = field(default=None, repr=False)
    _google: Optional[Dict[str, Corpus]] = field(default=None, repr=False)

    # ------------------------------------------------------------------

    @property
    def corpus(self) -> Corpus:
        if self._corpus is None:
            with profiling.phase("corpus_build"), \
                    telemetry.span("experiment.corpus_build",
                                   scale=self.scale,
                                   seed=self.seed) as sp:
                self._corpus = build_corpus(scale=self.scale,
                                            seed=self.seed)
                sp.annotate(blocks=len(self._corpus))
            telemetry.set_gauge("experiment.corpus_size",
                                len(self._corpus))
        return self._corpus

    @property
    def google_corpora(self) -> Dict[str, Corpus]:
        if self._google is None:
            with telemetry.span("experiment.google_corpus_build"):
                self._google = build_google_corpus(scale=self.scale,
                                                   seed=self.seed)
        return self._google

    @property
    def classification(self) -> ClassifierResult:
        """LDA categories of the corpus, fitted in process on the
        first read."""
        if self._classification is None:
            with profiling.phase("classify"), \
                    telemetry.span("experiment.classify") as sp:
                self._classification = classify_blocks(self.corpus.blocks)
                sp.annotate(blocks=len(self.corpus))
        return self._classification

    @property
    def categories(self) -> Dict[int, int]:
        """Block id -> Table IV category, for
        :meth:`ValidationResult.per_category_error`.  Only its readers
        pay for LDA: no Table V row depends on a category."""
        if self._categories is None:
            self._categories = {
                record.block_id: category for record, category in
                zip(self.corpus.records, self.classification.categories)}
        return self._categories

    @property
    def models(self) -> List[CostModel]:
        """The paper's four predictors (Ithemal trained lazily)."""
        if self._models is None:
            self._models = [IacaModel(), LlvmMcaModel(), IthemalModel(),
                            OsacaModel()]
        return self._models

    # ------------------------------------------------------------------

    def measured(self, uarch: str,
                 corpus: Optional[Corpus] = None,
                 tag: str = "main",
                 jobs: Optional[int] = None) -> Dict[int, float]:
        """Ground-truth throughputs (disk-cached, optionally parallel).

        Measurement goes through the sharded engine regardless of
        ``jobs``: the corpus is split into deterministic shards, blocks
        the result store already holds are read, and only the rest are
        profiled — serially in-process for ``jobs=1``, across a worker
        pool otherwise.  Serial and parallel runs are bit-identical
        (``tests/parallel/test_determinism.py``), and so is a run
        killed and started again: what it stored are hits.

        A call on the main corpus, at any ``jobs``, times each block it
        profiles on every declared uarch (:attr:`uarches`) not yet
        measured as well, and the store keeps those results until that
        uarch's own call reads them.
        """
        key = f"{tag}:{uarch}"
        if key in self._measured:
            return self._measured[key]
        corpus = corpus if corpus is not None else self.corpus
        jobs = self.jobs if jobs is None else max(1, jobs)
        store = result_store(self.seed)
        siblings: Tuple[str, ...] = ()
        if tag == "main":
            siblings = tuple(u for u in self.uarches if u != uarch
                             and f"main:{u}" not in self._measured)
        with profiling.phase(f"measure:{key}"), \
                telemetry.span("experiment.measure", uarch=uarch,
                               tag=tag, jobs=jobs) as sp:
            stats: Dict = {}
            profile = profile_corpus_sharded(
                corpus, uarch, seed=self.seed, jobs=jobs,
                shard_size=self.shard_size, cache=store, stats=stats,
                run_label=key, siblings=siblings)
            sp.annotate(sibling_runs=stats["sibling_runs"],
                        store_hits=stats["hits"])
            if stats["profiled"] or stats["failed"]:
                telemetry.count("cache.misses")
                telemetry.count("cache.writes", stats["written"])
                telemetry.event("cache.miss", path=store.directory,
                                tag=tag, uarch=uarch,
                                shards=stats["shards"],
                                cache_hits=stats["cache_hits"])
                sp.annotate(cache="miss", **stats)
            else:
                telemetry.count("cache.hits")
                telemetry.event("cache.hit", path=store.directory,
                                tag=tag, uarch=uarch,
                                shards=stats["shards"])
                sp.annotate(cache="hit")
        self._measured[key] = profile.throughputs
        self._funnels[key] = profile.funnel
        self._infos[key] = profile.info
        return profile.throughputs

    def funnel(self, uarch: str, tag: str = "main") -> Optional[Dict]:
        """Accept/drop breakdown recorded with the measurements.

        ``None`` until :meth:`measured` has run.
        """
        return self._funnels.get(f"{tag}:{uarch}")

    def info(self, uarch: str, tag: str = "main") -> Optional[Dict]:
        """Informational per-run tallies (e.g. fast-path usage).

        ``None`` until :meth:`measured` has run.  Unlike the funnel,
        these never affect accepted/dropped accounting.
        """
        return self._infos.get(f"{tag}:{uarch}")

    def validation(self, uarch: str) -> ValidationResult:
        """Full §V validation for one microarchitecture (cached).

        With telemetry enabled, each fresh validation also writes a
        run report (``reports/run_validation_<uarch>.{json,txt}``)
        covering stage timings, cache behaviour, and the coverage
        funnel.

        With ``jobs > 1`` the static models predict in a forked worker
        while the parent trains Ithemal (docs/parallel.md, "The model
        half in the pool").  No row reads a category, so this fits no
        LDA (:attr:`categories`).
        """
        if uarch not in self._validations:
            with profiling.phase(f"validate:{uarch}"), \
                    telemetry.span("experiment.validate", uarch=uarch):
                self._validations[uarch] = validate(
                    self.corpus, uarch, self.models, self.measured(uarch),
                    jobs=self.jobs)
            if telemetry.is_enabled():
                self.write_run_report(uarch)
        return self._validations[uarch]

    def write_run_report(self, uarch: str,
                         directory: Optional[str] = None) -> Dict:
        """Emit the telemetry run report for one validation run."""
        funnel = self.funnel(uarch)
        info = self.info(uarch)
        if funnel is not None and info:
            # Attach at report-build time only: the stored funnel stays
            # byte-identical whether the fast path ran or not.
            funnel = {**funnel, "info": dict(info)}
        report = telemetry.build_run_report(
            telemetry.registry(), name=f"run_validation_{uarch}",
            meta={"uarch": uarch, "scale": self.scale,
                  "seed": self.seed, "corpus_size": len(self.corpus)},
            funnel=funnel)
        telemetry.write_run_report(report, directory)
        return report

    def validations(self, uarches: Sequence[str] = UARCHES
                    ) -> Dict[str, ValidationResult]:
        return {uarch: self.validation(uarch) for uarch in uarches}

    def google_validation(self, app: str,
                          uarch: str = "haswell") -> ValidationResult:
        """§V case study: validate models on Spanner/Dremel blocks.

        Like the paper, the models arrive pre-built (Ithemal trained on
        the main suite's measurements) and are evaluated on the
        production application's most frequently executed blocks.
        OSACA is excluded ("due to licensing issues").
        """
        self.validation(uarch)  # ensures Ithemal is trained
        corpus = self.google_corpora[app]
        models = [m for m in self.models if m.name != "OSACA"]
        return validate(corpus, uarch, models,
                        self.measured(uarch, corpus=corpus, tag=app),
                        train_fraction=0.0, jobs=self.jobs)


@lru_cache(maxsize=4)
def default_experiment(scale: float = DEFAULT_SCALE,
                       seed: int = DEFAULT_SEED) -> Experiment:
    """Process-wide shared experiment (what the benches use)."""
    return Experiment(scale=scale, seed=seed)
