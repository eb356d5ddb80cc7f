"""End-to-end experiment pipeline with caching.

Every bench and example needs the same expensive artefacts: a corpus,
its classification, per-uarch ground-truth measurements, and model
predictions.  ``Experiment`` builds them once per (scale, seed) —
memoised in-process and, for the measurements (the slow part, ~20 ms a
block), on disk under ``.cache/`` keyed by a corpus content hash so
repeated bench runs are fast and edits to the generators invalidate
cleanly.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry import profiling
from repro.classify.categories import ClassifierResult, classify_blocks
from repro.corpus.dataset import Corpus, build_corpus, build_google_corpus
from repro.eval.validation import (CorpusProfile, ValidationResult,
                                   validate)
from repro.models.base import CostModel
from repro.models.iaca import IacaModel
from repro.models.ithemal import IthemalModel
from repro.models.llvm_mca import LlvmMcaModel
from repro.models.osaca import OsacaModel
from repro.parallel import (DEFAULT_SHARD_SIZE, ShardCache,
                            profile_corpus_sharded, shard_corpus)
from repro.profiler.result import ProfileResult
from repro.resilience import JOURNAL_NAME, RunJournal
from repro.resilience import policy as resilience


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


def _cache_dir() -> str:
    root = os.environ.get("REPRO_CACHE",
                          os.path.join(os.path.dirname(__file__),
                                       "..", "..", "..", ".cache"))
    path = os.path.abspath(root)
    os.makedirs(path, exist_ok=True)
    return path


def _corpus_digest(corpus: Corpus) -> int:
    """Process-stable content digest of a whole corpus.

    Cache keys must agree across worker processes and interpreter
    restarts, so this is CRC-32 over block texts — **never** builtin
    ``hash()``, whose string hashing is randomised per process by
    ``PYTHONHASHSEED``.  ``tests/parallel/test_sharding_properties.py``
    pins this by recomputing digests under different hash seeds.
    """
    crc = 0
    for record in corpus:
        crc = zlib.crc32(record.block.text().encode(), crc)
    return crc


#: Measurement-cache schema history.  v3 (the current format, managed
#: by :class:`repro.parallel.ShardCache`) stores one file per corpus
#: shard keyed by content digest, which makes invalidation incremental:
#: growing the corpus only profiles new/changed shards.  v2 was a
#: monolithic ``{version, throughputs, funnel}`` file; v1 a bare
#: ``{block_id: throughput}`` mapping.  Both legacy formats are
#: migrated on load (``ShardCache.import_v2``).
CACHE_VERSION = 3
LEGACY_CACHE_VERSION = 2


def _load_cache(path: str) -> Optional[CorpusProfile]:
    """Load a legacy (v1/v2) monolithic cache file.

    Defensive like the v3 loader: a truncated, garbage, or
    wrong-schema file reads as ``None`` (and is quarantined next to
    the file, or raises under ``--strict``) instead of crashing the
    run that merely tried to migrate it.
    """
    def reject(reason: str) -> None:
        resilience.quarantine_or_raise(
            f"corrupt legacy cache file {os.path.basename(path)}",
            reason)
        quarantine = os.path.join(os.path.dirname(path), "quarantine")
        os.makedirs(quarantine, exist_ok=True)
        try:
            os.replace(path, os.path.join(quarantine,
                                          os.path.basename(path)))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        telemetry.count("resilience.quarantined.cache_files")
        telemetry.event("resilience.cache_file_quarantined",
                        file=os.path.basename(path), reason=reason)

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError:
        return None  # raced away; treat as absent
    except ValueError:
        reject("undecodable JSON")
        return None
    try:
        if isinstance(doc, dict) and "version" in doc:
            throughputs = {int(k): float(v)
                           for k, v in doc["throughputs"].items()}
            funnel = doc.get("funnel") or CorpusProfile.empty_funnel()
            if not isinstance(funnel, dict):
                raise ValueError("funnel is not a mapping")
        elif isinstance(doc, dict):  # legacy v1 payload
            throughputs = {int(k): float(v) for k, v in doc.items()}
            funnel = CorpusProfile.empty_funnel()
        else:
            raise TypeError("payload is not a mapping")
    except (TypeError, ValueError, KeyError, AttributeError):
        reject("wrong schema")
        return None
    return CorpusProfile(throughputs=throughputs, funnel=funnel)


def _store_cache(path: str, profile: CorpusProfile) -> None:
    """Write a monolithic v2 file (kept for migration tests/tools)."""
    payload = {"version": LEGACY_CACHE_VERSION,
               "throughputs": profile.throughputs,
               "funnel": profile.funnel}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _legacy_cache_path(tag: str, uarch: str, seed: int,
                       digest: int) -> str:
    """Where pre-v3 runs stored the whole-corpus measurement file."""
    return os.path.join(
        _cache_dir(), f"measured_{tag}_{uarch}_{seed}_{digest:08x}.json")


def _shard_cache_dir(tag: str, uarch: str, seed: int) -> str:
    """v3 layout: one directory per (tag, uarch, seed), shared by
    every corpus content — shard files inside are digest-keyed."""
    return os.path.join(_cache_dir(),
                        f"measured_v3_{tag}_{uarch}_{seed}")


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
    #: on the ones not yet measured as well, so each block is mapped
    #: and priced once (docs/performance.md).
    uarches: Tuple[str, ...] = UARCHES
    _corpus: Optional[Corpus] = field(default=None, repr=False)
    _classification: Optional[ClassifierResult] = field(default=None,
                                                        repr=False)
    _measured: Dict[str, Dict[int, float]] = field(default_factory=dict,
                                                   repr=False)
    _funnels: Dict[str, Dict] = field(default_factory=dict, repr=False)
    _infos: Dict[str, Dict] = field(default_factory=dict, repr=False)
    _validations: Dict[str, ValidationResult] = field(
        default_factory=dict, repr=False)
    _models: Optional[List[CostModel]] = field(default=None, repr=False)
    _google: Optional[Dict[str, Corpus]] = field(default=None, repr=False)
    #: (uarch, block text) -> a result profiled alongside another
    #: uarch, in this process or in a pool worker, waiting for that
    #: uarch's own :meth:`measured` call.
    _sibling_table: Dict[Tuple[str, str], ProfileResult] = field(
        default_factory=dict, repr=False)

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
        if self._classification is None:
            with profiling.phase("classify"), \
                    telemetry.span("experiment.classify") as sp:
                self._classification = classify_blocks(self.corpus.blocks)
                sp.annotate(blocks=len(self.corpus))
        return self._classification

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
        ``jobs``: the corpus is split into deterministic shards, shards
        already in the v3 cache are loaded, and only the rest are
        profiled — serially in-process for ``jobs=1``, across a worker
        pool otherwise.  Serial and parallel runs are bit-identical
        (``tests/parallel/test_determinism.py``).  A legacy monolithic
        (v1/v2) cache file for this exact corpus is migrated into
        per-shard entries on first load.

        A call on the main corpus, at any ``jobs``, times each block it
        profiles on every declared uarch (:attr:`uarches`) not yet
        measured as well; pool workers send those results back with
        their shards.  They wait in the experiment until that uarch's
        own call takes them, and are dropped once it returns.
        """
        key = f"{tag}:{uarch}"
        if key in self._measured:
            return self._measured[key]
        corpus = corpus if corpus is not None else self.corpus
        jobs = self.jobs if jobs is None else max(1, jobs)
        digest = _corpus_digest(corpus)
        cache = ShardCache(_shard_cache_dir(tag, uarch, self.seed))
        shards = shard_corpus(corpus, self.shard_size)
        legacy = _legacy_cache_path(tag, uarch, self.seed, digest)
        if os.path.exists(legacy) \
                and any(s not in cache for s in shards):
            self._import_legacy(legacy, corpus, shards, cache)
        # Always-on run journal, co-located with the shard cache: a
        # run killed at any point resumes from its completed shards
        # (verified by checksum) on the next call with the same
        # (corpus, uarch, seed).
        journal = RunJournal(os.path.join(cache.directory,
                                          JOURNAL_NAME))
        siblings: Tuple[str, ...] = ()
        table: Dict[Tuple[str, str], ProfileResult] = {}
        if tag == "main":
            table = self._sibling_table
            siblings = tuple(u for u in self.uarches if u != uarch
                             and f"main:{u}" not in self._measured)
        waiting = sum(1 for u, _ in table if u == uarch)
        others = len(table) - waiting
        with profiling.phase(f"measure:{key}"), \
                telemetry.span("experiment.measure", uarch=uarch,
                               tag=tag, jobs=jobs) as sp:
            stats: Dict = {}
            profile = profile_corpus_sharded(
                corpus, uarch, seed=self.seed, jobs=jobs,
                shards=shards, cache=cache, journal=journal,
                stats=stats, run_label=key, siblings=siblings,
                table=table if siblings or waiting else None)
            # Results still left for this uarch (say, its shards came
            # from the store) would never be taken now.
            left = [k for k in table if k[0] == uarch]
            for k in left:
                del table[k]
            sp.annotate(sibling_runs=len(table) - others,
                        sibling_hits=waiting - len(left))
            if stats["profiled"] or stats["failed"]:
                telemetry.count("cache.misses")
                telemetry.count("cache.writes", stats["written"])
                telemetry.event("cache.miss", path=cache.directory,
                                tag=tag, uarch=uarch,
                                shards=stats["shards"],
                                cache_hits=stats["cache_hits"])
                sp.annotate(cache="miss", **stats)
            else:
                telemetry.count("cache.hits")
                telemetry.event("cache.hit", path=cache.directory,
                                tag=tag, uarch=uarch,
                                shards=stats["shards"])
                sp.annotate(cache="hit")
        self._measured[key] = profile.throughputs
        self._funnels[key] = profile.funnel
        self._infos[key] = profile.info
        return profile.throughputs

    @staticmethod
    def _import_legacy(path: str, corpus: Corpus, shards,
                       cache: ShardCache) -> None:
        """Merge-on-load: split a v1/v2 file into v3 shard entries."""
        profile = _load_cache(path)
        if profile is None:
            return  # corrupt legacy file was quarantined; re-profile
        if not profile.funnel.get("total"):
            # Pre-telemetry (v1) cache: the per-reason breakdown is
            # gone, but coverage must still account for every block.
            accepted = sum(1 for r in corpus
                           if r.block_id in profile.throughputs)
            dropped = len(corpus) - accepted
            profile.funnel = {
                "total": len(corpus), "accepted": accepted,
                "dropped": {"unknown_pre_telemetry_cache":
                            dropped} if dropped else {}}
        imported = cache.import_v2(shards, profile)
        telemetry.count("cache.legacy_imports", imported)
        telemetry.event("cache.legacy_import", path=path,
                        shards=imported)

    def funnel(self, uarch: str, tag: str = "main") -> Optional[Dict]:
        """Accept/drop breakdown recorded with the measurements.

        ``None`` until :meth:`measured` has run.  Measurements loaded
        from a legacy v1 cache file (which predates funnel recording)
        get a synthesised funnel whose drops are lumped under
        ``unknown_pre_telemetry_cache``.
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
        """
        if uarch not in self._validations:
            with profiling.phase(f"validate:{uarch}"), \
                    telemetry.span("experiment.validate", uarch=uarch):
                categories = {
                    record.block_id: category
                    for record, category in
                    zip(self.corpus.records,
                        self.classification.categories)
                }
                self._validations[uarch] = validate(
                    self.corpus, uarch, self.models,
                    categories=categories, seed=self.seed,
                    measured=self.measured(uarch))
            if telemetry.is_enabled():
                self.write_run_report(uarch)
        return self._validations[uarch]

    def write_run_report(self, uarch: str,
                         directory: Optional[str] = None) -> Dict:
        """Emit the telemetry run report for one validation run."""
        funnel = self.funnel(uarch)
        if funnel is not None and not funnel.get("total"):
            funnel = None  # legacy cache: fall back to live counters
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
        return validate(corpus, uarch, models, seed=self.seed,
                        measured=self.measured(uarch, corpus=corpus,
                                               tag=app),
                        train_fraction=0.0)


@lru_cache(maxsize=4)
def default_experiment(scale: float = DEFAULT_SCALE,
                       seed: int = DEFAULT_SEED) -> Experiment:
    """Process-wide shared experiment (what the benches use)."""
    return Experiment(scale=scale, seed=seed)
