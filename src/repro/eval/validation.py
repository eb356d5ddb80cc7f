"""Model validation over a profiled corpus (§V).

``validate`` is the paper's experimental core: profile every block on
one machine, train the learned model on a held-out split of the
measurements, run every predictor over the evaluation split, and
aggregate relative errors overall / per application / per category.
With ``jobs > 1`` the static models predict in forked workers while
the parent trains and runs Ithemal (docs/parallel.md, "The model half
in the pool").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.dataset import Corpus
from repro.eval import metrics
from repro.models.base import CostModel
from repro.models.ithemal import IthemalModel
from repro.parallel.forked import Forked
from repro.profiler.harness import (BasicBlockProfiler, ProfilerConfig,
                                    profile_records_detailed)
from repro.profiler.result import CorpusProfile
from repro.telemetry import core as telemetry
from repro.uarch.machine import Machine


@dataclass
class ValidationRow:
    """One successfully profiled block with its predictions."""

    block_id: int
    application: str
    frequency: int
    category: Optional[int]
    measured: float
    predictions: Dict[str, Optional[float]] = field(default_factory=dict)


@dataclass
class ValidationResult:
    """All rows for one microarchitecture."""

    uarch: str
    rows: List[ValidationRow]
    profiled_fraction: float
    model_names: List[str]

    # -- aggregations --------------------------------------------------------

    def _pairs(self, model: str, rows: Sequence[ValidationRow]):
        for row in rows:
            predicted = row.predictions.get(model)
            if predicted is not None and row.measured > 0:
                yield predicted, row.measured, row.frequency

    def overall_error(self, model: str) -> Optional[float]:
        return metrics.average_error(
            (p, m) for p, m, _ in self._pairs(model, self.rows))

    def weighted_overall_error(self, model: str) -> Optional[float]:
        return metrics.weighted_error(self._pairs(model, self.rows))

    def kendall_tau(self, model: str) -> Optional[float]:
        pairs = list(self._pairs(model, self.rows))
        return metrics.kendall_tau([p for p, _, _ in pairs],
                                   [m for _, m, _ in pairs])

    def _grouped_error(self, model: str, key, weighted: bool
                       ) -> Dict:
        groups: Dict[object, List[ValidationRow]] = {}
        for row in self.rows:
            groups.setdefault(key(row), []).append(row)
        out = {}
        for group, rows in sorted(groups.items(),
                                  key=lambda kv: str(kv[0])):
            pairs = list(self._pairs(model, rows))
            if weighted:
                out[group] = metrics.weighted_error(pairs)
            else:
                out[group] = metrics.average_error(
                    (p, m) for p, m, _ in pairs)
        return out

    def per_application_error(self, model: str,
                              weighted: bool = True) -> Dict[str, float]:
        """Figs. 5-7 weight each block by its sampled frequency."""
        return self._grouped_error(
            model, lambda r: r.application, weighted)

    def per_category_error(self, model: str,
                           weighted: bool = False) -> Dict[int, float]:
        return self._grouped_error(
            model, lambda r: r.category, weighted)

    def coverage(self, model: str) -> float:
        """Fraction of rows the model produced a prediction for."""
        if not self.rows:
            return 0.0
        ok = sum(1 for r in self.rows
                 if r.predictions.get(model) is not None)
        return ok / len(self.rows)


def profile_corpus_detailed(corpus: Corpus, uarch: str, seed: int = 0,
                            config: Optional[ProfilerConfig] = None
                            ) -> CorpusProfile:
    """Profile every block, keeping the per-reason drop breakdown."""
    profiler = BasicBlockProfiler(Machine(uarch, seed=seed), config)
    with telemetry.span("validation.profile_corpus", uarch=uarch) as sp:
        profile = profile_records_detailed(profiler, corpus)
        sp.annotate(blocks=profile.funnel["total"],
                    accepted=profile.funnel["accepted"])
    return profile


def profile_corpus(corpus: Corpus, uarch: str, seed: int = 0,
                   config: Optional[ProfilerConfig] = None
                   ) -> Dict[int, float]:
    """Measured throughput per block id (only successful blocks)."""
    return profile_corpus_detailed(corpus, uarch, seed=seed,
                                   config=config).throughputs


def _throughputs(models: Sequence[CostModel], blocks: Sequence,
                 uarch: str) -> List[Tuple[Optional[float], ...]]:
    """Each model's predicted throughputs over ``blocks``, one tuple
    per model, predicted block by block (a forked worker's task, so it
    must stay picklable)."""
    return list(zip(*([model.predict_safe(block, uarch).throughput
                       for model in models] for block in blocks)))


def _split(models: List[CostModel], jobs: int) -> List[List[CostModel]]:
    """``models`` over the workers beside the parent: all in one at
    ``jobs`` 1 or 2, else one each on at most ``jobs - 1`` workers."""
    workers = max(1, min(jobs - 1, len(models)))
    return [models[i::workers] for i in range(workers) if models[i::workers]]


def validate(corpus: Corpus, uarch: str,
             models: Sequence[CostModel],
             categories: Optional[Dict[int, int]] = None,
             seed: int = 0,
             measured: Optional[Dict[int, float]] = None,
             train_fraction: float = 0.5,
             jobs: int = 1) -> ValidationResult:
    """Run the full §V protocol on one microarchitecture.

    Learned models (those exposing ``fit``) are trained on a split of
    the measured blocks and everything is evaluated on the rest, so
    Ithemal never scores its own training data.  AVX2/FMA blocks are
    excluded on Ivy Bridge, as in the paper.

    The static models need only the block, so with ``jobs > 1`` their
    predictions run in forked workers
    (:class:`repro.parallel.forked.Forked`) while the parent fits and
    runs the learned ones.  Each prediction is a pure function of
    (model, uarch, block), so the rows are the same at any ``jobs``.
    """
    machine = Machine(uarch, seed=seed)
    records = [r for r in corpus if machine.supports(r.block)]
    if measured is None:
        measured = profile_corpus(Corpus(records), uarch, seed=seed)

    usable = [r for r in records if r.block_id in measured]
    # Interleaved split: the corpus is ordered by application, so a
    # prefix split would train and evaluate on different apps.
    if train_fraction <= 0.0:
        train, evaluate = [], usable  # pre-trained models only
    elif train_fraction >= 0.999:
        train, evaluate = usable, usable
    else:
        period = max(2, int(round(1.0 / train_fraction)))
        train = [r for i, r in enumerate(usable) if i % period != 0]
        evaluate = [r for i, r in enumerate(usable) if i % period == 0]

    # The static models (those without ``fit``) need only the block.
    blocks = [record.block for record in evaluate]
    static = [model for model in models if not hasattr(model, "fit")]
    groups = _split(static, jobs)
    forked = [Forked(_throughputs, group, blocks, uarch, jobs=jobs)
              for group in groups]

    for model in models:
        if isinstance(model, IthemalModel) and not model.is_trained(uarch):
            model.fit([r.block for r in train],
                      [measured[r.block_id] for r in train], uarch)

    with telemetry.span("validation.predict", uarch=uarch,
                        models=len(models)) as sp:
        here = [model for model in models if model not in static]
        columns = dict(zip((model.name for model in here),
                           _throughputs(here, blocks, uarch)))
        for group, pending in zip(groups, forked):
            columns.update(zip((model.name for model in group),
                               pending.result()))
        rows = [ValidationRow(
                    block_id=record.block_id,
                    application=record.application,
                    frequency=record.frequency,
                    category=(categories or {}).get(record.block_id),
                    measured=measured[record.block_id],
                    predictions={model.name: columns[model.name][i]
                                 for model in models})
                for i, record in enumerate(evaluate)]
        if rows and models:
            telemetry.count("validation.predictions",
                            len(rows) * len(models))
        sp.annotate(blocks=len(rows))

    return ValidationResult(
        uarch=uarch,
        rows=rows,
        profiled_fraction=len(usable) / max(len(records), 1),
        model_names=[m.name for m in models])
