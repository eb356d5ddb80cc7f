"""Latent Dirichlet Allocation via batch variational EM (numpy).

The paper clusters micro-ops with scikit-learn's stochastic
variational LDA (6 topics, α=1/6, β=1/13).  scikit-learn is not
available offline, so this is a from-scratch batch variational EM over
the document-term count matrix — the same model family, deterministic
given the seed.

Documents are basic blocks; terms are micro-op port combinations.

Restarts run in lockstep.  ``fit(counts, restarts=[...])`` fits
further models (other seeds, same hyperparameters) on the same counts
at once: the E-step carries a leading restart axis, with stacked
``(R, D, K) @ (R, K, V)`` products and ``digamma``, ``exp`` and row
sums along the last axis, so each restart's numbers are computed by
exactly the operations a fit of its own would run.  A restart leaves
the stack when its own ``tol`` test passes, and a single fit is the
``R = 1`` case.  Each model's initial γ (a ``seed + 1`` generator) is
drawn once per fit and reused by every outer iteration.

``scipy.special`` is imported by the first fit, not with this module:
the Table V pipeline and every Ithemal feature vector's port mapper
import ``repro.classify`` without fitting LDA.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro import telemetry


@dataclass
class LdaConfig:
    n_topics: int = 6
    #: Dirichlet prior on document-topic distributions (paper: 1/6).
    alpha: float = 1.0 / 6.0
    #: Dirichlet prior on topic-term distributions (paper: 1/13).
    beta: float = 1.0 / 13.0
    max_iter: int = 60
    #: Mean-field inner iterations per document batch.
    inner_iter: int = 25
    tol: float = 1e-3
    seed: int = 0


def _exp_elog(x: np.ndarray) -> np.ndarray:
    """exp(E[log p]) under Dirichlet(x), along the last axis."""
    from scipy.special import digamma  # scipy loads with the first fit
    return np.exp(digamma(x) - digamma(x.sum(-1, keepdims=True)))


class LatentDirichletAllocation:
    """Batch variational-EM LDA over a count matrix."""

    def __init__(self, config: Optional[LdaConfig] = None):
        self.config = config if config is not None else LdaConfig()
        self.components_: Optional[np.ndarray] = None  # (K, V)
        self._exp_elog_beta: Optional[np.ndarray] = None
        #: Outer EM iterations the last fit ran.
        self.n_iter_: Optional[int] = None

    # ------------------------------------------------------------------

    def _initial_gamma(self, n_docs: int) -> np.ndarray:
        rng = np.random.default_rng(self.config.seed + 1)
        return rng.gamma(100.0, 0.01, size=(n_docs, self.config.n_topics))

    def _e_step(self, counts: np.ndarray, exp_elog_beta: np.ndarray,
                gamma: np.ndarray, exp_elog_theta: np.ndarray) -> tuple:
        """Mean-field update of per-document topic mixtures.

        Stacked over R restarts: ``exp_elog_beta`` is (R,K,V), the
        initial ``gamma`` and its ``exp_elog_theta`` are (R,D,K).
        Returns (gamma (R,D,K), sufficient statistics (R,K,V)).
        """
        cfg = self.config
        exp_elog_beta_t = exp_elog_beta.transpose(0, 2, 1)
        for _ in range(cfg.inner_iter):
            # phi_{dvk} ∝ exp_elog_theta_{dk} * exp_elog_beta_{kv}
            norm = exp_elog_theta @ exp_elog_beta + 1e-100  # (R, D, V)
            gamma = cfg.alpha + exp_elog_theta * \
                ((counts / norm) @ exp_elog_beta_t)
            exp_elog_theta = _exp_elog(gamma)
        norm = exp_elog_theta @ exp_elog_beta + 1e-100
        stats = exp_elog_beta * \
            (exp_elog_theta.transpose(0, 2, 1) @ (counts / norm))
        return gamma, stats

    def _set_topics(self, lam: np.ndarray, n_iter: int) -> None:
        self.components_ = lam
        self._exp_elog_beta = _exp_elog(lam)
        self.n_iter_ = n_iter

    def fit(self, counts: np.ndarray,
            restarts: Sequence["LatentDirichletAllocation"] = ()
            ) -> "LatentDirichletAllocation":
        """Fit topics on a (documents × vocabulary) count matrix.

        ``restarts`` are further models, differing from this one in
        ``seed`` and ``tol`` only, fitted on the same counts in
        lockstep; every model ends exactly as a fit of its own would.
        """
        counts = np.asarray(counts, dtype=np.float64)
        cfg = self.config
        models = [self, *restarts]
        if any(replace(m.config, seed=cfg.seed, tol=cfg.tol) != cfg
               for m in restarts):
            raise ValueError("restarts may differ in seed and tol only")
        n_docs, n_vocab = counts.shape
        with telemetry.span("classify.lda", restarts=len(models)) as sp:
            lam = np.stack([
                np.random.default_rng(m.config.seed).gamma(
                    100.0, 0.01, size=(cfg.n_topics, n_vocab))
                for m in models])
            gamma = np.stack([m._initial_gamma(n_docs) for m in models])
            exp_elog_theta = _exp_elog(gamma)
            rows = list(range(len(models)))  # model of each stack row
            previous = None
            for n_iter in range(1, cfg.max_iter + 1):
                _, stats = self._e_step(counts, _exp_elog(lam), gamma,
                                        exp_elog_theta)
                lam = cfg.beta + stats
                going = []
                for r, m in enumerate(rows):
                    tol = models[m].config.tol
                    if previous is not None and \
                            np.abs(lam[r] - previous[r]).mean() < tol:
                        models[m]._set_topics(lam[r], n_iter)
                    else:
                        going.append(r)
                rows = [rows[r] for r in going]
                if not rows:
                    break
                lam, gamma, exp_elog_theta = \
                    lam[going], gamma[going], exp_elog_theta[going]
                previous = lam
            for r, m in enumerate(rows):
                models[m]._set_topics(lam[r], cfg.max_iter)
            sp.annotate(iterations=[m.n_iter_ for m in models])
        return self

    def transform(self, counts: np.ndarray) -> np.ndarray:
        """Per-document topic distributions (rows sum to 1)."""
        if self.components_ is None:
            raise RuntimeError("fit() first")
        counts = np.asarray(counts, dtype=np.float64)
        gamma = self._initial_gamma(counts.shape[0])[None]
        gamma, _ = self._e_step(counts, self._exp_elog_beta[None], gamma,
                                _exp_elog(gamma))
        return gamma[0] / gamma[0].sum(1, keepdims=True)

    def fit_transform(self, counts: np.ndarray) -> np.ndarray:
        return self.fit(counts).transform(counts)

    @property
    def topic_word_(self) -> np.ndarray:
        """Normalised topic-term distributions (K, V)."""
        if self.components_ is None:
            raise RuntimeError("fit() first")
        return self.components_ / \
            self.components_.sum(1, keepdims=True)
