"""Numpy LDA: recovers planted topic structure; restarts in lockstep."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.classify.lda import LatentDirichletAllocation, LdaConfig


def planted_corpus(n_docs=300, seed=0):
    """Documents drawn from two disjoint topics."""
    rng = np.random.default_rng(seed)
    vocab = 10
    topic_a = np.zeros(vocab)
    topic_a[:5] = 0.2
    topic_b = np.zeros(vocab)
    topic_b[5:] = 0.2
    counts = np.zeros((n_docs, vocab))
    labels = []
    for d in range(n_docs):
        topic = topic_a if d % 2 == 0 else topic_b
        labels.append(d % 2)
        words = rng.choice(vocab, size=30, p=topic)
        for w in words:
            counts[d, w] += 1
    return counts, labels


class TestRecovery:
    def test_separates_planted_topics(self):
        counts, labels = planted_corpus()
        lda = LatentDirichletAllocation(LdaConfig(n_topics=2, seed=1))
        doc_topics = lda.fit_transform(counts)
        assignment = doc_topics.argmax(1)
        # All even docs in one cluster, all odd docs in the other.
        even = set(assignment[::2])
        odd = set(assignment[1::2])
        assert len(even) == 1 and len(odd) == 1 and even != odd

    def test_topic_word_distributions_disjoint(self):
        counts, _ = planted_corpus()
        lda = LatentDirichletAllocation(LdaConfig(n_topics=2, seed=1))
        lda.fit(counts)
        tw = lda.topic_word_
        top_words = {tuple(sorted(np.argsort(tw[k])[-5:]))
                     for k in range(2)}
        assert top_words == {(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)}

    def test_doc_topics_are_distributions(self):
        counts, _ = planted_corpus(n_docs=50)
        lda = LatentDirichletAllocation(LdaConfig(n_topics=3))
        doc_topics = lda.fit_transform(counts)
        assert np.allclose(doc_topics.sum(1), 1.0)
        assert (doc_topics >= 0).all()

    def test_deterministic_given_seed(self):
        counts, _ = planted_corpus(n_docs=60)
        a = LatentDirichletAllocation(LdaConfig(seed=3)) \
            .fit_transform(counts)
        b = LatentDirichletAllocation(LdaConfig(seed=3)) \
            .fit_transform(counts)
        assert np.allclose(a, b)

    def test_paper_hyperparameters(self):
        config = LdaConfig()
        assert config.n_topics == 6
        assert config.alpha == pytest.approx(1 / 6)
        assert config.beta == pytest.approx(1 / 13)

    def test_transform_before_fit_raises(self):
        lda = LatentDirichletAllocation()
        with pytest.raises(RuntimeError):
            lda.transform(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Restarts in lockstep: a model fitted with siblings is the model alone
# ---------------------------------------------------------------------------

#: 0 never converges; at 0.3 restarts of one corpus stop at different
#: outer iterations, so the stack sheds rows mid-fit.
TOLS = (0.0, 1e-3, 0.1, 0.3)


@st.composite
def lockstep_cases(draw):
    """A count matrix and 1-4 configs differing in seed and tol."""
    n_docs = draw(st.integers(2, 40))
    n_vocab = draw(st.integers(2, 15))
    rate = draw(st.sampled_from((0.3, 1.0, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    counts = rng.poisson(rate, size=(n_docs, n_vocab)).astype(np.float64)
    base = LdaConfig(n_topics=draw(st.integers(2, 6)),
                     max_iter=draw(st.integers(0, 30)),
                     inner_iter=draw(st.integers(0, 10)))
    seeds = draw(st.lists(st.integers(0, 10_000), min_size=1,
                          max_size=4, unique=True))
    return counts, [replace(base, seed=seed,
                            tol=draw(st.sampled_from(TOLS)))
                    for seed in seeds]


def fit_in_lockstep(counts, configs):
    models = [LatentDirichletAllocation(c) for c in configs]
    models[0].fit(counts, restarts=models[1:])
    return models


def assert_same_bytes(a, b, counts):
    assert a.n_iter_ == b.n_iter_
    assert a.components_.tobytes() == b.components_.tobytes()
    assert a._exp_elog_beta.tobytes() == b._exp_elog_beta.tobytes()
    assert a.transform(counts).tobytes() == b.transform(counts).tobytes()


class TestLockstepRestarts:
    @settings(max_examples=40, deadline=None)
    @given(lockstep_cases())
    def test_fitted_with_siblings_equals_fitted_alone(self, case):
        counts, configs = case
        for model, config in zip(fit_in_lockstep(counts, configs),
                                 configs):
            alone = LatentDirichletAllocation(config).fit(counts)
            assert_same_bytes(model, alone, counts)

    def test_restarts_leave_the_stack_at_their_own_iteration(self):
        counts, _ = planted_corpus(n_docs=10)
        configs = [LdaConfig(n_topics=3, seed=seed, tol=0.3, max_iter=20,
                             inner_iter=5) for seed in (0, 1, 2, 3)]
        models = fit_in_lockstep(counts, configs)
        assert len({m.n_iter_ for m in models}) > 1
        for model, config in zip(models, configs):
            assert_same_bytes(
                model, LatentDirichletAllocation(config).fit(counts),
                counts)

    def test_zero_tol_runs_every_iteration(self):
        counts, _ = planted_corpus(n_docs=12)
        models = fit_in_lockstep(counts, [LdaConfig(seed=s, tol=0.0,
                                                    max_iter=7)
                                          for s in (0, 1)])
        assert [m.n_iter_ for m in models] == [7, 7]

    def test_restarts_must_share_hyperparameters(self):
        counts, _ = planted_corpus(n_docs=8)
        other = LatentDirichletAllocation(LdaConfig(n_topics=3))
        with pytest.raises(ValueError):
            LatentDirichletAllocation(LdaConfig()).fit(counts,
                                                       restarts=[other])

    def test_fit_span_reports_restarts_and_iterations(self):
        from repro.telemetry import MemorySink
        counts, _ = planted_corpus(n_docs=12)
        sink = MemorySink()
        telemetry.reset()
        telemetry.enable(sink)
        try:
            models = fit_in_lockstep(
                counts, [LdaConfig(seed=s, max_iter=5) for s in (0, 1, 2)])
        finally:
            telemetry.reset()
        span, = [r for r in sink.records if r["name"] == "classify.lda"]
        assert span["restarts"] == 3
        assert span["iterations"] == [m.n_iter_ for m in models]
