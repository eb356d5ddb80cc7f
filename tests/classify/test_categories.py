"""Port mapping and block categorisation."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.classify import (CATEGORY_LABELS, PortMapper,
                            category_shares_by_app, classify_blocks)
from repro.classify import categories
from repro.corpus import build_corpus
from repro.isa.parser import parse_block, parse_instruction


def _scipy_labels(score):
    """Label index per topic from scipy's assignment solver."""
    topics, labels = linear_sum_assignment(-score)
    assert topics.tolist() == list(range(len(score)))
    return tuple(int(label) for label in labels)


def _same_classification(blocks, result, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(categories, "_best_labels", _scipy_labels)
        reference = classify_blocks(blocks)
    assert result.categories == reference.categories
    assert result.topic_of_category == reference.topic_of_category


class TestPortMapper:
    def test_alu_combo(self):
        mapper = PortMapper("haswell")
        combos = mapper.instruction_combos(
            parse_instruction("add %rbx, %rax"))
        assert combos == ("p0156",)

    def test_load_op_combos(self):
        mapper = PortMapper("haswell")
        combos = mapper.instruction_combos(
            parse_instruction("add (%rdi), %rax"))
        assert combos == ("p23", "p0156")

    def test_store_combos(self):
        mapper = PortMapper("haswell")
        combos = mapper.instruction_combos(
            parse_instruction("mov %rax, (%rdi)"))
        assert combos == ("p237", "p4")

    def test_rename_only_instructions(self):
        mapper = PortMapper("haswell")
        assert mapper.instruction_combos(
            parse_instruction("xor %eax, %eax")) == ("none",)

    def test_unsupported_tolerated(self):
        mapper = PortMapper("haswell")
        assert mapper.instruction_combos(
            parse_instruction("cpuid")) == ("none",)

    def test_block_bag(self):
        mapper = PortMapper("haswell")
        block = parse_block("add %rbx, %rax\nmov %rcx, (%rdi)")
        assert mapper.block_combos(block) == ["p0156", "p237", "p4"]

    def test_vocabulary_close_to_papers_13(self):
        corpus = build_corpus(scale=0.001)
        mapper = PortMapper("haswell")
        vocab = mapper.vocabulary(corpus.blocks)
        assert 10 <= len(vocab) <= 14  # paper: 13 combos on Haswell


class TestClassification:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(scale=0.002, seed=1)

    @pytest.fixture(scope="class")
    def result(self, corpus):
        return classify_blocks(corpus.blocks)

    def test_every_block_categorised(self, corpus, result):
        assert len(result.categories) == len(corpus)
        assert set(result.categories) <= set(range(1, 7))

    def test_six_labels(self):
        assert len(CATEGORY_LABELS) == 6
        assert CATEGORY_LABELS[1] == "Purely vector instructions"

    def test_counts_sum(self, corpus, result):
        assert sum(result.counts().values()) == len(corpus)

    def test_load_category_is_large(self, result):
        """Paper Table IV: 'mostly loads' is the biggest category."""
        counts = result.counts()
        assert counts[6] >= max(counts[1], counts[2])

    def test_vector_categories_contain_vector_blocks(self, corpus,
                                                     result):
        from repro.models.residual import block_mix
        cat2 = [b for b, c in zip(corpus.blocks, result.categories)
                if c == 2]
        if cat2:
            mean_vec = sum(block_mix(b)["vector"] for b in cat2) \
                / len(cat2)
            assert mean_vec > 0.4

    def test_example_blocks_per_category(self, corpus, result):
        examples = result.example_blocks(corpus.blocks)
        assert examples
        for category, block in examples.items():
            assert result.categories[corpus.blocks.index(block)] \
                == category

    def test_app_shares_sum_to_one(self, corpus, result):
        shares = category_shares_by_app(corpus, result)
        for app, dist in shares.items():
            assert sum(dist.values()) == pytest.approx(1.0)

    def test_kernel_apps_are_vector_dominated(self, corpus, result):
        """Fig. 4's headline pattern."""
        shares = category_shares_by_app(corpus, result)
        for app in ("openblas", "tensorflow"):
            vec = shares[app][1] + shares[app][2]
            assert vec > 0.4, (app, shares[app])
        for app in ("sqlite", "llvm"):
            vec = shares[app][1] + shares[app][2]
            assert vec < 0.25, (app, shares[app])

    def test_deterministic(self, corpus):
        a = classify_blocks(corpus.blocks)
        b = classify_blocks(corpus.blocks)
        assert a.categories == b.categories

    def test_same_as_scipy_assignment(self, corpus, result, monkeypatch):
        _same_classification(corpus.blocks, result, monkeypatch)


class TestLabelAssignment:
    @pytest.mark.parametrize("n_topics", [6, 5, 4])
    def test_search_matches_scipy_on_random_scores(self, n_topics):
        rng = np.random.default_rng(n_topics)
        for _ in range(40):
            score = rng.normal(size=(n_topics, len(CATEGORY_LABELS)))
            assert categories._best_labels(score) == _scipy_labels(score)

    def test_tied_optimum_keeps_the_first_assignment(self):
        """Two empty clusters score alike, so swapping their labels
        ties (exactly, with integer scores); the lexicographically
        first assignment wins."""
        rng = np.random.default_rng(7)
        score = rng.integers(-8, 8, size=(6, len(CATEGORY_LABELS)))
        score = score.astype(float)
        score[4] = score[1]
        labels = categories._best_labels(score)
        assert labels[1] < labels[4]
        total = score[range(6), labels].sum()
        assert total == score[range(6), _scipy_labels(score)].sum()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_as_scipy_on_the_benchmark_corpora(self, seed,
                                                     monkeypatch):
        blocks = build_corpus(scale=0.0002, seed=seed).blocks
        _same_classification(blocks, classify_blocks(blocks), monkeypatch)
