"""Basic-block categorisation (Table IV / Fig. 3 / Fig. 4).

Pipeline: port-combination bags → LDA topics → one category per block
(the paper takes the most common micro-op category in the block, which
for mean-field LDA is the block's dominant topic).  LDA does not name
its topics; like the paper, the labels are attached afterwards by
inspecting each cluster — here with an automatic matcher over cluster
statistics (vector/load/store/scalar shares) solved as an assignment
problem, replicating the paper's Table IV names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.classify.lda import LatentDirichletAllocation, LdaConfig
from repro.classify.portmap import PortMapper
from repro.isa.instruction import BasicBlock
from repro.models.residual import block_mix

#: Table IV labels, index = category number - 1.
CATEGORY_LABELS = (
    "Mix of scalar and vectorized arithmetic",   # Category-1
    "Purely vector instructions",                # Category-2
    "Mix of loads and stores",                   # Category-3
    "Mostly stores",                             # Category-4
    "ALU ops sprinkled with loads and stores",   # Category-5
    "Mostly loads",                              # Category-6
)


@dataclass
class ClassifierResult:
    """Fitted classifier plus per-block assignments."""

    categories: List[int]            # 1-based category per block
    topic_of_category: Dict[int, int]
    vocabulary: List[str]
    lda: LatentDirichletAllocation
    mapper: PortMapper
    doc_topics: np.ndarray
    profiles: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def counts(self) -> Dict[int, int]:
        out = {c: 0 for c in range(1, 7)}
        for c in self.categories:
            out[c] += 1
        return out

    def assign(self, blocks: Sequence[BasicBlock]) -> List[int]:
        """Categorise *new* blocks under the fitted topics.

        The paper fits one classifier and applies it to everything —
        including the Spanner/Dremel blocks of §V — so new corpora are
        folded into the existing topic space rather than re-clustered.
        Port combinations unseen during fitting are ignored.
        """
        counts = bag_counts(self.mapper, self.vocabulary, blocks)
        doc_topics = self.lda.transform(counts)
        category_of_topic = {t: c
                             for c, t in self.topic_of_category.items()}
        return [category_of_topic[int(t)]
                for t in doc_topics.argmax(axis=1)]

    def example_blocks(self, blocks: Sequence[BasicBlock],
                       max_len: int = 8) -> Dict[int, BasicBlock]:
        """One short, representative block per category (Fig. 3)."""
        best: Dict[int, BasicBlock] = {}
        strength: Dict[int, float] = {}
        for block, cat, weights in zip(blocks, self.categories,
                                       self.doc_topics):
            if len(block) > max_len:
                continue
            score = float(weights.max())
            if score > strength.get(cat, 0.0):
                strength[cat] = score
                best[cat] = block
        return best


def bag_counts(mapper: PortMapper, vocabulary: Sequence[str],
               blocks: Sequence[BasicBlock]) -> np.ndarray:
    """(blocks × vocabulary) port-combination counts, LDA's input.

    Combinations outside ``vocabulary`` are ignored.
    """
    index = {combo: i for i, combo in enumerate(vocabulary)}
    counts = np.zeros((len(blocks), len(vocabulary)))
    for d, block in enumerate(blocks):
        for combo in mapper.block_combos(block):
            if combo in index:
                counts[d, index[combo]] += 1
    return counts


def _cluster_profile(blocks: Sequence[BasicBlock],
                     members: Sequence[int]) -> Dict[str, float]:
    """Mean instruction-mix statistics of a cluster."""
    if not members:
        return {"load": 0, "store": 0, "vector": 0, "scalar": 0}
    loads = stores = vectors = scalars = total = 0
    for idx in members:
        for instr in blocks[idx]:
            total += 1
            if instr.loads_memory:
                loads += 1
            if instr.stores_memory:
                stores += 1
            if instr.info.vec:
                vectors += 1
            elif not instr.has_memory_access:
                scalars += 1
    total = max(total, 1)
    return {"load": loads / total, "store": stores / total,
            "vector": vectors / total, "scalar": scalars / total}


def _label_scores(profile: Dict[str, float]) -> List[float]:
    """Affinity of one cluster profile for each Table IV label.

    The assignment solver maximises total affinity, so only relative
    magnitudes matter; the terms encode the label semantics (e.g.
    "mix of loads and stores" needs *both* present).
    """
    load, store = profile["load"], profile["store"]
    vector, scalar = profile["vector"], profile["scalar"]
    return [
        # 1: mix of scalar and vectorized arithmetic
        5.0 * min(vector, scalar) + 0.5 * vector,
        # 2: purely vector
        3.0 * vector - 2.5 * scalar - 1.5 * store,
        # 3: mix of loads and stores
        5.0 * min(load, store) + 1.2 * (load + store)
        - 1.5 * vector - 0.8 * scalar,
        # 4: mostly stores
        3.5 * store - 1.5 * load - 1.2 * vector,
        # 5: ALU ops sprinkled with loads and stores
        2.0 * scalar + 0.8 * min(load + store, 0.5)
        - 2.5 * vector - 1.5 * store,
        # 6: mostly loads
        3.0 * load - 2.5 * store - 1.2 * vector - 0.8 * scalar,
    ]


def _best_labels(score: np.ndarray) -> Tuple[int, ...]:
    """Label index per topic that maximises the total affinity.

    An exact search over every one-to-one topic-to-label assignment
    (at most 6! = 720 of them), in lexicographic order; on a tied
    total the first assignment wins.
    """
    rows = score.tolist()
    return max(permutations(range(len(CATEGORY_LABELS)), len(rows)),
               key=lambda labels: sum(map(list.__getitem__, rows, labels)))


def classify_blocks(blocks: Sequence[BasicBlock],
                    uarch: str = "haswell",
                    config: Optional[LdaConfig] = None,
                    n_restarts: int = 4) -> ClassifierResult:
    """Fit LDA over the blocks and assign Table IV categories.

    LDA is seed-sensitive (mean-field finds local optima); like any
    topic-model user we fit several restarts and keep the one whose
    clusters match the six label semantics best — the automated
    version of the paper's "manually labelled by inspection".  The
    restarts are fitted in lockstep, in one ``fit`` call.
    """
    mapper = PortMapper(uarch)
    vocabulary = mapper.vocabulary(blocks)
    counts = bag_counts(mapper, vocabulary, blocks)

    base = config or LdaConfig()
    models = [LatentDirichletAllocation(
                  replace(base, seed=base.seed + 101 * restart))
              for restart in range(max(1, n_restarts))]
    # Loaded here, not by the first ``_exp_elog``, so the fit's
    # ``classify.lda`` span times LDA and not scipy's import.
    import scipy.special  # noqa: F401
    models[0].fit(counts, restarts=models[1:])
    best = None
    for lda in models:
        doc_topics = lda.transform(counts)
        dominant = doc_topics.argmax(axis=1)

        n_topics = doc_topics.shape[1]
        members: Dict[int, List[int]] = {t: [] for t in range(n_topics)}
        for i, topic in enumerate(dominant):
            members[int(topic)].append(i)
        profiles = {t: _cluster_profile(blocks, m)
                    for t, m in members.items()}
        score = np.array([_label_scores(profiles[t])
                          for t in range(n_topics)])
        label_idx = _best_labels(score)
        total = float(score[range(n_topics), label_idx].sum())
        if best is None or total > best[0]:
            best = (total, lda, doc_topics, dominant, profiles,
                    {t: label + 1 for t, label in enumerate(label_idx)})

    _, lda, doc_topics, dominant, profiles, topic_to_category = best
    categories = [topic_to_category[int(t)] for t in dominant]
    return ClassifierResult(
        categories=categories,
        topic_of_category={c: t for t, c in topic_to_category.items()},
        vocabulary=vocabulary,
        lda=lda,
        mapper=mapper,
        doc_topics=doc_topics,
        profiles={topic_to_category[t]: p for t, p in profiles.items()},
    )


def category_shares_by_app(corpus, result: ClassifierResult,
                           weighted: bool = True
                           ) -> Dict[str, Dict[int, float]]:
    """Per-application category composition (Fig. 4 / Fig. 13).

    ``weighted=True`` weights blocks by execution frequency, matching
    the figures' "weighted by the frequency it is sampled" caption.
    """
    shares: Dict[str, Dict[int, float]] = {}
    for record, category in zip(corpus.records, result.categories):
        app = shares.setdefault(record.application,
                                {c: 0.0 for c in range(1, 7)})
        app[category] += record.frequency if weighted else 1.0
    for app, dist in shares.items():
        total = sum(dist.values()) or 1.0
        shares[app] = {c: v / total for c, v in dist.items()}
    return shares
