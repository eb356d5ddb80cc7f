"""The benchmark suite: synthetic application corpora + known blocks."""

from repro.corpus.appspec import PATHOLOGICAL, TEMPLATES, ApplicationSpec
from repro.corpus.dataset import (DEFAULT_APPS, GOOGLE_APPS, TABLE3_APPS,
                                  BlockRecord, Corpus, build_application,
                                  build_corpus, build_google_corpus,
                                  get_spec)
from repro.corpus.known_blocks import (div_block, gzip_crc_block,
                                       tensorflow_ablation_block,
                                       zero_idiom_block)
from repro.corpus.sampling import (block_category, project_validation,
                                   sample_corpus, sample_stream,
                                   stratum, stratum_counts)
from repro.corpus.streaming import (corpus_spec_digest, iter_application,
                                    iter_corpus)
from repro.corpus.synthesis import BlockSynthesizer
from repro.corpus.tracing import assign_frequencies

__all__ = [
    "ApplicationSpec", "TEMPLATES", "PATHOLOGICAL",
    "BlockRecord", "Corpus", "BlockSynthesizer",
    "build_application", "build_corpus", "build_google_corpus",
    "get_spec", "assign_frequencies",
    "DEFAULT_APPS", "GOOGLE_APPS", "TABLE3_APPS",
    "div_block", "gzip_crc_block", "tensorflow_ablation_block",
    "zero_idiom_block",
    # streaming generation + stratified sampling
    "iter_application", "iter_corpus", "corpus_spec_digest",
    "block_category", "stratum", "stratum_counts",
    "sample_stream", "sample_corpus", "project_validation",
]
