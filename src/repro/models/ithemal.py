"""Ithemal analogue: a throughput predictor learned from measured data.

Unlike the simulator models, this predictor never sees any timing
table: it is trained on (basic block, measured throughput) pairs
produced by the profiler, exactly as Ithemal trains on BHive-style
measurements.  It outputs a single number per block — no interpretable
schedule — matching the paper's description.

The paper's two findings about Ithemal are reproduced structurally:

* **Training imbalance on vectorized blocks** — the authors attribute
  Ithemal's weakness on category-2 (purely vector) blocks to their
  under-representation in training data; ``fit`` keeps only a fraction
  of vector-heavy blocks (``undersample_vectorized``).
* **Skylake data scarcity** — the authors "left more basic blocks out
  of the training of their Skylake model"; ``fit`` drops an extra
  share of Skylake training data (``skylake_holdout``).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.isa.instruction import BasicBlock
from repro.models.base import CostModel, Prediction
from repro.models.features import block_features
from repro.models.residual import block_mix
from repro.models.training import MlpRegressor, TrainingConfig

#: Minimum predicted throughput (a block cannot retire faster than
#: the 4-wide front end allows).
_MIN_THROUGHPUT = 0.25

#: Salt of each uarch's training-sample RNG.  The modelled uarches keep
#: the values ``hash(uarch) & 0xFFFF`` had under ``PYTHONHASHSEED=0``,
#: so results recorded with that pin do not move; any other name is
#: salted with its CRC-32.  Neither depends on the string-hash seed.
_UARCH_SALT = {"ivybridge": 53474, "haswell": 4247, "skylake": 2828}


def _salt(uarch: str) -> int:
    return _UARCH_SALT.get(uarch, zlib.crc32(uarch.encode()) & 0xFFFF)


class IthemalModel(CostModel):
    """Learned basic-block throughput predictor."""

    name = "Ithemal"

    def __init__(self, config: Optional[TrainingConfig] = None,
                 undersample_vectorized: float = 0.12,
                 skylake_holdout: float = 0.10,
                 seed: int = 1):
        self.config = config if config is not None else TrainingConfig()
        self.undersample_vectorized = undersample_vectorized
        self.skylake_holdout = skylake_holdout
        self.seed = seed
        self._nets: Dict[str, MlpRegressor] = {}
        self._caps: Dict[str, float] = {}
        #: Feature vector per block text.  No feature depends on the
        #: uarch, so ``fit`` and ``predict`` on every uarch share them.
        self._features: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------

    def is_trained(self, uarch: str) -> bool:
        return uarch in self._nets

    def _block_features(self, block: BasicBlock) -> np.ndarray:
        text = block.text()
        features = self._features.get(text)
        if features is None:
            features = self._features[text] = block_features(block)
        return features

    def _select_training_set(self, blocks: Sequence[BasicBlock],
                             uarch: str,
                             rng: np.random.Generator) -> List[int]:
        indices: List[int] = []
        for i, block in enumerate(blocks):
            if block_mix(block)["vector"] > 0.5 \
                    and rng.random() > self.undersample_vectorized:
                continue
            if uarch == "skylake" and rng.random() < self.skylake_holdout:
                continue
            indices.append(i)
        return indices

    def fit(self, blocks: Sequence[BasicBlock],
            throughputs: Sequence[float], uarch: str) -> "IthemalModel":
        """Train the per-uarch network on measured data."""
        if len(blocks) != len(throughputs):
            raise ValueError("blocks and throughputs differ in length")
        with telemetry.span("models.ithemal.fit", uarch=uarch) as sp:
            rng = np.random.default_rng((self.seed, _salt(uarch)))
            keep = self._select_training_set(blocks, uarch, rng)
            if len(keep) < 16:
                keep = list(range(len(blocks)))
            known = len(self._features)
            x = np.stack([self._block_features(blocks[i]) for i in keep])
            misses = len(self._features) - known
            y = np.log(np.maximum([throughputs[i] for i in keep],
                                  _MIN_THROUGHPUT))
            # Regress the residual against the static bound (the
            # second-to-last feature): the network learns
            # *corrections*, so where it has little signal it falls
            # back to the bound rather than extrapolating wildly.
            baseline = np.log(np.maximum(x[:, -2], _MIN_THROUGHPUT))
            net = MlpRegressor(self.config)
            net.fit(x, y - baseline)
            self._nets[uarch] = net
            self._caps[uarch] = float(np.exp(y.max()) * 1.5)
            sp.annotate(rows=len(keep), epochs=self.config.epochs,
                        feature_hits=len(keep) - misses,
                        feature_misses=misses)
        return self

    # ------------------------------------------------------------------

    def predict(self, block: BasicBlock, uarch: str) -> Prediction:
        net = self._nets.get(uarch)
        if net is None:
            return Prediction(self.name, uarch, None,
                              error=f"no trained model for {uarch}")
        features = self._block_features(block)
        baseline = max(float(features[-2]), _MIN_THROUGHPUT)
        correction = float(net.predict(features)[0])
        throughput = baseline * float(np.exp(correction))
        throughput = min(max(throughput, _MIN_THROUGHPUT),
                         self._caps[uarch])
        return Prediction(self.name, uarch, round(throughput, 3))
