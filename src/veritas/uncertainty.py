"""Uncertainty estimation for tree-level predictions.

Epistemic measures come from Monte-Carlo dropout: the tree is predicted
n_samples times with dropout left on, and the sampled probability rows feed
the variation ratio, predictive entropy and per-class variance. The
aleatoric measure is the learned variance head (dropout off). Softmax-based
scores are computed from the single deterministic prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConversationTree, decompose_branches
from .errors import ConfigError, InvalidInput
from .model import ModelParams, predict_tree, tree_branch_outputs, tree_probs
from .nn import DROPOUT_OFF, DropoutSpec, child_rng

Array = np.ndarray


@dataclass(frozen=True)
class Measure:
    """One uncertainty measure and every place it shows up.

    ``field`` is the UncertaintyBundle attribute and ``column`` the records
    and timeline CSV column. A ``confidence`` measure reads higher for more
    certain predictions; ranking inverts it as 1 - value. ``confidence_map``
    names how calibration maps the value u into [0, 1]: "clip" keeps u,
    "1-u" takes the complement, "entropy" divides u by the log(n_classes)
    ceiling before the complement, and "dev_minmax" min-max scales u with
    dev-set stats before the complement. Every result is clipped to [0, 1].
    """

    name: str
    field: str
    column: str
    confidence: bool
    confidence_map: str


# The eight measures in CSV column order; MEASURES follows the same order.
MEASURE_TABLE = (
    Measure("variation_ratio", "variation_ratio", "vr", False, "1-u"),
    Measure("entropy", "entropy", "entropy", False, "entropy"),
    Measure("variance", "variance", "variance", False, "1-u"),
    Measure("aleatoric", "aleatoric", "aleatoric", False, "dev_minmax"),
    Measure("lcs", "softmax_lcs", "lcs", True, "clip"),
    Measure("margin", "softmax_margin", "margin", True, "clip"),
    Measure("ratio", "softmax_ratio", "ratio", False, "1-u"),
    Measure("softmax_entropy", "softmax_entropy", "softmax_entropy", False, "entropy"),
)

MEASURES = tuple(m.name for m in MEASURE_TABLE)

_BY_NAME = {m.name: m for m in MEASURE_TABLE}


def measure_spec(name: str) -> Measure:
    """The table row of a measure name; unknown names are a ConfigError."""
    spec = _BY_NAME.get(name)
    if spec is None:
        raise ConfigError(f"unknown measure {name!r}; choose one of {MEASURES}")
    return spec


@dataclass(frozen=True)
class SampleSet:
    """Stochastic predictions, one probability row per sample."""

    samples: Array

    def __post_init__(self) -> None:
        s = self.samples
        if not isinstance(s, np.ndarray) or s.ndim != 2 or s.shape[0] == 0 or s.shape[1] == 0:
            raise InvalidInput("SampleSet needs a nonempty (samples, classes) array")
        if not np.all(np.isfinite(s)):
            raise InvalidInput("SampleSet rows must be finite")
        if np.any(np.abs(s.sum(axis=1) - 1.0) > 1e-9) or np.any(s < -1e-12):
            raise InvalidInput("SampleSet rows must be probability vectors")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_classes(self) -> int:
        return self.samples.shape[1]


def _entropy(p: Array) -> float:
    # 0 * log 0 := 0
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def mc_sample(
    params: ModelParams,
    tree: ConversationTree,
    embedder,
    n_samples: int,
    dropout_rate: float,
    seed: int = 0,
) -> SampleSet:
    """n_samples stochastic tree predictions with dropout active.

    Sample i uses an independent stream derived from (seed, i), so results
    do not depend on evaluation order.
    """
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    dropout = DropoutSpec(dropout_rate, active=dropout_rate > 0)
    rows = [
        tree_probs(params, tree, embedder, dropout, child_rng(seed, i))
        for i in range(n_samples)
    ]
    return SampleSet(np.stack(rows))


def mc_sample_branches(
    params: ModelParams,
    tree: ConversationTree,
    embedder,
    n_samples: int,
    dropout_rate: float,
    seed: int = 0,
) -> list[SampleSet]:
    """Per-branch sample sets (ablation mode); stream (seed, branch, sample)."""
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    from .data import branch_matrix
    from .model import forward_branch

    dropout = DropoutSpec(dropout_rate, active=dropout_rate > 0)
    sets = []
    for b, branch in enumerate(decompose_branches(tree)):
        vectors = branch_matrix(branch, embedder)
        rows = [
            forward_branch(params, vectors, dropout, child_rng(seed, b, i)).probs
            for i in range(n_samples)
        ]
        sets.append(SampleSet(np.stack(rows)))
    return sets


def variation_ratio(sample_set: SampleSet) -> float:
    """1 - (modal class count / sample count) over the argmax of each row.

    Argmax ties in rows and in the mode go to the lowest class index.
    """
    votes = np.argmax(sample_set.samples, axis=1)
    counts = np.bincount(votes, minlength=sample_set.n_classes)
    return float(1.0 - counts[int(np.argmax(counts))] / sample_set.n_samples)


def predictive_entropy(sample_set: SampleSet) -> float:
    """Entropy (natural log) of the row-mean probability vector."""
    return _entropy(sample_set.samples.mean(axis=0))


def max_variance(sample_set: SampleSet) -> float:
    """Max over classes of the population variance of the sampled probs.

    Variance is shift-invariant, so the samples are shifted by the first
    row first; identical samples then give exactly 0.0.
    """
    if sample_set.n_samples < 2:
        return 0.0
    shifted = sample_set.samples - sample_set.samples[0]
    return float(shifted.var(axis=0).max())


@dataclass(frozen=True)
class SoftmaxConfidences:
    lcs: float      # largest class score (confidence)
    margin: float   # top-1 minus top-2 (confidence)
    ratio: float    # top-2 over top-1 (uncertainty)
    entropy: float  # full-distribution entropy (uncertainty)


def softmax_confidences(probs: Array) -> SoftmaxConfidences:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise InvalidInput(f"softmax_confidences needs a probability vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or abs(float(p.sum()) - 1.0) > 1e-6 or np.any(p < -1e-12):
        raise InvalidInput("softmax_confidences: input must be a probability vector")
    top = np.sort(p)[::-1]
    return SoftmaxConfidences(
        lcs=float(top[0]),
        margin=float(top[0] - top[1]),
        ratio=float(top[1] / top[0]),
        entropy=_entropy(p),
    )


def aleatoric_score(params: ModelParams, tree: ConversationTree, embedder) -> float:
    """Mean learned variance over the tree's branches, dropout off."""
    outputs = tree_branch_outputs(params, tree, embedder, DROPOUT_OFF)
    return float(np.mean([out.variance_value for out in outputs]))


@dataclass(frozen=True)
class UncertaintyBundle:
    """Every per-tree uncertainty value plus the deterministic prediction."""

    variation_ratio: float
    entropy: float
    variance: float
    aleatoric: float
    softmax_lcs: float
    softmax_margin: float
    softmax_ratio: float
    softmax_entropy: float
    mean_probs: tuple[float, ...]
    predicted_class: int

    @property
    def n_classes(self) -> int:
        return len(self.mean_probs)


def bundle(
    params: ModelParams,
    tree: ConversationTree,
    embedder,
    n_samples: int,
    dropout_rate: float,
    seed: int = 0,
    branch_level: bool = False,
) -> UncertaintyBundle:
    """One deterministic pass plus one MC-dropout pass, all measures filled.

    ``branch_level`` switches the epistemic measures to per-branch sampling
    with the per-branch values averaged.
    """
    det_probs, det_class = predict_tree(params, tree, embedder)
    if branch_level:
        sets = mc_sample_branches(params, tree, embedder, n_samples, dropout_rate, seed)
        vr = float(np.mean([variation_ratio(s) for s in sets]))
        ent = float(np.mean([predictive_entropy(s) for s in sets]))
        var = float(np.mean([max_variance(s) for s in sets]))
    else:
        samples = mc_sample(params, tree, embedder, n_samples, dropout_rate, seed)
        vr = variation_ratio(samples)
        ent = predictive_entropy(samples)
        var = max_variance(samples)
    conf = softmax_confidences(det_probs)
    return UncertaintyBundle(
        variation_ratio=vr,
        entropy=ent,
        variance=var,
        aleatoric=aleatoric_score(params, tree, embedder),
        softmax_lcs=conf.lcs,
        softmax_margin=conf.margin,
        softmax_ratio=conf.ratio,
        softmax_entropy=conf.entropy,
        mean_probs=tuple(float(p) for p in det_probs),
        predicted_class=det_class,
    )


def uncertainty_value(bundle_: UncertaintyBundle, measure: str) -> float:
    """Ranking value for a measure: higher always means more uncertain.

    Confidence measures are inverted as 1 - value.
    """
    spec = measure_spec(measure)
    value = getattr(bundle_, spec.field)
    return 1.0 - value if spec.confidence else value


@dataclass(frozen=True)
class UncertaintyConfig:
    """Knobs for the MC-dropout pass used by the harness."""

    n_samples: int = 25
    dropout_rate: float = 0.3
    seed: int = 0
    branch_level: bool = False

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
