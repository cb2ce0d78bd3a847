"""Uncertainty estimation for tree-level predictions.

Epistemic measures come from Monte-Carlo dropout: the tree is predicted
n_samples times with dropout left on, and the sampled probability rows feed
the variation ratio, predictive entropy and per-class variance. The
aleatoric measure is the learned variance head (dropout off). Softmax-based
scores are computed from the single deterministic prediction.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .data import ConversationTree
from .errors import ConfigError, InvalidInput, check_fields, check_value, child_rng, seed_int
from .model import ModelParams, mc_probs, predict_tree, tree_branch_outputs

Array = np.ndarray


@dataclass(frozen=True)
class Measure:
    """One uncertainty measure and every place it shows up.

    ``field`` is the UncertaintyBundle attribute and ``column`` the records
    and timeline CSV column. ``confidence_map`` names how calibration maps
    the value u into [0, 1]: "clip" keeps u, "1-u" takes the complement,
    "entropy" divides u by the log(n_classes) ceiling before the
    complement, and "dev_minmax" min-max scales u with dev-set stats before
    the complement. Every result is clipped to [0, 1]. So the "clip"
    measures are the confidences, which read higher for more certain
    predictions; every other measure is an uncertainty.
    """

    name: str
    field: str
    column: str
    confidence_map: str

    def uncertainty(self, bundle_: UncertaintyBundle) -> float:
        """The bundle's ranking value: higher always means more uncertain, so a confidence is inverted as 1 - value."""
        value = getattr(bundle_, self.field)
        return 1.0 - value if self.confidence_map == "clip" else value


# The eight measures in CSV column order; MEASURES follows the same order.
MEASURE_TABLE = (
    Measure("variation_ratio", "variation_ratio", "vr", "1-u"),
    Measure("entropy", "entropy", "entropy", "entropy"),
    Measure("variance", "variance", "variance", "1-u"),
    Measure("aleatoric", "aleatoric", "aleatoric", "dev_minmax"),
    Measure("lcs", "softmax_lcs", "lcs", "clip"),
    Measure("margin", "softmax_margin", "margin", "clip"),
    Measure("ratio", "softmax_ratio", "ratio", "1-u"),
    Measure("softmax_entropy", "softmax_entropy", "softmax_entropy", "entropy"),
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


def _mean(values) -> float:
    """``np.mean`` of a nonempty list or vector of floats: its pairwise sum and division, without its dispatch cost."""
    return float(np.add.reduce(np.array(values))) / len(values)


def _tree_seed(base_seed: int, tree_id: str) -> int:
    """Stable per-tree stream id; independent of processing order. A negative or non-integer seed is a ConfigError."""
    return (seed_int(base_seed) << 32) + zlib.crc32(tree_id.encode("utf-8"))


def _mc_passes(params: ModelParams, tree: ConversationTree, embedder, n_samples: int, dropout_rate: float, seed: int):
    """The (samples, branches, classes) probability block of n_samples tree passes with dropout active (``mc_probs``).

    The passes draw their masks from one stream, derived from (seed,
    tree_id): pass i takes the stream's i-th mask block. So results
    depend on neither evaluation order nor the path that scores the tree (a
    timeline prefix keeps its tree's id and so its stream), and a larger
    ``n_samples`` leaves the earlier passes as they were.
    """
    return mc_probs(params, tree, embedder, n_samples, dropout_rate, child_rng(_tree_seed(seed, tree.tree_id)))


def mc_sample(
    params: ModelParams,
    tree: ConversationTree,
    embedder,
    n_samples: int,
    dropout_rate: float,
    seed: int = 0,
) -> SampleSet:
    """n_samples stochastic tree predictions with dropout active: each MC pass's branch mean (``tree_probs``' bits)."""
    block = _mc_passes(params, tree, embedder, n_samples, dropout_rate, seed)
    return SampleSet(np.add.reduce(block, axis=1) / block.shape[1])


def mc_sample_branches(
    params: ModelParams,
    tree: ConversationTree,
    embedder,
    n_samples: int,
    dropout_rate: float,
    seed: int = 0,
) -> list[SampleSet]:
    """Per-branch sample sets (ablation mode): branch b's rows of the passes that ``mc_sample`` averages."""
    block = _mc_passes(params, tree, embedder, n_samples, dropout_rate, seed)
    return [SampleSet(block[:, b]) for b in range(block.shape[1])]


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
    """Mean learned variance over the tree's branches, dropout off: the mean of each branch's row, then their mean."""
    variance = tree_branch_outputs(params, tree, embedder).variance
    return _mean(np.add.reduce(variance, axis=1) / variance.shape[1])  # each row's np.mean, then theirs


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

    def __post_init__(self) -> None:
        """Refuse an invalid bundle; the InvalidInput's message starts with the field.

        Every measure is finite; ``mean_probs`` holds at least two finite,
        nonnegative entries that sum to 1 within 1e-6 (entry k is the field
        ``mean_probs[k]``); ``predicted_class`` is their argmax, lowest index
        on ties; ``variation_ratio`` is in [0, 1].
        """
        for m in MEASURE_TABLE:
            value = getattr(self, m.field)
            if not math.isfinite(value):
                raise InvalidInput(f"{m.field}: {value!r} is not a finite number")
        probs = self.mean_probs
        if len(probs) < 2:
            raise InvalidInput(f"mean_probs: needs at least two classes, got {len(probs)}")
        for k, p in enumerate(probs):
            if not math.isfinite(p):
                raise InvalidInput(f"mean_probs[{k}]: {p!r} is not a finite number")
            if p < 0.0:
                raise InvalidInput(f"mean_probs[{k}]: negative probability {p!r}")
        total = sum(probs)
        if abs(total - 1.0) > 1e-6:
            raise InvalidInput(f"mean_probs: probabilities sum to {total!r}, not 1")
        argmax = max(range(len(probs)), key=probs.__getitem__)
        if self.predicted_class != argmax:
            raise InvalidInput(f"predicted_class: {self.predicted_class!r} is not the argmax {argmax} of mean_probs")
        if not 0.0 <= self.variation_ratio <= 1.0:
            raise InvalidInput(f"variation_ratio: {self.variation_ratio!r} is not in [0, 1]")

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
    """Every measure of one tree from S+2 tree passes: two dropout-free, S with MC dropout.

    ``predict_tree`` and ``aleatoric_score`` each run the dropout-free
    pass, and the S MC passes run in both modes. ``branch_level`` only
    chooses how their rows are reduced: by default each pass's branch mean
    is one sample (``mc_sample``); with it each branch's rows are its own
    sample set (``mc_sample_branches``) and the per-branch epistemic values
    are averaged.
    """
    check_value("branch_level", branch_level, "bool")  # UncertaintyConfig.branch_level's rule
    det_probs, det_class = predict_tree(params, tree, embedder)
    if branch_level:
        sets = mc_sample_branches(params, tree, embedder, n_samples, dropout_rate, seed)
    else:
        sets = [mc_sample(params, tree, embedder, n_samples, dropout_rate, seed)]
    conf = softmax_confidences(det_probs)
    return UncertaintyBundle(
        variation_ratio=_mean([variation_ratio(s) for s in sets]),
        entropy=_mean([predictive_entropy(s) for s in sets]),
        variance=_mean([max_variance(s) for s in sets]),
        aleatoric=aleatoric_score(params, tree, embedder),
        softmax_lcs=conf.lcs,
        softmax_margin=conf.margin,
        softmax_ratio=conf.ratio,
        softmax_entropy=conf.entropy,
        mean_probs=tuple(float(p) for p in det_probs),
        predicted_class=det_class,
    )


def uncertainty_value(bundle_: UncertaintyBundle, measure: str) -> float:
    """The ranking value of a measure, ``Measure.uncertainty``: higher always means more uncertain."""
    return measure_spec(measure).uncertainty(bundle_)


@dataclass(frozen=True)
class UncertaintyConfig:
    """Knobs for the MC-dropout pass used by the harness."""

    n_samples: int = 25
    dropout_rate: float = 0.3
    seed: int = 0
    branch_level: bool = False

    def __post_init__(self) -> None:
        check_fields(self, n_samples="[1, inf)", dropout_rate="[0, 1)", seed="[0, inf)")
