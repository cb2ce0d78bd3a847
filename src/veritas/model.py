"""Branch-sequence rumour classifier.

Each conversation tree is decomposed into root-to-leaf branches; a branch is
a sequence of tweet embeddings fed through an LSTM, a small ReLU stack and
two linear heads: class logits and a learned data-noise variance (softplus
keeps it positive). Tree-level predictions average the branch softmax
outputs. Training minimises a weighted sum of the plain cross-entropy and a
noise-sampled cross-entropy whose gradient flows through the recorded
Gaussian draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn
from .data import ConversationTree, HashingEmbedder, branch_matrix, decompose_branches, infer_classes
from .errors import ConfigError, ShapeError
from .nn import DROPOUT_OFF, DropoutSpec, Tape

Array = np.ndarray

_LSTM_KEYS = ("lstm.wx", "lstm.wh", "lstm.b")
_HEAD_KEYS = ("out.w", "out.b", "var.w", "var.b")


@dataclass(frozen=True)
class ModelParams:
    """All trainable arrays keyed by layer name.

    Layer names: lstm.wx/lstm.wh/lstm.b, relu<i>.w/relu<i>.b for the ReLU
    stack, out.w/out.b for the class logits and var.w/var.b for the variance
    head. Treated as immutable; updates produce a new instance.
    """

    layers: dict[str, Array]

    def __post_init__(self) -> None:
        missing = [k for k in (*_LSTM_KEYS, *_HEAD_KEYS) if k not in self.layers]
        if missing:
            raise ConfigError(f"model parameters missing layers: {missing}")

    def __getitem__(self, name: str) -> Array:
        return self.layers[name]

    @property
    def hidden_size(self) -> int:
        return self.layers["lstm.wh"].shape[1]

    @property
    def input_dim(self) -> int:
        return self.layers["lstm.wx"].shape[1]

    @property
    def n_classes(self) -> int:
        return self.layers["out.w"].shape[0]

    @property
    def variance_dim(self) -> int:
        return self.layers["var.w"].shape[0]

    @property
    def num_relu_layers(self) -> int:
        return sum(1 for k in self.layers if k.startswith("relu") and k.endswith(".w"))

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.layers.items()})

    def save(self, path) -> None:
        nn.save_checkpoint(self.layers, path)

    @classmethod
    def load(cls, path) -> "ModelParams":
        return cls(nn.load_checkpoint(path))


def input_rms(instances: Sequence[tuple[Array, int]]) -> float:
    """Root-mean-square entry magnitude of the stacked input matrices.

    Falls back to 1.0 for empty or all-zero inputs.
    """
    total = 0.0
    count = 0
    for vectors, _ in instances:
        x = np.asarray(vectors, dtype=np.float64)
        total += float(np.sum(x * x))
        count += x.size
    if count == 0:
        return 1.0
    rms = math.sqrt(total / count)
    return rms if rms > 0.0 and math.isfinite(rms) else 1.0


def init_params(
    input_dim: int,
    hidden_size: int,
    num_relu_layers: int,
    n_classes: int,
    seed: int = 0,
    variance_dim: int = 1,
    input_scale: float = 1.0,
) -> ModelParams:
    """Seeded uniform(+-1/sqrt(fan_in)) weights, zero biases.

    input_scale rescales only the LSTM input weights: inputs with entry rms
    s get bound 1/(sqrt(fan_in)*s), so gate preactivations start near unit
    variance whatever the embedding magnitude. At s=1 this is the classic
    bound.
    """
    if min(input_dim, hidden_size, n_classes) < 1 or num_relu_layers < 0:
        raise ConfigError("init_params: dimensions must be positive")
    if not (input_scale > 0.0 and math.isfinite(input_scale)):
        raise ConfigError(f"init_params: input_scale must be positive, got {input_scale}")
    rng = nn.make_rng(seed)

    def uniform(shape, fan_in, scale=1.0):
        bound = 1.0 / (np.sqrt(fan_in) * scale)
        return rng.uniform(-bound, bound, shape)

    layers = {
        "lstm.wx": uniform((4 * hidden_size, input_dim), input_dim, input_scale),
        "lstm.wh": uniform((4 * hidden_size, hidden_size), hidden_size),
        "lstm.b": np.zeros(4 * hidden_size),
    }
    for i in range(num_relu_layers):
        layers[f"relu{i}.w"] = uniform((hidden_size, hidden_size), hidden_size)
        layers[f"relu{i}.b"] = np.zeros(hidden_size)
    layers["out.w"] = uniform((n_classes, hidden_size), hidden_size)
    layers["out.b"] = np.zeros(n_classes)
    layers["var.w"] = uniform((variance_dim, hidden_size), hidden_size)
    layers["var.b"] = np.zeros(variance_dim)
    return ModelParams(layers)


@dataclass(frozen=True)
class BranchOutput:
    hidden: Array    # input to both heads
    logits: Array
    variance: Array  # (1,) shared, or (n_classes,) per logit
    probs: Array

    @property
    def variance_value(self) -> float:
        return float(np.mean(self.variance))


def forward_branch(
    params: ModelParams,
    vectors: Array,
    dropout: DropoutSpec = DROPOUT_OFF,
    rng=None,
    tape: Tape | None = None,
) -> BranchOutput:
    """Run one embedded branch (steps, input_dim) through the network.

    Dropout masks apply to each LSTM output step and after every ReLU layer.
    When a tape is given, the returned logits/variance arrays are the tape
    nodes, ready to feed the loss ops.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != params.input_dim:
        raise ShapeError(
            f"forward_branch: expected (steps, {params.input_dim}) vectors, got {x.shape}"
        )
    p = params.layers
    hs = nn.lstm_forward(p["lstm.wx"], p["lstm.wh"], p["lstm.b"], x, dropout, rng, tape=tape)
    u = nn.take_last(hs, tape=tape)
    for i in range(params.num_relu_layers):
        u = nn.dense_forward(p[f"relu{i}.w"], p[f"relu{i}.b"], u, "relu", tape=tape)
        u = nn.dropout_forward(u, dropout, rng, tape=tape)
    logits = nn.dense_forward(p["out.w"], p["out.b"], u, "linear", tape=tape)
    var_pre = nn.dense_forward(p["var.w"], p["var.b"], u, "linear", tape=tape)
    variance = nn.softplus_forward(var_pre, tape=tape)
    return BranchOutput(hidden=u, logits=logits, variance=variance, probs=nn.softmax(logits))


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainingConfig:
    hidden_size: int = 64
    num_relu_layers: int = 2
    dropout_rate_train: float = 0.3
    learning_rate: float = 0.01
    epochs: int = 30
    aleatoric_samples: int = 50
    ce_weight: float = 1.0
    aleatoric_weight: float = 0.2
    seed: int = 0
    variance_per_logit: bool = False

    def __post_init__(self) -> None:
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.num_relu_layers < 0:
            raise ConfigError(f"num_relu_layers must be >= 0, got {self.num_relu_layers}")
        if not 0.0 <= self.dropout_rate_train < 1.0:
            raise ConfigError(f"dropout_rate_train must be in [0, 1), got {self.dropout_rate_train}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.aleatoric_samples < 1:
            raise ConfigError(f"aleatoric_samples must be >= 1, got {self.aleatoric_samples}")
        if self.ce_weight < 0 or self.aleatoric_weight < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.ce_weight == 0 and self.aleatoric_weight == 0:
            raise ConfigError("at least one loss weight must be positive")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss_total: float
    loss_ce: float
    loss_sampled: float


def _one_hot(index: int, n: int) -> Array:
    y = np.zeros(n)
    y[index] = 1.0
    return y


def training_instances(
    trees: Sequence[ConversationTree], classes: tuple[str, ...], embedder
) -> list[tuple[Array, int]]:
    """Embedded (branch matrix, class index) pairs for every branch."""
    label_index = {label: i for i, label in enumerate(classes)}
    instances = []
    for tree in trees:
        if tree.label not in label_index:
            raise ConfigError(f"tree {tree.tree_id}: label {tree.label!r} not in classes {classes}")
        y = label_index[tree.label]
        for branch in decompose_branches(tree):
            instances.append((branch_matrix(branch, embedder), y))
    return instances


def train(
    trees: Sequence[ConversationTree],
    folds,
    test_fold: int,
    config: TrainingConfig,
    embedder=None,
    *,
    dev_fold: int | None = None,
    classes: tuple[str, ...] | None = None,
    history: list[EpochStats] | None = None,
) -> ModelParams:
    """Fit on every tree outside the held-out (and optional dev) fold.

    Per-branch SGD on ce_weight * cross-entropy + aleatoric_weight *
    noise-sampled cross-entropy. Deterministic in the config seed; epochs=0
    returns the seeded initialisation unchanged.
    """
    if embedder is None:
        embedder = HashingEmbedder()
    if classes is None:
        classes = infer_classes(trees)
    held_out = {test_fold} if dev_fold is None else {test_fold, dev_fold}
    train_trees = []
    for tree in trees:
        fold = folds.assignments.get(tree.tree_id)
        if fold is None:
            raise ConfigError(f"tree {tree.tree_id} has no fold assignment")
        if fold not in held_out:
            train_trees.append(tree)
    instances = training_instances(train_trees, classes, embedder)
    if not instances:
        raise ConfigError(f"no training branches left outside folds {sorted(held_out)}")

    n_classes = len(classes)
    variance_dim = n_classes if config.variance_per_logit else 1
    rng = nn.make_rng(config.seed)
    params = init_params(
        input_dim=embedder.dimension,
        hidden_size=config.hidden_size,
        num_relu_layers=config.num_relu_layers,
        n_classes=n_classes,
        seed=config.seed,
        variance_dim=variance_dim,
        input_scale=input_rms(instances),
    )
    layers = dict(params.layers)
    dropout = DropoutSpec(config.dropout_rate_train, active=config.dropout_rate_train > 0)
    targets = [_one_hot(y, n_classes) for y in range(n_classes)]

    for epoch in range(config.epochs):
        order = rng.permutation(len(instances))
        sum_total = sum_ce = sum_sampled = 0.0
        for idx in order:
            vectors, y_idx = instances[int(idx)]
            target = targets[y_idx]
            tape = Tape()
            tape.watch_all(layers)
            out = forward_branch(ModelParams(layers), vectors, dropout, rng, tape=tape)
            ce_node = nn.softmax_xent(out.logits, target, tape=tape)
            eps = rng.standard_normal((config.aleatoric_samples, n_classes))
            sampled_node = nn.sampled_xent(out.logits, out.variance, target, eps, tape=tape)
            nn.weighted_sum(ce_node, sampled_node, config.ce_weight, config.aleatoric_weight, tape=tape)
            grads = nn.backward(tape)
            layers = nn.sgd_step(layers, grads, config.learning_rate)
            sum_ce += float(ce_node)
            sum_sampled += float(sampled_node)
            sum_total += config.ce_weight * float(ce_node) + config.aleatoric_weight * float(sampled_node)
        if history is not None:
            n = len(instances)
            history.append(
                EpochStats(epoch, sum_total / n, sum_ce / n, sum_sampled / n)
            )
    return ModelParams(layers)


# ---------------------------------------------------------------------------
# prediction


def tree_branch_outputs(
    params: ModelParams,
    tree: ConversationTree,
    embedder,
    dropout: DropoutSpec = DROPOUT_OFF,
    rng=None,
) -> list[BranchOutput]:
    return [
        forward_branch(params, branch_matrix(branch, embedder), dropout, rng)
        for branch in decompose_branches(tree)
    ]


def tree_probs(
    params: ModelParams,
    tree: ConversationTree,
    embedder,
    dropout: DropoutSpec = DROPOUT_OFF,
    rng=None,
) -> Array:
    """Mean of the branch softmax vectors."""
    outputs = tree_branch_outputs(params, tree, embedder, dropout, rng)
    return np.mean([out.probs for out in outputs], axis=0)


def predict_tree(params: ModelParams, tree: ConversationTree, embedder) -> tuple[Array, int]:
    """Deterministic tree prediction: (mean probs, argmax class index).

    Ties go to the lowest class index.
    """
    probs = tree_probs(params, tree, embedder)
    return probs, int(np.argmax(probs))
