"""Branch-sequence rumour classifier: parameters, inference per branch and per tree, training.

Each conversation tree is decomposed into root-to-leaf branches; a branch
runs through the network of ``nn`` (an LSTM, a small ReLU stack and two
linear heads: class logits and a softplus data-noise variance), and a
tree's prediction averages its branches' softmax outputs. A pass gives
one ``PassOutput``, whose blocks hold a row per branch. README's
"Inference path" and "Training path" say how a pass and a training step
run and round.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nn
from .data import ConversationTree, HashingEmbedder, branch_matrix, decompose_branches, embed_tweet, infer_classes
from .errors import (
    ConfigError, DataError, InvalidInput, ShapeError, check_fields, check_value, make_rng, read_json, write_text,
)

Array = np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """All trainable arrays keyed by layer name.

    Layer names: lstm.wx/lstm.wh/lstm.b, relu<i>.w/relu<i>.b for the ReLU
    stack, out.w/out.b for the class logits and var.w/var.b for the variance
    head. ``train`` updates the arrays of the instance it builds in place;
    take a ``copy`` to keep a snapshot.
    """

    layers: dict[str, Array]
    num_relu_layers: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The names below then have to be relu0 .. relu<n-1>, the layers nn.head_forward walks.
        n_relu = sum(name.startswith("relu") for name in self.layers) // 2
        names = nn.layer_shapes(0, 0, n_relu, 0, 0)
        problems = {
            "missing": [name for name in names if name not in self.layers],
            "unknown": sorted(set(self.layers) - set(names)),
        }
        if any(problems.values()):
            found = ", ".join(f"{kind} layers: {layers}" for kind, layers in problems.items() if layers)
            raise ConfigError(f"model parameters have {found}")
        object.__setattr__(self, "num_relu_layers", n_relu)

        def dims(name: str) -> tuple[int, int]:
            shape = np.shape(self.layers[name])
            if len(shape) != 2 or 0 in shape:
                raise ConfigError(f"layer {name}: expected a nonempty 2-D weight matrix, got shape {shape}")
            return shape

        hidden, input_dim, n_classes = dims("lstm.wh")[1], dims("lstm.wx")[1], dims("out.w")[0]
        var_rows = dims("var.w")[0]
        if var_rows not in (1, n_classes):
            raise ConfigError(
                f"layer var.w: expected shape (1, {hidden}) or ({n_classes}, {hidden}), "
                f"got {self.layers['var.w'].shape}"
            )
        for name, shape in nn.layer_shapes(input_dim, hidden, n_relu, n_classes, var_rows).items():
            if (actual := np.shape(self.layers[name])) != shape:
                raise ConfigError(f"layer {name}: expected shape {shape}, got {actual}")

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

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.layers.items()})

    def save(self, path) -> None:
        """Write the layers as JSON {name: {shape, row-major values}}; lossless.

        A non-finite value is a DataError naming the layer; nothing is written.
        """
        doc = {}
        for name in sorted(self.layers):
            arr = np.asarray(self.layers[name], dtype=np.float64)
            _check_finite(arr, path, name)
            doc[name] = {"shape": list(arr.shape), "values": [float(v) for v in arr.ravel()]}
        write_text(path, json.dumps(doc), "checkpoint")

    @classmethod
    def load(cls, path) -> "ModelParams":
        """Read what ``save`` wrote; a file that holds no valid parameters is a DataError naming it."""
        doc = read_json(path, "checkpoint")
        if not isinstance(doc, dict):
            raise DataError(f"checkpoint {path}: top level must be an object")
        layers = {}
        for name, entry in doc.items():
            try:
                shape = tuple(int(s) for s in entry["shape"])
                arr = np.asarray(entry["values"], dtype=np.float64)
                if min(shape, default=0) < 0 or arr.size != math.prod(shape):
                    raise DataError(f"checkpoint {path}: layer {name!r} has {arr.size} values for shape {shape}")
                layers[name] = arr.reshape(shape)  # a dimension numpy cannot hold is a ValueError
            except (TypeError, KeyError, ValueError, OverflowError) as exc:
                raise DataError(f"checkpoint {path}: bad entry for layer {name!r}") from exc
            _check_finite(arr, path, name)
        try:
            return cls(layers)
        except ConfigError as exc:
            raise DataError(f"checkpoint {path}: {exc}") from exc


def _check_finite(arr: Array, path, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DataError(f"checkpoint {path}: layer {name!r} has non-finite values")


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
    for name, value in (("input_dim", input_dim), ("hidden_size", hidden_size), ("n_classes", n_classes)):
        check_value(name, value, "int", "[1, inf)")
    check_value("num_relu_layers", num_relu_layers, "int", "[0, inf)")
    check_value("input_scale", input_scale, "float", "(0, inf)")
    rng = make_rng(seed)
    layers = {}
    # Python ints: numpy takes the square root of a small numpy integer fan-in in float16
    dims = map(operator.index, (input_dim, hidden_size, num_relu_layers, n_classes, variance_dim))
    for name, shape in nn.layer_shapes(*dims).items():
        if len(shape) == 1:
            layers[name] = np.zeros(shape)
        else:
            bound = 1.0 / (np.sqrt(shape[1]) * (input_scale if name == "lstm.wx" else 1.0))
            layers[name] = rng.uniform(-bound, bound, shape)
    return ModelParams(layers)


@dataclass(frozen=True)
class PassOutput:
    """One pass's outputs, each a block with a row per branch in branch order (``forward_branch``: its vectors).

    ``probs`` is the softmax of ``logits`` and ``variance`` (one shared
    column, or one per logit) the softplus of ``var_pre``, each worked out on
    first read: a pass whose probabilities or variance are never read runs
    no softmax or softplus.
    """

    logits: Array
    var_pre: Array

    @functools.cached_property
    def probs(self) -> Array:
        return nn._softmax_kernel(self.logits)  # the pass checked its heads

    @functools.cached_property
    def variance(self) -> Array:
        return nn.softplus(self.var_pre)


def _branch_heads(params: ModelParams, X: Array, lengths: tuple[int, ...], masks: Array | None, where) -> PassOutput:
    """One pass over embedded branches as one batch: logits and variance pre-activations, a row per branch.

    The branches of ``lengths`` rows sit back to back in ``X``. They run
    through one lockstep ``nn.lstm_forward`` call, and the ReLU stack and
    both heads run once on the block of their final states, masked by
    ``masks`` (one pass's ``nn.branch_masks``, or None). The heads' blocks
    are checked once: a non-finite row raises the InvalidInput that its
    branch would raise alone (its variance is checked before its logits),
    for the first such row j, prefixed with ``where(j)``.
    """
    p = params.layers
    u = nn.lstm_forward(p["lstm.wx"], p["lstm.wh"], p["lstm.b"], X, lengths)
    if masks is not None:
        u *= masks[:, 0]
    _, _, logits, var_pre = nn.head_forward(p, u, None if masks is None else masks[:, 1:])
    if not (np.isfinite(logits).all() and np.isfinite(var_pre).all()):
        for j, (v, z) in enumerate(zip(var_pre, logits)):
            try:
                nn.softplus(v)
                nn.softmax(z)
            except InvalidInput as exc:
                raise InvalidInput(f"{where(j)}{exc}") from exc
    return PassOutput(logits, var_pre)


def forward_branch(params: ModelParams, vectors: Array, dropout: float = 0.0, rng=None) -> PassOutput:
    """Run one embedded branch (steps, input_dim) through the network.

    This is a tree pass (``tree_branch_outputs``) over one branch, and its
    fields are that branch's vectors. At a positive dropout rate masks apply
    to each LSTM output step and after every ReLU layer, drawn in the order
    ``nn.backward`` draws them in training.
    """
    lengths = (len(vectors),)
    masks = nn.branch_masks(lengths, params.hidden_size, params.num_relu_layers, dropout, rng)
    out = _branch_heads(params, vectors, lengths, masks, lambda j: "")
    return PassOutput(out.logits[0], out.var_pre[0])


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
        check_fields(
            self, hidden_size="[1, inf)", num_relu_layers="[0, inf)", dropout_rate_train="[0, 1)",
            learning_rate="(0, inf)", epochs="[0, inf)", aleatoric_samples="[1, inf)", ce_weight="[0, inf)",
            aleatoric_weight="[0, inf)", seed="[0, inf)",
        )
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
    noise-sampled cross-entropy: ``nn.backward`` then ``nn.sgd_step``.
    Training trees are taken in tree_id order, so the result does not
    depend on the order of ``trees``. Deterministic in the config seed;
    epochs=0 returns the seeded initialisation unchanged. A step that
    raises InvalidInput (say, logits that overflowed) is re-raised naming
    the test fold, the epoch and the tree.
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
    train_trees.sort(key=lambda t: t.tree_id)
    instances, owners = [], []
    for tree in train_trees:
        branches = training_instances([tree], classes, embedder)
        instances += branches
        owners += [tree.tree_id] * len(branches)
    if not instances:
        raise ConfigError(f"no training branches left outside folds {sorted(held_out)}")

    n_classes = len(classes)
    variance_dim = n_classes if config.variance_per_logit else 1
    rng = make_rng(config.seed)
    params = init_params(
        input_dim=embedder.dimension,
        hidden_size=config.hidden_size,
        num_relu_layers=config.num_relu_layers,
        n_classes=n_classes,
        seed=config.seed,
        variance_dim=variance_dim,
        input_scale=input_rms(instances),
    )
    # init_params made fresh arrays, so the in-place updates touch nothing else.
    layers = params.layers
    targets = [_one_hot(y, n_classes) for y in range(n_classes)]

    for epoch in range(config.epochs):
        order = rng.permutation(len(instances))
        sum_total = sum_ce = sum_sampled = 0.0
        for idx in order:
            vectors, y_idx = instances[int(idx)]
            try:
                ce, sampled, grads = nn.backward(
                    layers, vectors, targets[y_idx], config.dropout_rate_train, rng,
                    config.aleatoric_samples, config.ce_weight, config.aleatoric_weight,
                )
            except InvalidInput as exc:
                raise InvalidInput(
                    f"training with test fold {test_fold}, epoch {epoch}, tree {owners[int(idx)]}: {exc}"
                ) from exc
            nn.sgd_step(layers, grads, config.learning_rate)
            sum_ce += ce
            sum_sampled += sampled
            sum_total += config.ce_weight * ce + config.aleatoric_weight * sampled
        if history is not None:
            n = len(instances)
            history.append(
                EpochStats(epoch, sum_total / n, sum_ce / n, sum_sampled / n)
            )
    return params


# ---------------------------------------------------------------------------
# prediction


def tree_branch_outputs(
    params: ModelParams, tree: ConversationTree, embedder, masks: Array | None = None
) -> PassOutput:
    """One pass over the tree: every branch through the network as one batch, one result.

    The branches' tweets are embedded straight into one block, branch
    after branch in branch order, and each field of the result holds a
    row per branch in that order. ``masks`` are the pass's dropout masks,
    ``nn.branch_masks`` of the branch lengths (a ``(branches, relu layers +
    1, H)`` block), or None for no dropout. A non-finite logit or variance
    pre-activation raises the InvalidInput that the first branch holding
    one would raise alone, naming the tree and that branch's leaf tweet.
    """
    branches = decompose_branches(tree)
    if masks is not None and masks.shape != (want := (len(branches), params.num_relu_layers + 1, params.hidden_size)):
        raise ShapeError(f"tree {tree.tree_id}: masks of shape {masks.shape} for a pass that takes {want}")
    X = np.array([embed_tweet(tw.text, embedder) for b in branches for tw in b.tweets])
    return _branch_heads(
        params, X, tuple(len(b.tweets) for b in branches), masks,
        lambda j: f"tree {tree.tree_id}, branch ending at tweet {branches[j].tweets[-1].id}: ",
    )


def mc_probs(params: ModelParams, tree: ConversationTree, embedder, n_samples: int, dropout: float, rng) -> Array:
    """The ``(samples, branches, classes)`` probability block of n_samples tree passes with dropout active.

    One ``nn.branch_masks`` call draws every pass's masks from ``rng`` as
    one block, the numbers n_samples passes drawing in turn would take.
    Each pass is one ``tree_branch_outputs`` call, and one softmax covers
    their stacked logits: softmax works row by row, so pass i's rows are
    the bits of its own ``probs``.
    """
    check_value("n_samples", n_samples, "int", "[1, inf)")  # UncertaintyConfig.n_samples's rule, for a bare count
    lengths = [len(b.tweets) for b in decompose_branches(tree)]
    masks = nn.branch_masks(lengths, params.hidden_size, params.num_relu_layers, dropout, rng, n_samples)
    passes = [None] * n_samples if masks is None else masks
    return nn._softmax_kernel(np.array([tree_branch_outputs(params, tree, embedder, m).logits for m in passes]))


def tree_probs(params: ModelParams, tree: ConversationTree, embedder, masks: Array | None = None) -> Array:
    """Mean of the branch softmax vectors of one pass (``tree_branch_outputs`` with ``masks``)."""
    probs = tree_branch_outputs(params, tree, embedder, masks).probs
    # np.mean's own reduction and division, without its dispatch cost.
    return np.add.reduce(probs, axis=0) / len(probs)


def predict_tree(params: ModelParams, tree: ConversationTree, embedder) -> tuple[Array, int]:
    """Deterministic tree prediction: (mean probs, argmax class index).

    Ties go to the lowest class index.
    """
    probs = tree_probs(params, tree, embedder)
    return probs, int(np.argmax(probs))
