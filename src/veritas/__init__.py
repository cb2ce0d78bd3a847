"""Rumour verification with predictive uncertainty.

Trains a branch-level LSTM classifier over conversation trees, estimates
aleatoric and epistemic uncertainty per prediction, and uses those
estimates for selective prediction, calibration, and timeline analysis.
"""

from .calibration import (
    CalibrationMap,
    CalibrationReport,
    NormalizationStats,
    aleatoric_stats,
    apply_calibration,
    calibration_report,
    confidences,
    ece,
    fit_histogram_binning,
    reliability_bins,
)
from .data import (
    CANONICAL_LABELS,
    STANCES,
    Branch,
    ConversationTree,
    FoldSpec,
    HashingEmbedder,
    TableEmbedder,
    Tweet,
    branch_matrix,
    decompose_branches,
    embed_tweet,
    infer_classes,
    load_dataset,
    make_folds,
    repaired_order,
    timeline_prefixes,
    tokenize,
    validate_tree,
    write_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    DataWarning,
    InvalidInput,
    ShapeError,
    VeritasError,
)
from .harness import (
    CrossValResult,
    TimelineSeries,
    TimelineStep,
    cross_validate,
    min_uncertainty_prediction,
    read_records_csv,
    timeline_report,
    timeline_to_csv,
    write_history_csv,
    write_records_csv,
)
from .metrics import MetricsReport, evaluate, group_uncertainty_by
from .model import (
    EpochStats,
    ModelParams,
    PassOutput,
    TrainingConfig,
    forward_branch,
    init_params,
    predict_tree,
    train,
    training_instances,
    tree_branch_outputs,
    tree_probs,
)
from .rejection import (
    MetaClassifier,
    PredictionRecord,
    RejectionCurve,
    make_record,
    per_fold_reject,
    random_reject,
    rejection_curve,
    supervised_reject,
    train_meta,
    unsupervised_reject,
)
from .stats import chi2_sf, kruskal_wallis
from .synth import SyntheticSpec, generate_synthetic
from .uncertainty import (
    MEASURES,
    SampleSet,
    SoftmaxConfidences,
    UncertaintyBundle,
    UncertaintyConfig,
    aleatoric_score,
    bundle,
    max_variance,
    mc_sample,
    mc_sample_branches,
    predictive_entropy,
    softmax_confidences,
    uncertainty_value,
    variation_ratio,
)

__version__ = "0.1.0"
