"""Label-aware spectral embedding (CCDR) with an out-of-sample extension.

The package bundles the embedding itself, classical baselines (PCA, LDA),
two downstream classifiers, and a sweep harness with a small command line
front end. Its pipelines include the unsupervised Laplacian eigenmap
(`lapeig`), fitted as CCDR with no class nodes.
"""

from .dataset import (
    LabeledDataset,
    SATIMAGE_REMAP,
    PASSTHROUGH_REMAP,
    read_points,
    load_statlog,
    save_statlog,
    class_counts,
    gen_circles,
    column_stats,
    apply_standardize,
)
from .graph import (
    NeighborGraph,
    WeightMatrix,
    knn_graph,
    heat_weights,
    median_eps,
    kernel_rows,
)
from .spectral import EigenSolution, generalized_eig
from .embedding import (
    CcdrModel,
    build_augmented,
    fit,
    embed_many,
    constraint_residuals,
    save_model,
    load_model,
)
from .baselines import (
    LinearEmbedding,
    pca_fit,
    lda_fit,
)
from .classify import (
    LinearClassifier,
    KnnClassifier,
    linear_fit,
)
from .harness import (
    ExperimentConfig,
    SweepRow,
    SweepReport,
    PipelineFit,
    fit_pipeline,
    run_sweep,
    confidence_interval,
    emit_report,
)

__version__ = "0.1.0"

__all__ = [
    "LabeledDataset",
    "SATIMAGE_REMAP",
    "PASSTHROUGH_REMAP",
    "read_points",
    "load_statlog",
    "save_statlog",
    "class_counts",
    "gen_circles",
    "column_stats",
    "apply_standardize",
    "NeighborGraph",
    "WeightMatrix",
    "knn_graph",
    "heat_weights",
    "median_eps",
    "kernel_rows",
    "EigenSolution",
    "generalized_eig",
    "CcdrModel",
    "build_augmented",
    "fit",
    "embed_many",
    "constraint_residuals",
    "save_model",
    "load_model",
    "LinearEmbedding",
    "pca_fit",
    "lda_fit",
    "LinearClassifier",
    "KnnClassifier",
    "linear_fit",
    "ExperimentConfig",
    "SweepRow",
    "SweepReport",
    "PipelineFit",
    "fit_pipeline",
    "run_sweep",
    "confidence_interval",
    "emit_report",
]
