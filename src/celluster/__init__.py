"""Curriculum-paced graph-convolutional embedding clustering for scRNA-seq counts."""

from .cellgraph import CellGraph, knn_graph
from .curriculum import (
    DifficultyReport,
    PacingConfig,
    PruneResult,
    combine_and_rank,
    global_difficulty,
    graph_entropy,
    local_difficulty,
    measure_difficulty,
    pacing_fraction,
    prune,
)
from .ingest import ExpressionMatrix, SynthesisSpec, load_matrix, save_matrix, synthesize
from .losses import LossBreakdown, loss_cls, loss_rec, loss_zinb, target_distribution
from .metrics import ari, nmi
from .model import (
    ChebLayerParams,
    ModelParams,
    chebyshev_basis,
    decode_zinb,
    encode,
    init_params,
    soft_assign,
)
from .preprocess import PreprocessedData, normalize, select_hvg
from .trainer import (
    PipelineResult,
    TrainConfig,
    TrainState,
    formal_train,
    init_centers,
    predict,
    pretrain,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "CellGraph",
    "ChebLayerParams",
    "DifficultyReport",
    "ExpressionMatrix",
    "LossBreakdown",
    "ModelParams",
    "PacingConfig",
    "PipelineResult",
    "PreprocessedData",
    "PruneResult",
    "SynthesisSpec",
    "TrainConfig",
    "TrainState",
    "ari",
    "chebyshev_basis",
    "combine_and_rank",
    "decode_zinb",
    "encode",
    "formal_train",
    "global_difficulty",
    "graph_entropy",
    "init_centers",
    "init_params",
    "knn_graph",
    "load_matrix",
    "local_difficulty",
    "loss_cls",
    "loss_rec",
    "loss_zinb",
    "measure_difficulty",
    "metrics",
    "nmi",
    "normalize",
    "pacing_fraction",
    "predict",
    "pretrain",
    "prune",
    "run_pipeline",
    "save_matrix",
    "select_hvg",
    "soft_assign",
    "synthesize",
    "target_distribution",
]
