"""Cross-modal token-sequence alignment toolbox.

Trainable dual-stream toy encoders over synthetic paired data, stacked
cross-attention similarities at three depths, factorized representation
losses with a confidence-weighted factor similarity, a verified reverse-mode
gradient engine, and a deterministic train/eval/CLI harness.
"""

from .attention import AttentionConfig, hinge_normalize
from .autodiff import (
    Tensor,
    finite_difference_check,
    gradients,
    hinge,
    matmul,
    parameter,
    row_softmax,
)
from .data import Dataset, Pairs, SynthConfig, generate, load_dataset, save_dataset
from .errors import XmalError
from .evaluation import evaluate, recall_at_k
from .factors import (
    alignment_loss,
    batch_standardize,
    decoupling_loss,
    factor_covariance,
    project_factors,
)
from .model import Model, ModelConfig
from .objective import MODES, ObjectiveConfig, nt_xent, total_loss
from .trainer import TrainConfig, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "Dataset",
    "MODES",
    "Model",
    "ModelConfig",
    "ObjectiveConfig",
    "Pairs",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "XmalError",
    "alignment_loss",
    "batch_standardize",
    "decoupling_loss",
    "evaluate",
    "factor_covariance",
    "finite_difference_check",
    "generate",
    "gradients",
    "hinge",
    "hinge_normalize",
    "load_checkpoint",
    "load_dataset",
    "matmul",
    "nt_xent",
    "parameter",
    "project_factors",
    "recall_at_k",
    "row_softmax",
    "save_checkpoint",
    "save_dataset",
    "total_loss",
    "train",
]
