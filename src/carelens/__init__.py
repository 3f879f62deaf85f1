"""Clinical risk prediction from irregular visit series and static baselines.

Each dynamic feature is embedded by its own GRU and summarized by attention
whose scores decay with elapsed time at a learned per-feature rate;
multi-head self-attention with a cross-head covariance penalty then
re-encodes the features in the context of each other and of the baseline,
and a baseline-queried attention head produces the risk score.
"""

from .autodiff import Var, layer_norm, softmax
from .data import (Dataset, DatasetFormatError, Normalization, PatientCase,
                   load_dataset, make_batches, save_dataset, split_folds)
from .metrics import EvalReport, auprc, auroc, bootstrap_eval, min_se_pplus
from .model import (FittedModel, ModelConfig, init_params, load_model,
                    save_model)
from .optim import ParamStore, adam_step, grad_check
from .synthetic import SyntheticSpec, generate_synthetic
from .train import TrainConfig, cross_validate, fit

__version__ = "0.1.0"

__all__ = [
    "Var", "softmax", "layer_norm", "ParamStore", "adam_step", "grad_check",
    "PatientCase", "Dataset", "DatasetFormatError", "Normalization",
    "load_dataset", "save_dataset",
    "split_folds", "make_batches", "SyntheticSpec",
    "generate_synthetic", "ModelConfig", "FittedModel", "init_params",
    "load_model", "save_model", "auroc", "auprc", "min_se_pplus",
    "bootstrap_eval", "EvalReport", "TrainConfig", "fit", "cross_validate",
    "__version__",
]
