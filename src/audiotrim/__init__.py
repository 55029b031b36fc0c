"""Structured lottery-ticket trimming of small generative audio networks."""

from .criteria import CRITERIA, SCALINGS, pool_scores
from .embed import EmbedReport, PlatformProfile, analyze, load_platforms
from .harness import (
    DatasetSplit,
    ExperimentConfig,
    gen_synthetic_tones,
    load_config,
    load_wav_dir,
    run_experiment,
    split_dataset,
)
from .mi import MiConfig, estimate_mi
from .models import ModelConfig, build_model
from .nn import Network, StructureError, apply_trim, load_checkpoint, save_checkpoint
from .pruning import (
    ImpConfig,
    ImpTrace,
    Splits,
    WeightMask,
    prunability_from_mask,
    run_imp,
    select_units,
    select_weights,
)
from .tensor import (
    GraphError,
    NumericError,
    ShapeError,
    SpectrogramConfig,
    Tensor,
    no_grad,
    stft_logmag,
)

__all__ = [
    "CRITERIA",
    "DatasetSplit",
    "EmbedReport",
    "ExperimentConfig",
    "GraphError",
    "ImpConfig",
    "ImpTrace",
    "MiConfig",
    "ModelConfig",
    "Network",
    "NumericError",
    "PlatformProfile",
    "SCALINGS",
    "ShapeError",
    "SpectrogramConfig",
    "Splits",
    "StructureError",
    "Tensor",
    "WeightMask",
    "analyze",
    "apply_trim",
    "build_model",
    "estimate_mi",
    "gen_synthetic_tones",
    "load_checkpoint",
    "load_config",
    "load_platforms",
    "load_wav_dir",
    "no_grad",
    "pool_scores",
    "prunability_from_mask",
    "run_experiment",
    "run_imp",
    "save_checkpoint",
    "select_units",
    "select_weights",
    "split_dataset",
    "stft_logmag",
]

__version__ = "0.1.0"
