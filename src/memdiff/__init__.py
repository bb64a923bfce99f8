"""Memory-augmented conditional diffusion forecasting for multivariate time series.

A channel-shared semantic memory (learnable pattern prototypes) and an
episodic memory (frozen snapshots of hard examples, evicted by recall
frequency behind a circular candidate queue) provide a variational prior
to a few-step conditional denoising diffusion model that predicts a
horizon block from a lookback block.
"""

from .config import TrainConfig, load_config
from .data import ChannelStats, Dataset, SeriesWindow, SynthSpec, load_csv, split, synth_generate, windows
from .denoiser import ddim_sample, ddpm_sample, ddpm_step, step_embedding
from .episodic import EpisodicStore, select_special
from .errors import DataError, InvariantError, MemdiffError, NumericError, UsageError
from .model import ForecastModel, StepDraws, draw_step_randomness
from .nn import Adam, GradCheckReport, Mlp, ParamStore, ParamTensor, finite_diff_check
from .schedule import NoiseSchedule, forward_sample, make_schedule, posterior_mean_var
from .semantic import SemanticMemory
from .trainer import PreparedData, Trainer, mae, mse, prepare

__version__ = "0.1.0"

__all__ = [
    "Adam", "ChannelStats", "DataError", "Dataset", "EpisodicStore",
    "ForecastModel", "GradCheckReport", "InvariantError", "MemdiffError",
    "Mlp", "NoiseSchedule", "NumericError", "ParamStore", "ParamTensor",
    "PreparedData", "SemanticMemory", "SeriesWindow", "StepDraws",
    "SynthSpec", "TrainConfig", "Trainer", "UsageError", "ddim_sample",
    "ddpm_sample", "ddpm_step", "draw_step_randomness",
    "finite_diff_check", "forward_sample", "load_config", "load_csv", "mae",
    "make_schedule", "mse", "posterior_mean_var", "prepare", "select_special",
    "split", "step_embedding", "synth_generate", "windows",
]
