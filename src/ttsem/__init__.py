"""Two-timescale stochastic EM algorithms for curved-exponential-family
latent variable models, with Gaussian-mixture and pharmacokinetic reference
models and a reproducible benchmark harness."""

from .core import (
    ConfigError,
    ModelSpec,
    PerSampleStatTable,
    RunConfig,
    SamplingError,
    StepSchedule,
    VARIANTS,
)
from .engine import (
    Trajectory,
    draw_termination,
    gap_delta_s,
    mc_step,
    run,
    sa_step,
)
from .rng import named_stream
from .samplers import MhConfig, categorical_sample, mh_chain

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "MhConfig",
    "ModelSpec",
    "PerSampleStatTable",
    "RunConfig",
    "SamplingError",
    "StepSchedule",
    "Trajectory",
    "VARIANTS",
    "categorical_sample",
    "draw_termination",
    "gap_delta_s",
    "mc_step",
    "mh_chain",
    "named_stream",
    "run",
    "sa_step",
    "__version__",
]
