"""Shared domain types: stepsize schedules, the per-sample statistic table,
run configuration, and the model interface every algorithm variant drives.

Statistic vectors are plain 1-d float64 arrays of a model-declared length k;
each model documents its own index layout.  The table and the schedules are
the only stateful pieces here, and the table is mutated by exactly one
engine run at a time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "ConfigError",
    "SamplingError",
    "StepSchedule",
    "PerSampleStatTable",
    "RunConfig",
    "ModelSpec",
    "Variant",
    "VARIANTS",
]


class ConfigError(ValueError):
    """Invalid configuration, rejected before any work starts."""


class SamplingError(RuntimeError):
    """Posterior sampling failed mid-run; carries the sample and iteration."""

    def __init__(self, message: str, sample_index: int, iteration: int):
        super().__init__(f"{message} (sample {sample_index}, iteration {iteration})")
        self.message = message
        self.sample_index = sample_index
        self.iteration = iteration

    def __reduce__(self):
        return (SamplingError, (self.message, self.sample_index, self.iteration))


# ---------------------------------------------------------------------------
# Stepsize schedules
# ---------------------------------------------------------------------------

_SCHEDULE_KINDS = ("constant", "polynomial", "warmup-polynomial")


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize sequence gamma_k in (0, 1].

    kinds:
      constant            -- gamma_k = c
      polynomial          -- gamma_k = c / (k + 1)**a
      warmup-polynomial   -- gamma_k = 1 for k < warmup_iters, then the
                             polynomial restarted at the end of the warmup:
                             c / (k - warmup_iters + 1)**a

    The polynomial is indexed from k + 1 so the value at k = 0 is defined.
    """

    kind: str
    c: float = 1.0
    a: float = 0.5
    warmup_iters: int = 0

    def __post_init__(self):
        if self.kind not in _SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not (0.0 < self.c <= 1.0):
            raise ConfigError(f"schedule value c must be in (0, 1], got {self.c}")
        if self.kind != "constant" and not (0.0 < self.a < 1.0):
            raise ConfigError(f"polynomial exponent a must be in (0, 1), got {self.a}")
        if self.warmup_iters < 0:
            raise ConfigError("warmup_iters must be nonnegative")
        if self.kind == "polynomial" and self.warmup_iters != 0:
            raise ConfigError("plain polynomial schedule takes no warmup")

    def eval(self, k: int) -> float:
        """Stepsize at iteration k >= 0; always in (0, 1]."""
        if k < 0:
            raise ValueError("iteration index must be nonnegative")
        if k < self.warmup_iters:
            return 1.0
        if self.kind == "constant":
            return self.c
        return self.c / float(k - self.warmup_iters + 1) ** self.a

    @property
    def is_unit(self) -> bool:
        """True when the schedule is identically 1."""
        return self.kind == "constant" and self.c == 1.0

    @staticmethod
    def constant(c: float = 1.0) -> "StepSchedule":
        return StepSchedule(kind="constant", c=c)

    @staticmethod
    def polynomial(a: float, c: float = 1.0, warmup_iters: int = 0) -> "StepSchedule":
        kind = "warmup-polynomial" if warmup_iters > 0 else "polynomial"
        return StepSchedule(kind=kind, c=c, a=a, warmup_iters=warmup_iters)


# ---------------------------------------------------------------------------
# Per-sample statistic table (SAGA-style memory for iSAEM / fiTTEM / iEM)
# ---------------------------------------------------------------------------


class PerSampleStatTable:
    """Stored last-refresh statistic vector per sample plus a running mean.

    The mean is maintained incrementally on single-entry replacement and is
    guaranteed to stay within 1e-10 relative error of a from-scratch
    recomputation over any update sequence of practical length.
    """

    def __init__(self, entries: np.ndarray, iteration: int = 0):
        entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] == 0:
            raise ValueError("table entries must be a nonempty (n, k) array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("table entries must be finite")
        self.entries = entries.copy()
        self.mean = entries.mean(axis=0)
        self.refresh_iter = np.full(entries.shape[0], iteration, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def replace(self, i: int, vec: np.ndarray, iteration: int) -> None:
        """Replace entry i and fold the change into the running mean."""
        self.mean = self.mean + (vec - self.entries[i]) / self.n
        self.entries[i] = vec
        self.refresh_iter[i] = iteration

    def recomputed_mean(self) -> np.ndarray:
        """From-scratch mean of the entries (oracle for the running mean)."""
        return self.entries.mean(axis=0)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


class Variant(NamedTuple):
    """What the engine and the harness need to know about one variant."""

    proxy: str        # "batch" | "table" | "anchor" | "two_stream" (see engine)
    exact: bool       # exact posterior expectation instead of Monte Carlo
    unit_gamma: bool  # SA-step stepsize forced to 1
    unit_rho: bool    # Inc-step stepsize forced to 1


VARIANTS = {
    "EM": Variant("batch", exact=True, unit_gamma=True, unit_rho=True),
    "iEM": Variant("table", exact=True, unit_gamma=True, unit_rho=True),
    "MCEM": Variant("batch", exact=False, unit_gamma=True, unit_rho=True),
    "SAEM": Variant("batch", exact=False, unit_gamma=False, unit_rho=True),
    "iSAEM": Variant("table", exact=False, unit_gamma=False, unit_rho=True),
    "vrTTEM": Variant("anchor", exact=False, unit_gamma=False, unit_rho=False),
    "fiTTEM": Variant("two_stream", exact=False, unit_gamma=False, unit_rho=False),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one engine run needs besides the model.

    ``gamma`` and ``rho`` may be omitted; variants that force them fill in
    the forced value.  A configuration that contradicts its variant is
    rejected here, before any run starts.
    """

    variant: str
    total_iters: int
    seed: int
    gamma: Optional[StepSchedule] = None
    rho: Optional[float] = None
    mc_samples: int = 1
    epoch_len: Optional[int] = None
    randomized_termination: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {tuple(VARIANTS)}")
        if self.total_iters < 0:
            raise ConfigError("total_iters must be nonnegative")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be a positive integer")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ConfigError("seed must fit in 64 unsigned bits")

        spec = VARIANTS[self.variant]
        if spec.unit_gamma:
            if self.gamma is None:
                object.__setattr__(self, "gamma", StepSchedule.constant(1.0))
            elif not self.gamma.is_unit:
                raise ConfigError(f"{self.variant} requires gamma identically 1")
        elif self.gamma is None:
            raise ConfigError(f"{self.variant} requires an explicit gamma schedule")

        if spec.unit_rho:
            if self.rho is None:
                object.__setattr__(self, "rho", 1.0)
            elif self.rho != 1.0:
                raise ConfigError(f"{self.variant} requires rho = 1")
        else:
            if self.rho is None:
                raise ConfigError(f"{self.variant} requires an explicit rho")
            if not (0.0 < self.rho <= 1.0):
                raise ConfigError(f"rho must be in (0, 1], got {self.rho}")

        # the epoch length sets when the anchor is refreshed
        if spec.proxy == "anchor":
            if self.epoch_len is None or self.epoch_len < 1:
                raise ConfigError(f"{self.variant} requires epoch_len >= 1")
        elif self.epoch_len is not None:
            raise ConfigError(f"epoch_len is meaningful only for vrTTEM, not {self.variant}")


# ---------------------------------------------------------------------------
# Model interface
# ---------------------------------------------------------------------------


class ModelSpec(ABC):
    """Operations a latent-variable model must provide to the engine.

    A model instance is bound to one dataset; sample indices refer to it.
    Statistic vectors are flat float64 arrays of length ``stat_dim()`` whose
    layout the model documents.  ``project`` maps a statistic back onto the
    set ``m_step`` is defined on, and ``m_step`` must be deterministic.  Data
    simulation lives next to each model as a module-level function rather
    than on this interface, since a model instance already owns a dataset.
    """

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of samples in the bound dataset."""

    @abstractmethod
    def stat_dim(self) -> int:
        """Length k of the sufficient-statistic vector."""

    @abstractmethod
    def param_names(self) -> list[str]:
        """Names of the flattened parameter components, for reporting."""

    @abstractmethod
    def flatten_params(self, theta) -> np.ndarray:
        """Flatten a parameter object into the vector param_names describes."""

    @abstractmethod
    def unflatten_params(self, vec: np.ndarray):
        """Inverse of flatten_params."""

    @abstractmethod
    def mc_stat(
        self, i: int, theta, n_samples: int, rng: np.random.Generator, chains: Optional[dict] = None
    ) -> np.ndarray:
        """Monte Carlo E-step: estimate of E[S(z_i, y_i) | y_i; theta].

        Draws from p(z_i | y_i; theta) on ``rng`` only.  An exact sampler
        averages the statistic over ``n_samples`` draws; an MCMC-backed
        model may instead run ``n_samples`` transitions and return the
        statistic of the final state.  ``chains`` is owned by the caller
        (the engine keeps one per posterior stream and run): such a model
        starts sample i's chain from ``chains[i]`` when present and stores
        the final state there.  ``None`` means a cold start that keeps
        nothing.
        """

    def exact_expectation(self, i: int, theta) -> Optional[np.ndarray]:
        """Exact posterior expectation of the statistics, or None."""
        return None

    def project(self, s: np.ndarray) -> np.ndarray:
        """Map s onto the closed set of statistics the M-step is defined on.

        Must be the exact identity on that set (returning ``s`` itself is
        fine) and must not modify ``s`` in place.  The engine applies it to
        the slow-timescale iterate before every M-step, since the
        variance-reduced proxies can step outside the set.  The default
        assumes every finite vector is admissible.
        """
        return s

    @abstractmethod
    def m_step(self, s: np.ndarray):
        """Parameters maximizing the penalized complete-data objective at s."""

    def penalized_nll(self, theta) -> Optional[float]:
        """Penalized negative log-likelihood of the data, or None."""
        return None
