"""Shared domain types: stepsize schedules, the per-sample statistic table,
run configuration, and the model interface every algorithm variant drives.

Statistic vectors are lists of k floats (k model-declared) at the model
interface; each model documents its own index layout.  The table
and the schedules are the only stateful pieces here, and the table is
mutated by exactly one engine run at a time.
"""

from __future__ import annotations

import numbers
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "ConfigError",
    "as_int",
    "check_seed",
    "set_ints",
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


def as_int(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def check_seed(seed) -> int:
    """The root seed as an int; rejects a non-integer and a seed that does
    not fit in 64 unsigned bits."""
    seed = as_int("seed", seed)
    if not 0 <= seed <= 2**64 - 1:
        raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def set_ints(obj, *names: str) -> None:
    """Normalise integer fields of a frozen dataclass with ``operator.index``
    (None stays None); a non-integer value is a ConfigError."""
    for name in names:
        if (value := getattr(obj, name)) is not None:
            object.__setattr__(obj, name, as_int(name, value))


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


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize sequence gamma_k in (0, 1]: 1 for k < warmup_iters, then the
    polynomial c / (k - warmup_iters + 1)**a, started at the end of the
    warmup and indexed from 1 so that it is defined at k = 0.  a = 0 is the
    constant c, exactly (c / 1.0 == c).
    """

    c: float = 1.0
    a: float = 0.0
    warmup_iters: int = 0

    def __post_init__(self):
        set_ints(self, "warmup_iters")
        if not (0.0 < self.c <= 1.0):
            raise ConfigError(f"schedule value c must be in (0, 1], got {self.c}")
        if not (0.0 <= self.a < 1.0):
            raise ConfigError(f"polynomial exponent a must be in [0, 1), got {self.a}")
        if self.warmup_iters < 0:
            raise ConfigError("warmup_iters must be nonnegative")

    def eval(self, k: int) -> float:
        """Stepsize at iteration k >= 0; always in (0, 1]."""
        if k < 0:
            raise ValueError("iteration index must be nonnegative")
        if k < self.warmup_iters:
            return 1.0
        return self.c / float(k - self.warmup_iters + 1) ** self.a

    @property
    def is_unit(self) -> bool:
        """True when the schedule is identically 1."""
        return self.c == 1.0 and self.a == 0.0


# ---------------------------------------------------------------------------
# Per-sample statistic table (SAGA-style memory for iSAEM / fiTTEM / iEM)
# ---------------------------------------------------------------------------


class PerSampleStatTable:
    """One statistic vector per sample plus their running mean: the result
    of every whole pass, so both the iEM / iSAEM / fiTTEM table and the
    batch / vrTTEM anchor.  It adopts the float64 (n, k) array it is given,
    without a copy, and owns it from then on.  Every proxy is one of its two
    operations: ``replace`` writes an entry, ``control`` reads against one.

    ``mean`` holds plain floats, which round as numpy's element-wise
    operations do at a fraction of their cost.  It is maintained
    incrementally and stays within 1e-10 relative error of a recomputation
    over any update sequence of practical length.
    """

    def __init__(self, entries: np.ndarray):
        self.entries = entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] == 0:
            raise ValueError("table entries must be a nonempty (n, k) array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("table entries must be finite")
        self.n = entries.shape[0]
        self.mean = entries.mean(axis=0).tolist()

    def replace(self, i: int, vec) -> None:
        """Replace entry i by the k floats ``vec``; fold the change into the mean."""
        n = self.n
        if not 0 <= i < n:  # numpy would wrap a negative index
            raise IndexError(f"sample index {i} outside [0, {n})")
        self.mean = [m + (v - e) / n for m, v, e in zip(self.mean, vec, self.entries[i].tolist(), strict=True)]
        self.entries[i] = vec

    def control(self, i: int, vec) -> list:
        """The control-variate read mean + (vec - entries[i]) as plain floats;
        the table is not changed."""
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} outside [0, {self.n})")
        return [m + (v - e) for m, v, e in zip(self.mean, vec, self.entries[i].tolist(), strict=True)]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


class Variant(NamedTuple):
    """What the engine and the harness need to know about one variant."""

    proxy: str        # "batch" | "table" | "anchor" | "two_stream" (see engine)
    exact: bool       # exact posterior expectation instead of Monte Carlo
    unit_gamma: bool  # SA-step stepsize forced to 1
    unit_rho: bool    # Inc-step stepsize forced to 1

    def iters_per_epoch(self, n: int) -> int:
        """Iterations in one epoch of budget (``--epochs``): 1 batch pass, else n
        iterations, which vrTTEM and fiTTEM charge about 2n E-steps for."""
        return 1 if self.proxy == "batch" else n


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
        set_ints(self, "total_iters", "mc_samples", "epoch_len")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.rho is not None and not isinstance(self.rho, numbers.Real):
            raise ConfigError(f"rho must be a real number, got {self.rho!r}")
        if self.total_iters < 0:
            raise ConfigError("total_iters must be nonnegative")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be a positive integer")

        spec = VARIANTS[self.variant]
        if spec.unit_gamma:
            if self.gamma is None:
                object.__setattr__(self, "gamma", StepSchedule())
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
    Statistic vectors and flattened parameters cross it as lists of Python
    floats, in the layout the model documents, which the engine steps on
    without converting.  ``project`` maps a statistic back onto the set
    ``m_step`` is defined on, and ``m_step`` must be deterministic.  Data
    simulation lives next to each model as a module-level function rather
    than on this interface, since a model instance already owns a dataset.
    """

    @classmethod
    def provides(cls, method: str) -> bool:
        """Whether this class overrides ``method``, one of the optional ones whose
        default here raises ConfigError (``default_init``, ``exact_expectation``, ``penalized_nll``)."""
        return getattr(cls, method) is not getattr(ModelSpec, method)

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
    def flatten_params(self, theta) -> list[float]:
        """Flatten a parameter object into the floats param_names describes."""

    @abstractmethod
    def unflatten_params(self, vec):
        """Inverse of flatten_params, from any float sequence (a trajectory row)."""

    def default_init(self):
        """Deterministic starting point of a run given no theta0."""
        raise ConfigError(f"no theta0 given and {type(self).__name__} has no default_init()")

    @abstractmethod
    def mc_stat(self, i: int, theta, n_samples: int, rng: np.random.Generator,
                chains: Optional[dict] = None) -> list[float]:
        """Monte Carlo E-step: estimate of E[S(z_i, y_i) | y_i; theta].

        Draws from p(z_i | y_i; theta) on ``rng`` only (the engine passes one
        generator per posterior role, read by every E-step in visit order).
        An exact sampler averages the statistic over ``n_samples`` draws; an
        MCMC-backed model may instead run ``n_samples`` transitions and
        return the statistic of the final state.  ``chains`` is the caller's
        state for this posterior stream (the engine keeps one per stream and
        run): such a model starts sample i's chain from ``chains[i]`` when
        present and stores the final state there, and a model may keep draws
        taken from ``rng`` but not yet used there (GMM keeps a block of
        uniforms), so one dict goes with one generator.  ``None`` means a cold
        start that keeps nothing and draws only what this call uses.
        """

    def exact_expectation(self, i: int, theta) -> list[float]:
        """Exact posterior expectation of the statistics."""
        raise ConfigError(f"{type(self).__name__} has no exact E-step, exact_expectation()")

    def project(self, s: list[float]) -> list[float]:
        """Map s onto the closed set of statistics the M-step is defined on.

        Must be the exact identity on that set (returning ``s`` itself is
        fine) and must not modify ``s`` in place.  The engine applies it to
        the slow-timescale iterate before every M-step, since the
        variance-reduced proxies can step outside the set.  The default
        assumes every finite vector is admissible.
        """
        return s

    @abstractmethod
    def m_step(self, s: list[float]):
        """Parameters maximizing the penalized complete-data objective at s."""

    def penalized_nll(self, theta) -> float:
        """Penalized negative log-likelihood of the data."""
        raise ConfigError(f"{type(self).__name__} has no likelihood, penalized_nll()")
