"""Posterior sampling primitives: exact categorical draws and a random-walk
Metropolis-Hastings kernel.

Everything here is stateless over a caller-owned generator, so chains for
different samples can run in parallel without sharing anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["categorical_sample", "MhConfig", "mh_chain"]


def categorical_sample(weights, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` indices from a normalized probability vector by inverse
    CDF, one uniform per draw."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0.0):
        raise ValueError("categorical weights must be nonnegative")
    total = w.sum()
    if not abs(total - 1.0) <= 1e-9:  # NaN and infinite totals fail too
        raise ValueError(f"categorical weights must sum to 1, got {total!r}")
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(idx, len(w) - 1)


@dataclass(frozen=True)
class MhConfig:
    """Random-walk Metropolis-Hastings settings.

    ``init`` is the starting latent (a warm start from the previous
    retained sample, or a prior draw on first use).
    """

    chain_len: int
    proposal_scales: np.ndarray
    init: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "proposal_scales", np.asarray(self.proposal_scales, dtype=np.float64))
        object.__setattr__(self, "init", np.asarray(self.init, dtype=np.float64))
        if self.chain_len < 1:
            raise ValueError("chain_len must be a positive integer")
        if (self.proposal_scales <= 0.0).any():
            raise ValueError("proposal scales must be strictly positive")
        if self.proposal_scales.shape != self.init.shape:
            raise ValueError("proposal_scales and init must have the same shape")


def mh_chain(
    log_target: Callable[[np.ndarray], float],
    config: MhConfig,
    rng: np.random.Generator,
    collect: bool = False,
):
    """Run a symmetric random-walk MH chain and return its final state.

    Proposals are z' = z + scales * standard normal, accepted with
    probability min(1, exp(log_target(z') - log_target(z))).  The proposal
    is symmetric, so its density cancels from the ratio and is never
    evaluated; the acceptance test works purely on log-target differences,
    so no raw density is ever exponentiated.  A proposal where the target
    is -inf is auto-rejected; NaN aborts.

    With ``collect=True`` also returns the array of states, one row per
    step.
    """
    z = config.init.copy()
    lp = float(log_target(z))
    if math.isnan(lp):
        raise ValueError("log_target is NaN at the chain start")
    if lp == -np.inf:
        raise ValueError("log_target must be finite at the chain start")

    m = config.chain_len
    steps = rng.standard_normal((m,) + z.shape) * config.proposal_scales
    log_u = np.log(rng.random(m)).tolist()

    kept = np.empty((m,) + z.shape) if collect else None
    for t, (step, lu) in enumerate(zip(steps, log_u)):
        proposal = z + step
        lp_prop = float(log_target(proposal))
        if math.isnan(lp_prop):
            raise ValueError("log_target returned NaN at a proposal")
        if lu < lp_prop - lp:
            z, lp = proposal, lp_prop
        if collect:
            kept[t] = z
    return (z, kept) if collect else z
