"""Penalized Gaussian mixture model with unit-variance components.

Parameters are theta = (omega, mu) with omega the M-1 free mixing weights
(the last weight is implied) and mu the M component means.  The statistic
vector has layout

    [ s1 (M-1 indicator means) | s2 (M-1 indicator*y means) | s3 (mean y) ]

of flat length k = 2M - 1.  The regularizer is a ridge on the means plus a
symmetric Dirichlet barrier on the weights,

    R(theta) = (delta/2) * sum_m mu_m^2 - epsilon * sum_m log(omega_m),

with the implied last weight included in the barrier sum, which keeps the
closed-form M-step interior and unique for delta, epsilon > 0.

Posterior masses are exponentials of log joints shifted by their maximum,
so no raw exponential of an unnormalized term is ever taken.  One scalar
kernel serves single-index E-steps and one vectorized kernel serves
whole-dataset passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelSpec
from .samplers import categorical_sample

__all__ = [
    "GmmParams",
    "GmmRegularizer",
    "GmmModel",
    "m_step",
    "penalized_nll",
    "simulate",
    "fit_reference_em",
    "read_dataset",
    "write_dataset",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GmmParams:
    """Mixture parameters: M-1 free weights and M means."""

    omega: np.ndarray  # shape (M-1,), free weights; omega_M = 1 - sum is implied
    mu: np.ndarray     # shape (M,)

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=np.float64))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        if self.mu.ndim != 1 or self.omega.ndim != 1 or len(self.mu) != len(self.omega) + 1:
            raise ValueError("need M means and M-1 free weights")
        if np.any(self.omega <= 0.0) or self.omega.sum() >= 1.0:
            raise ValueError("weights must lie in the interior of the simplex")
        if not np.all(np.isfinite(self.mu)):
            raise ValueError("means must be finite")
        object.__setattr__(
            self, "_wfull", np.concatenate([self.omega, [1.0 - self.omega.sum()]])
        )

    @property
    def n_components(self) -> int:
        return len(self.mu)

    def full_weights(self) -> np.ndarray:
        """All M weights, the implied last one appended."""
        return self._wfull


@dataclass(frozen=True)
class GmmRegularizer:
    """Ridge strength on the means and Dirichlet concentration on weights."""

    delta: float = 1e-3
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.delta <= 0.0 or self.epsilon <= 0.0:
            raise ValueError("delta and epsilon must be strictly positive")


def m_step(s: np.ndarray, delta: float, epsilon: float, n_components: int) -> GmmParams:
    """Closed-form regularized M-step.

    omega_m = (s1_m + epsilon) / (1 + epsilon*M)            for m < M
    mu_m    = s2_m / (s1_m + delta)                          for m < M
    mu_M    = (s3 - sum s2) / (1 - sum s1 + delta)

    Tolerates the delta = epsilon = 0 edge as long as the denominators stay
    positive; the model-level regularizer guarantees them away from zero.
    """
    m = n_components
    s1, s2, s3 = s[: m - 1], s[m - 1 : 2 * m - 2], s[2 * m - 2]
    omega = (s1 + epsilon) / (1.0 + epsilon * m)
    mu = np.empty(m)
    mu[: m - 1] = s2 / (s1 + delta)
    mu[m - 1] = (s3 - s2.sum()) / (1.0 - s1.sum() + delta)
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(mu))):
        raise FloatingPointError(f"M-step produced non-finite parameters from s={s!r}")
    return GmmParams(omega=omega, mu=mu)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the closed simplex {x >= 0, sum(x) <= 1}."""
    x = np.maximum(v, 0.0)
    if sum(x.tolist()) <= 1.0:
        return x
    # onto the face sum(x) = 1: x = max(v - tau, 0) (Duchi et al., 2008)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    r = int(np.flatnonzero(u - css / np.arange(1, len(u) + 1) > 0.0)[-1])
    x = np.maximum(v - css[r] / (r + 1), 0.0)
    # rounding can leave the sum an ulp above 1; step down onto the set
    while sum(x.tolist()) > 1.0:
        x = np.nextafter(x, 0.0)
    return x


def _shifted_joint(data: np.ndarray, params: GmmParams) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized posterior masses exp(logits - shift) of every observation
    and the (n, 1) row maxima ``shift``, where logits = log(omega_m) -
    (y - mu_m)^2 / 2 is the log joint up to the constant -log(2 pi)/2."""
    logits = np.log(params.full_weights())[None, :] - 0.5 * (data[:, None] - params.mu[None, :]) ** 2
    shift = logits.max(axis=1, keepdims=True)
    return np.exp(logits - shift), shift


def penalized_nll(data: np.ndarray, params: GmmParams, reg: GmmRegularizer) -> float:
    """Average negative marginal log-likelihood plus the regularizer."""
    w = params.full_weights()
    p, shift = _shifted_joint(data, params)
    log_marg = shift[:, 0] + np.log(p.sum(axis=1)) - 0.5 * _LOG_2PI
    pen = 0.5 * reg.delta * np.sum(params.mu**2) - reg.epsilon * np.sum(np.log(w))
    return float(-np.mean(log_marg) + pen)


def simulate(n: int, params: GmmParams, rng: np.random.Generator) -> np.ndarray:
    """Draw n observations: component per mixing weights, then N(mu_z, 1)."""
    if n == 0:
        return np.empty(0)
    labels = categorical_sample(params.full_weights(), rng, size=n)
    return params.mu[labels] + rng.standard_normal(n)


class GmmModel(ModelSpec):
    """Mixture model bound to a dataset of scalar observations."""

    def __init__(self, data: np.ndarray, n_components: int = 2, reg: GmmRegularizer | None = None):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("data must be a nonempty 1-d array")
        if n_components < 1:
            raise ValueError("need at least one component")
        self.data = data
        self.n_components = n_components
        self.reg = reg if reg is not None else GmmRegularizer()
        # data range as plain floats for the per-iteration membership test
        self._ymin = float(data.min())
        self._ymax = float(data.max())

    @property
    def n(self) -> int:
        return len(self.data)

    def stat_dim(self) -> int:
        return 2 * self.n_components - 1

    def param_names(self) -> list[str]:
        m = self.n_components
        return [f"omega{j + 1}" for j in range(m - 1)] + [f"mu{j + 1}" for j in range(m)]

    def flatten_params(self, theta: GmmParams) -> np.ndarray:
        return np.concatenate([theta.omega, theta.mu])

    def unflatten_params(self, vec: np.ndarray) -> GmmParams:
        m = self.n_components
        return GmmParams(omega=vec[: m - 1], mu=vec[m - 1 :])

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        # n_samples exact posterior label draws by inverse CDF, one uniform
        # each, averaged into the statistic; exact draws keep no chain
        # state.  Scalar arithmetic: this runs millions of times per
        # benchmark and numpy overhead dominates at mixture sizes of 2 or 3.
        y = float(self.data[i])
        probs, total = self._posterior_unnorm(y, theta)
        m = self.n_components
        cdf = np.cumsum(probs)
        labels = np.searchsorted(cdf, rng.random(n_samples) * total, side="right")
        counts = np.bincount(np.minimum(labels, m - 1), minlength=m)
        out = np.empty(2 * m - 1)
        out[: m - 1] = counts[: m - 1]
        out[: m - 1] /= n_samples
        out[m - 1 : 2 * m - 2] = out[: m - 1] * y
        out[-1] = y
        return out

    @staticmethod
    def _posterior_unnorm(y: float, theta: GmmParams):
        # one observation's masses as _shifted_joint computes them, in
        # plain floats
        mu = theta.mu
        w = theta.full_weights()
        logits = [math.log(w[j]) - 0.5 * (y - mu[j]) ** 2 for j in range(len(mu))]
        shift = max(logits)
        probs = [math.exp(v - shift) for v in logits]
        return probs, math.fsum(probs)

    def exact_expectation(self, i, theta):
        y = float(self.data[i])
        probs, total = self._posterior_unnorm(y, theta)
        m = self.n_components
        out = np.empty(2 * m - 1)
        for j in range(m - 1):
            out[j] = probs[j] / total
        out[m - 1 : 2 * m - 2] = out[: m - 1] * y
        out[-1] = y
        return out

    def project(self, s):
        """Map s onto the closed statistic set; the identity on that set.

        The set is s1 in the closed simplex (s1 >= 0, sum(s1) <= 1) with
        s1_m * min(y) <= s2_m <= s1_m * max(y); s3 is the data mean for
        every proxy and is left alone.  On the set the M-step weights are
        interior for any epsilon > 0 and every mean is finite.  Outside it,
        s1 goes to its Euclidean projection and each s2_m is clipped.
        """
        m1 = self.n_components - 1
        lo, hi = self._ymin, self._ymax
        # membership test in plain floats: this runs once per iteration
        vals = s.tolist()
        s1 = vals[:m1]
        for a, b in zip(s1, vals[m1 : 2 * m1]):
            if not (0.0 <= a and a * lo <= b <= a * hi):
                break
        else:
            if sum(s1) <= 1.0:
                return s
        w = _project_simplex(s[:m1])
        out = s.copy()
        out[:m1] = w
        out[m1 : 2 * m1] = np.clip(s[m1 : 2 * m1], w * lo, w * hi)
        return out

    def m_step(self, s):
        return m_step(s, self.reg.delta, self.reg.epsilon, self.n_components)

    def penalized_nll(self, theta):
        return penalized_nll(self.data, theta, self.reg)

    def exact_batch_stat(self, theta: GmmParams) -> np.ndarray:
        """Mean of exact_expectation over the whole dataset, vectorized."""
        p, _ = _shifted_joint(self.data, theta)
        p /= p.sum(axis=1, keepdims=True)
        wt = p[:, :-1]
        return np.concatenate(
            [wt.mean(axis=0), (wt * self.data[:, None]).mean(axis=0), [self.data.mean()]]
        )

    def default_init(self) -> GmmParams:
        """Deterministic starting point: quantile means, uniform weights."""
        m = self.n_components
        qs = np.quantile(self.data, np.linspace(0.25, 0.75, m))
        return GmmParams(omega=np.full(m - 1, 1.0 / m), mu=qs)


def fit_reference_em(
    data: np.ndarray,
    n_components: int = 2,
    reg: GmmRegularizer | None = None,
    tol: float = 1e-14,
    max_iter: int = 200_000,
    init: GmmParams | None = None,
) -> GmmParams:
    """Batch EM iterated until the parameter vector stops moving.

    Vectorized over the dataset; used to pin the maximum-likelihood
    reference the benchmark precision metric is measured against.
    """
    model = GmmModel(data, n_components, reg)
    theta = init if init is not None else model.default_init()
    prev = model.flatten_params(theta)
    for _ in range(max_iter):
        theta = model.m_step(model.exact_batch_stat(theta))
        cur = model.flatten_params(theta)
        if np.max(np.abs(cur - prev)) < tol:
            break
        prev = cur
    return theta


def read_dataset(path) -> np.ndarray:
    """One decimal observation per LF-terminated line."""
    with open(path, "r", encoding="ascii") as fh:
        return np.array([float(line) for line in fh if line.strip()], dtype=np.float64)


def write_dataset(path, data: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for y in data:
            fh.write(repr(float(y)))
            fh.write("\n")
