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
so no raw exponential of an unnormalized term is ever taken.  Single-index
E-steps and the M-step run on plain floats, cheaper than numpy calls on 1-3
numbers.  Whole-dataset passes run one component-major (M, n) kernel: numpy
reduces a short inner axis one observation at a time, so an (n, M) layout
with M = 2 or 3 spends most of a pass on reduction overhead.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import ModelSpec, as_int
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
    """Mixture parameters: M-1 free weights and M means, plus the plain-float
    copies the per-sample kernels read (weights, log weights, means)."""

    omega: np.ndarray  # shape (M-1,), free weights; omega_M = 1 - sum is implied
    mu: np.ndarray     # shape (M,)

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=np.float64))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        if self.mu.ndim != 1 or self.omega.ndim != 1 or len(self.mu) != len(self.omega) + 1:
            raise ValueError("need M means and M-1 free weights")
        # checks in plain floats, on the copies the per-sample kernels read;
        # a NaN weight fails both comparisons.  numpy sums fewer than 8 terms
        # left to right, as sum() does; from 8 on it sums pairwise.
        omega = self.omega.tolist()
        total = sum(omega) if len(omega) < 8 else float(self.omega.sum())
        if not (all(w > 0.0 for w in omega) and total < 1.0):
            raise ValueError("weights must lie in the interior of the simplex")
        object.__setattr__(self, "_wlist", omega + [1.0 - total])
        object.__setattr__(self, "_logw", [math.log(w) for w in self._wlist])
        object.__setattr__(self, "_mulist", self.mu.tolist())
        if not all(map(math.isfinite, self._mulist)):
            raise ValueError("means must be finite")

    @property
    def n_components(self) -> int:
        return len(self.mu)

    def full_weights(self) -> np.ndarray:
        """All M weights, the implied last one appended."""
        return np.array(self._wlist)


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
    vals = s.tolist()
    s1, s2, s3 = vals[: m - 1], vals[m - 1 : 2 * m - 2], vals[2 * m - 2]
    # plain floats round as numpy does, and the sums run left to right as
    # numpy's do below 8 terms; a zero denominator raises where numpy gave inf
    try:
        omega = [(a + epsilon) / (1.0 + epsilon * m) for a in s1]
        mu = [b / (a + delta) for a, b in zip(s1, s2)] + [(s3 - sum(s2)) / (1.0 - sum(s1) + delta)]
        finite = all(map(math.isfinite, omega + mu))
    except ZeroDivisionError:
        finite = False
    if not finite:
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
    """Unnormalized posterior masses exp(logits - shift) as an (M, n) array,
    one row per component, and the (n,) per-observation maxima ``shift``,
    where logits = log(omega_m) - (y - mu_m)^2 / 2 is the log joint up to
    the constant -log(2 pi)/2.  Reductions over components run over axis 0,
    row against row, and the rows are built in place in one buffer."""
    p = np.subtract(data, params.mu[:, None])
    np.square(p, out=p)
    p *= 0.5
    np.subtract(np.log(params.full_weights())[:, None], p, out=p)
    shift = p.max(axis=0)
    p -= shift
    np.exp(p, out=p)
    return p, shift


def penalized_nll(data: np.ndarray, params: GmmParams, reg: GmmRegularizer) -> float:
    """Average negative marginal log-likelihood plus the regularizer."""
    w = params.full_weights()
    p, shift = _shifted_joint(data, params)
    log_marg = np.log(p.sum(axis=0))
    log_marg += shift
    log_marg -= 0.5 * _LOG_2PI
    pen = 0.5 * reg.delta * np.sum(params.mu**2) - reg.epsilon * np.sum(np.log(w))
    return float(-np.mean(log_marg) + pen)


def simulate(n: int, params: GmmParams, rng: np.random.Generator) -> np.ndarray:
    """Draw n observations: component per mixing weights, then N(mu_z, 1)."""
    if n == 0:
        return np.empty(0)
    labels = categorical_sample(params.full_weights(), rng, size=n)
    return params.mu[labels] + rng.standard_normal(n)


def _stat_row(s1: list, y: float) -> np.ndarray:
    """One observation's statistic from its M-1 indicator means s1."""
    return np.array(s1 + [p * y for p in s1] + [y])


class GmmModel(ModelSpec):
    """Mixture model bound to a dataset of scalar observations."""

    def __init__(self, data: np.ndarray, n_components: int = 2, reg: GmmRegularizer | None = None):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("data must be a nonempty 1-d array")
        if (n_components := as_int("n_components", n_components)) < 1:
            raise ValueError("need at least one component")
        self.data = data
        self.n_components = n_components
        self.reg = reg if reg is not None else GmmRegularizer()
        # data range as plain floats for the per-iteration membership test;
        # a NaN or an infinity in the data shows in one of them
        self._ymin = float(data.min())
        self._ymax = float(data.max())
        if not (math.isfinite(self._ymin) and math.isfinite(self._ymax)):
            raise ValueError("data must be finite")

    @property
    def n(self) -> int:
        return len(self.data)

    def stat_dim(self) -> int:
        return 2 * self.n_components - 1

    def param_names(self) -> list[str]:
        m = self.n_components
        return [f"omega{j + 1}" for j in range(m - 1)] + [f"mu{j + 1}" for j in range(m)]

    def flatten_params(self, theta: GmmParams) -> np.ndarray:
        return np.array(theta._wlist[:-1] + theta._mulist)  # omega then mu, from the plain-float copies

    def unflatten_params(self, vec: np.ndarray) -> GmmParams:
        m = self.n_components
        return GmmParams(omega=vec[: m - 1], mu=vec[m - 1 :])

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        # n_samples exact posterior label draws by inverse CDF, one uniform
        # each, averaged into the statistic; exact draws keep no chain
        # state.  Labels past the last knot (the fsum total can exceed the
        # running sum by an ulp) are clamped to the last component.
        y, probs, total = self._posterior_unnorm(i, theta)
        m = self.n_components
        cdf = list(accumulate(probs))
        counts = [0] * m
        for u in rng.random(n_samples).tolist():
            counts[bisect_right(cdf, u * total, 0, m - 1)] += 1
        return _stat_row([c / n_samples for c in counts[: m - 1]], y)

    def _posterior_unnorm(self, i: int, theta: GmmParams):
        # observation i and its masses as _shifted_joint computes them
        y = float(self.data[i])
        logits = [lw - 0.5 * ((y - mu) * (y - mu)) for lw, mu in zip(theta._logw, theta._mulist)]
        shift = max(logits)
        probs = [math.exp(v - shift) for v in logits]
        return y, probs, math.fsum(probs)

    def exact_expectation(self, i, theta):
        y, probs, total = self._posterior_unnorm(i, theta)
        return _stat_row([p / total for p in probs[:-1]], y)

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
        wt = p[:-1]
        wt /= p.sum(axis=0)
        return np.concatenate([wt.mean(axis=1), (wt * self.data).mean(axis=1), [self.data.mean()]])

    def default_init(self) -> GmmParams:
        """Deterministic starting point: quantile means, uniform weights."""
        m = self.n_components
        qs = np.quantile(self.data, np.linspace(0.25, 0.75, m))
        return GmmParams(omega=np.full(m - 1, 1.0 / m), mu=qs)


_REFERENCE_TOL = 1e-14  # stop once no parameter moves by this much
_REFERENCE_MAX_ITER = 200_000  # bound on EM map evaluations; 40-500 usually suffice


def fit_reference_em(data: np.ndarray, init: GmmParams | None = None) -> GmmParams:
    """Penalized-EM fixed point from ``init`` (which sets M; the two-component
    default start when omitted), the reference of the precision metric.

    SQUAREM (Varadhan & Roland, Scand. J. Statist. 2008, SqS3) over the EM map
    F: with r = F(x) - x, v = F(F(x)) - 2 F(x) + x and a = min(-|r|/|v|, -1)
    (-1 when v = 0), a cycle keeps F(x - 2a r + a^2 v) when that point is valid
    and its image's penalized NLL is at most F(F(x))'s, else moves a halfway
    to -1; after two tries it keeps F(F(x)).  Stops as plain EM does, at the
    first EM step that moves no parameter by ``_REFERENCE_TOL``, and raises
    FloatingPointError after ``_REFERENCE_MAX_ITER`` evaluations of F.
    """
    model = GmmModel(data, init.n_components if init is not None else 2)
    theta = init if init is not None else model.default_init()
    evals = 0
    while evals < _REFERENCE_MAX_ITER:
        xs = [model.flatten_params(theta)]
        for _ in range(2):
            theta = model.m_step(model.exact_batch_stat(theta))
            xs.append(model.flatten_params(theta))
            if (step := float(np.max(np.abs(xs[-1] - xs[-2])))) < _REFERENCE_TOL:
                return theta
        evals += 2
        r, v = xs[1] - xs[0], xs[2] - 2.0 * xs[1] + xs[0]
        alpha = min(-float(np.linalg.norm(r)) / (float(np.linalg.norm(v)) or math.inf), -1.0)
        target = model.penalized_nll(theta)
        for _ in range(2):  # four tries took 5% more maps over 40 datasets at n = 2000
            try:
                point = model.unflatten_params(xs[0] - 2.0 * alpha * r + alpha * alpha * v)
                evals += 1
                trial = model.m_step(model.exact_batch_stat(point))
            except (ValueError, FloatingPointError):
                trial = None  # the point left the parameter set
            if trial is not None and model.penalized_nll(trial) <= target:
                theta = trial
                break
            alpha = (alpha - 1.0) / 2.0
    raise FloatingPointError(f"reference EM on n={model.n} unconverged in {evals} EM maps; last step {step:.3g}")


def read_dataset(path) -> np.ndarray:
    """One decimal observation per LF-terminated line."""
    with open(path, "r", encoding="ascii") as fh:
        return np.array([float(line) for line in fh if line.strip()], dtype=np.float64)


def write_dataset(path, data: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for y in data:
            fh.write(repr(float(y)))
            fh.write("\n")
