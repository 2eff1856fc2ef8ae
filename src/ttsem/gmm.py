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
E-steps, the projection and the M-step run on the plain floats the model
interface passes, cheaper than numpy calls on 1-3 numbers.  Whole-dataset
passes run one component-major (M, n) kernel: numpy reduces a short inner
axis one observation at a time, so an (n, M) layout with M = 2 or 3 spends
most of a pass on reduction overhead.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import accumulate

import numpy as np

from .core import INDEX_MAX, ModelSpec, as_int
from .samplers import categorical_sample

__all__ = [
    "GmmParams",
    "GmmModel",
    "m_step",
    "simulate",
    "fit_reference_em",
    "read_dataset",
    "write_dataset",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _left_sum(xs) -> float:
    """Floats summed left to right from 0.0, as numpy sums fewer than 8 terms;
    sum() compensates its float additions since Python 3.12."""
    total = 0.0
    for x in xs:
        total += x
    return total


class GmmParams:
    """Immutable mixture parameters: M-1 free weights ``omega`` (omega_M = 1 -
    sum is implied) and M means ``mu``, float64 arrays built on first use from
    the plain floats the kernels read (all M weights, their logs, the means)."""

    def __init__(self, omega, mu):
        omega, mu = np.asarray(omega, dtype=np.float64), np.asarray(mu, dtype=np.float64)
        if mu.ndim != 1 or omega.ndim != 1 or len(mu) != len(omega) + 1:
            raise ValueError("need M means and M-1 free weights")
        self._fill(omega.tolist(), mu.tolist())
        if not all(map(math.isfinite, self._mulist)):
            raise ValueError("means must be finite")

    def _fill(self, omega: list, mu: list) -> GmmParams:
        # m_step builds here, from floats it has checked finite.  A NaN weight
        # fails both comparisons.  numpy sums fewer than 8 terms left to right,
        # as _left_sum does; from 8 on it sums pairwise.
        total = _left_sum(omega) if len(omega) < 8 else float(np.sum(omega))
        if not (all(map((0.0).__lt__, omega)) and total < 1.0):
            raise ValueError("weights must lie in the interior of the simplex")
        d, w = self.__dict__, omega + [1.0 - total]  # stored past __setattr__, which refuses
        d["_wlist"], d["_logw"], d["_mulist"], d["n_components"] = w, [math.log(v) for v in w], mu, len(mu)
        return self

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"GmmParams(omega={self.omega!r}, mu={self.mu!r})"

    omega = cached_property(lambda self: np.array(self._wlist[:-1]))
    mu = cached_property(lambda self: np.array(self._mulist))

    def full_weights(self) -> np.ndarray:
        """All M weights, the implied last one appended."""
        return np.array(self._wlist)


def m_step(s: list, delta: float, epsilon: float, n_components: int) -> GmmParams:
    """Closed-form regularized M-step.

    omega_m = (s1_m + epsilon) / (1 + epsilon*M)            for m < M
    mu_m    = s2_m / (s1_m + delta)                          for m < M
    mu_M    = (s3 - sum s2) / (1 - sum s1 + delta)

    Tolerates the delta = epsilon = 0 edge as long as the denominators stay
    positive; GmmModel's checks (delta, epsilon > 0) keep them away from zero.
    The parameters are checked once: finite here, interior weights in _fill,
    which builds them without the constructor's array round trip.
    """
    m, scale = n_components, 1.0 + epsilon * n_components
    s1, s2, s3 = s[: m - 1], s[m - 1 : 2 * m - 2], s[2 * m - 2]
    # plain floats round as numpy does, and _left_sum adds as numpy does below
    # 8 terms; a zero denominator raises where numpy gave inf
    try:
        omega = [(a + epsilon) / scale for a in s1]
        mu = [b / (a + delta) for a, b in zip(s1, s2)] + [(s3 - _left_sum(s2)) / (1.0 - _left_sum(s1) + delta)]
        finite = all(map(math.isfinite, omega + mu))
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise FloatingPointError(f"M-step produced non-finite parameters from s={s!r}")
    return object.__new__(GmmParams)._fill(omega, mu)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the closed simplex {x >= 0, sum(x) <= 1}."""
    x = np.maximum(v, 0.0)
    if _left_sum(x.tolist()) <= 1.0:
        return x
    # onto the face sum(x) = 1: x = max(v - tau, 0) (Duchi et al., 2008)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    r = int(np.flatnonzero(u - css / np.arange(1, len(u) + 1) > 0.0)[-1])
    x = np.maximum(v - css[r] / (r + 1), 0.0)
    # rounding can leave the sum an ulp above 1; step down onto the set
    while _left_sum(x.tolist()) > 1.0:
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


def simulate(n: int, params: GmmParams, rng: np.random.Generator) -> np.ndarray:
    """Draw n observations: component per mixing weights, then N(mu_z, 1)."""
    if n == 0:
        return np.empty(0)
    labels = categorical_sample(params.full_weights(), rng, size=n)
    return params.mu[labels] + rng.standard_normal(n)


_UNIFORM_BLOCK = 256  # uniforms a posterior stream draws ahead: 8 kB of floats


def _uniforms(n: int, rng: np.random.Generator, chains: dict | None) -> list:
    """The next n uniforms of ``rng``: drawn now without ``chains``, else read
    from the block ``chains`` keeps, refilled from ``rng`` when it runs short.
    Either way the stream is read as per-call ``rng.random(n)`` draws read it."""
    if chains is None:
        return rng.random(n).tolist()
    block, pos = chains.get("uniforms", ((), 0))
    if pos + n > len(block):
        block, pos = [*block[pos:], *rng.random(max(n, _UNIFORM_BLOCK)).tolist()], 0
    chains["uniforms"] = block, pos + n
    return block[pos : pos + n]


def _stat_row(s1: list, y: float) -> list:
    """One observation's statistic from its M-1 indicator means s1."""
    return s1 + [p * y for p in s1] + [y]


class GmmModel(ModelSpec):
    """Mixture model bound to a dataset of scalar observations, with the
    regularizer's ridge strength ``delta`` on the means and Dirichlet
    concentration ``epsilon`` on the weights."""

    def __init__(self, data: np.ndarray, n_components: int = 2, delta: float = 1e-3, epsilon: float = 1e-3):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("data must be a nonempty 1-d array")
        self.data = data
        self.n_components = as_int("n_components", n_components, 1, INDEX_MAX)
        for name, value in (("delta", delta), ("epsilon", epsilon)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        self.delta, self.epsilon = delta, epsilon
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

    def flatten_params(self, theta: GmmParams) -> list:
        return theta._wlist[:-1] + theta._mulist  # omega then mu

    def unflatten_params(self, vec) -> GmmParams:
        m = self.n_components
        return GmmParams(omega=vec[: m - 1], mu=vec[m - 1 :])

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        # n_samples exact posterior label draws by inverse CDF, one uniform
        # each, averaged into the statistic: label m holds the draws with
        # cdf[m-1] <= u * total < cdf[m], as bisect_right finds them.  Labels
        # past the last knot (the fsum total can exceed the running sum by an
        # ulp) fall to the last component, whose count the statistic omits.
        y, probs, total = self._posterior_unnorm(i, theta)
        us = _uniforms(n_samples, rng, chains)
        s1, seen = [], 0
        for knot in accumulate(probs[:-1]):
            below = len([u for u in us if u * total < knot])
            s1.append((below - seen) / n_samples)
            seen = below
        return _stat_row(s1, y)

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
        s1, s2 = s[:m1], s[m1 : 2 * m1]
        for a, b in zip(s1, s2):
            if not (0.0 <= a and a * lo <= b <= a * hi):
                break
        else:
            if _left_sum(s1) <= 1.0:
                return s
        w = _project_simplex(np.array(s1))
        return w.tolist() + np.clip(s2, w * lo, w * hi).tolist() + s[2 * m1 :]

    def m_step(self, s):
        return m_step(s, self.delta, self.epsilon, self.n_components)

    def penalized_nll(self, theta: GmmParams) -> float:
        """Average negative marginal log-likelihood plus the regularizer."""
        w = theta.full_weights()
        p, shift = _shifted_joint(self.data, theta)
        log_marg = np.log(p.sum(axis=0))
        log_marg += shift
        log_marg -= 0.5 * _LOG_2PI
        pen = 0.5 * self.delta * np.sum(theta.mu**2) - self.epsilon * np.sum(np.log(w))
        return float(-np.mean(log_marg) + pen)

    def exact_batch_stat(self, theta: GmmParams) -> list:
        """Mean of exact_expectation over the whole dataset, vectorized."""
        p, _ = _shifted_joint(self.data, theta)
        wt = p[:-1]
        wt /= p.sum(axis=0)
        return np.concatenate([wt.mean(axis=1), (wt * self.data).mean(axis=1), [self.data.mean()]]).tolist()

    def default_init(self) -> GmmParams:
        """Deterministic starting point: uniform weights, and means at the
        25%..75% quantiles, interpolated bit for bit as np.quantile's linear
        method does (numpy's _lerp), without its import of numpy.ma."""
        m, top, mu = self.n_components, self.n - 1, []
        # each quantile's virtual index and its two neighbours (-1: the maximum)
        spots = [(v, -1, -1) if v >= top else (v, math.floor(v), math.floor(v) + 1)
                 for v in (top * q for q in np.linspace(0.25, 0.75, m).tolist())]
        # np.quantile's own partial sort, so equal values (-0.0, 0.0) land alike
        xs = np.partition(self.data, sorted({0, -1}.union(*[s[1:] for s in spots])))
        for v, lo, hi in spots:
            a, b, t = float(xs[lo]), float(xs[hi]), v - lo
            mu.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
        return GmmParams(omega=np.full(m - 1, 1.0 / m), mu=mu)


_REFERENCE_TOL = 1e-14  # stop once no parameter moves by this much
_REFERENCE_MAX_ITER = 200_000  # bound on EM map evaluations; 40-500 usually suffice


def fit_reference_em(data: np.ndarray, init: GmmParams | None = None, *, delta: float = 1e-3,
                     epsilon: float = 1e-3) -> GmmParams:
    """Penalized-EM fixed point from ``init`` (which sets M; the two-component
    default start when omitted) under the regularizer ``delta``, ``epsilon``
    (GmmModel's), the reference of the precision metric.

    SQUAREM (Varadhan & Roland, Scand. J. Statist. 2008, SqS3) over the EM map
    F: with r = F(x) - x, v = F(F(x)) - 2 F(x) + x and a = min(-|r|/|v|, -1)
    (-1 when v = 0), a cycle keeps F(x - 2a r + a^2 v) when that point is valid
    and its image's penalized NLL is at most F(F(x))'s, else moves a halfway
    to -1; after two tries it keeps F(F(x)).  Stops as plain EM does, at the
    first EM step that moves no parameter by ``_REFERENCE_TOL``, and raises
    FloatingPointError after ``_REFERENCE_MAX_ITER`` evaluations of F.
    """
    model = GmmModel(data, init.n_components if init is not None else 2, delta, epsilon)
    theta = init if init is not None else model.default_init()
    evals = 0
    while evals < _REFERENCE_MAX_ITER:
        xs = [np.array(model.flatten_params(theta))]
        for _ in range(2):
            theta = model.m_step(model.exact_batch_stat(theta))
            xs.append(np.array(model.flatten_params(theta)))
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
