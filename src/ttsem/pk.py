"""One-compartment oral-absorption PK model with a lag time.

Each patient i has a latent vector z_i = (T_lag, ka, V, k) of positive PK
parameters with lognormal population distributions, and J concentration
measurements

    y_ij = f(t_ij, z_i) + e_ij,   e_ij ~ N(0, sigma^2),

where f is zero before the lag time and a double-exponential wash-in /
wash-out afterwards.  Latents are handled in log space throughout, which
makes positivity automatic and lets the random-walk sampler move freely.

Statistic layout (k = 15):

    [ s1 (4): mean log-latent | s2 (10): upper triangle of the mean
      log-latent outer product, row-major | s3 (1): mean squared residual
      per observation ]

The moment M-step reads the population mean and covariance straight off
(s1, s2) and the residual variance off s3.

Each MH chain evaluates the log target ``_log_target`` prepares per patient
over the prior factor ``PkParams`` builds once per theta, each step on plain
floats through the curve formulas ``structural`` and ``suff_stat`` call too.
``log_posterior`` is a call into it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ModelSpec
from .samplers import MhConfig, mh_chain

__all__ = [
    "PkParams",
    "PkIndividual",
    "PkModel",
    "structural",
    "log_posterior",
    "suff_stat",
    "m_step",
    "simulate",
    "default_design",
    "paper_truth",
    "read_cohort",
    "write_cohort",
    "pack_sym",
    "unpack_sym",
]

logger = logging.getLogger(__name__)

LATENT_NAMES = ("tlag", "ka", "V", "k")
LATENT_DIM = 4
STAT_DIM = 4 + 10 + 1

_TRIU = np.triu_indices(LATENT_DIM)

# Switch to the removable-singularity branch when ka and k are this close.
_BRANCH_RTOL = 1e-8
# Floors applied by the M-step when the moment estimates degenerate.
OMEGA_EIG_FLOOR = 1e-8
SIGMA2_FLOOR = 1e-10


@dataclass(frozen=True)
class PkParams:
    """Population parameters: log fixed effects, log-latent covariance,
    residual variance."""

    log_pop: np.ndarray   # (4,) log of (T_lag, ka, V, k) population values
    omega2: np.ndarray    # (4, 4) symmetric positive definite
    sigma2: float

    def __post_init__(self):
        log_pop = np.asarray(self.log_pop, dtype=np.float64)
        omega2 = np.asarray(self.omega2, dtype=np.float64)
        if omega2.ndim == 1:
            omega2 = np.diag(omega2)
        if log_pop.shape != (LATENT_DIM,):
            raise ValueError("log_pop must have length 4")
        if omega2.shape != (LATENT_DIM, LATENT_DIM):
            raise ValueError("omega2 must be 4x4 (or a length-4 diagonal)")
        # plain floats, cheaper than numpy on a 4x4: np.allclose(omega2, omega2.T)
        om = omega2.tolist()
        pairs = [(om[r][c], om[c][r], r == c) for r in range(LATENT_DIM) for c in range(LATENT_DIM)]
        if not all(x == y or abs(x - y) <= 1e-8 + 1e-5 * abs(y) < math.inf for x, y, _ in pairs):
            raise ValueError("omega2 must be symmetric")
        if not all(map(math.isfinite, log_pop.tolist() + sum(om, []) + [float(self.sigma2)])):
            raise ValueError("log_pop, omega2 and sigma2 must be finite")
        # Positive semidefinite is enough to carry the parameters around
        # (degenerate values are legal for simulation); estimation paths
        # that need a proper prior fail loudly on a singular omega2.
        diag = None if any(x for x, _, on in pairs if not on) else [x for x, _, on in pairs if on]
        if (min(diag) if diag else np.linalg.eigvalsh(omega2)[0]) < -1e-12:
            raise ValueError("omega2 must be positive semidefinite")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        self._fill(log_pop, omega2, self.sigma2, diag)

    def _fill(self, log_pop: np.ndarray, omega2: np.ndarray, sigma2, diag) -> PkParams:
        # m_step builds here too, from finite floored variances, whose np.diag
        # passes the constructor's checks; diag is the eigenvalues, when omega2 is diagonal
        d = self.__dict__  # stored past the frozen dataclass's __setattr__
        d["log_pop"], d["omega2"], d["sigma2"], d["_diag"] = log_pop, omega2, sigma2, diag
        return self

    @property
    def pop(self) -> np.ndarray:
        """Fixed effects on the natural scale."""
        return np.exp(self.log_pop)

    @cached_property
    def _prior(self) -> list:
        """The factor of omega2 every log target under these params reads: the
        reciprocal diagonal, else the rows of the inverse Cholesky factor.
        Built on first use, so a singular omega2 raises LinAlgError there."""
        diag = self._diag
        if diag is not None and not min(diag) > 0.0:
            raise np.linalg.LinAlgError("omega2 is singular")
        return [1.0 / x for x in diag] if diag else np.linalg.inv(np.linalg.cholesky(self.omega2)).tolist()

    @cached_property
    def _sds(self) -> np.ndarray:
        """The prior standard deviations, positive once ``_prior`` is built."""
        return np.sqrt(self.omega2.diagonal())

    # checked MH configs of chains under these params, by (chain length, proposal factor, scale floor)
    _configs = cached_property(lambda self: {})


@dataclass(frozen=True)
class PkIndividual:
    """One patient: dose plus concentration measurements over time."""

    dose: float
    times: np.ndarray
    obs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "obs", np.asarray(self.obs, dtype=np.float64))
        if not 0.0 < self.dose < math.inf:
            raise ValueError(f"dose must be positive and finite, got {self.dose}")
        if self.times.ndim != 1 or self.obs.ndim != 1 or len(self.times) < 1 or len(self.times) != len(self.obs):
            raise ValueError("times and obs must be equal-length nonempty vectors")
        times = self.times.tolist()  # plain floats, cheaper than numpy on a few values
        if not all(map(math.isfinite, times + self.obs.ravel().tolist())):
            raise ValueError("times and obs must be finite")
        if not all(map(float.__lt__, times, times[1:])):  # finite here, so a < b exactly when b - a > 0
            raise ValueError("times must be strictly increasing")


def _conc_general(t, tlag, ka, v, k, dose):
    # At each time of the list t; zero at and before the lag.
    # (e^{-k dt} - e^{-ka dt}) / (ka - k), factored through the smaller rate
    # so expm1 only ever sees nonpositive arguments: no overflow for any
    # positive rates, and no cancellation when the rates nearly coincide.
    c, lo, gap = dose * ka / v, -min(ka, k), -abs(ka - k)
    return [c * (math.exp(lo * dt) * math.expm1(gap * dt) / gap) if (dt := s - tlag) > 0.0 else 0.0 for s in t]


def _conc_limit(t, tlag, ka, v, k, dose):
    # ka -> k limit of the general branch: D ka dt e^{-k dt} / V.
    return [dose * ka * dt * math.exp(-k * dt) / v if (dt := s - tlag) > 0.0 else 0.0 for s in t]


def structural(t, z, dose: float):
    """Predicted concentration at time(s) t for latent z = (T_lag, ka, V, k).

    Zero at and before the lag time; continuous across the ka = k branch
    switch.  Scalar t in, float out; an array of times gives one of its shape.
    """
    tlag, ka, v, k = np.asarray(z, dtype=np.float64).tolist()
    out = _curve(np.asarray(t, dtype=np.float64).reshape(-1).tolist(), tlag, ka, v, k, dose)
    return out[0] if np.ndim(t) == 0 else np.array(out).reshape(np.shape(t))


def _curve(t: list, tlag, ka, v, k, dose) -> list:
    """``structural`` on plain floats: the curve at each time of the list t."""
    if min(tlag, ka, v, k) <= 0.0:
        raise ValueError("latent PK parameters must be strictly positive")
    conc = _conc_limit if abs(ka - k) < _BRANCH_RTOL * max(ka, k) else _conc_general
    return conc(t, tlag, ka, v, k, dose)


def _log_target(indiv: PkIndividual, params: PkParams):
    """``log_posterior`` of one patient at fixed params, prepared for a chain:
    the prior factor ``params`` holds (a singular omega2 raises LinAlgError
    here), then every call on plain floats."""
    times, obs, dose = indiv.times.tolist(), indiv.obs.tolist(), indiv.dose
    sigma2, diag, prior = params.sigma2, params._diag, params._prior
    (m0, m1, m2, m3), (p0, p1, p2, p3) = params.log_pop.tolist(), prior  # p: the reciprocals, or the rows

    def log_target(z_log: np.ndarray) -> float:
        z0, z1, z2, z3 = z_log.tolist()
        if not (-700.0 < z0 < 700.0 and -700.0 < z1 < 700.0 and -700.0 < z2 < 700.0 and -700.0 < z3 < 700.0):
            return -math.inf  # exp would over/underflow (NaN fails too); signal auto-reject
        tlag, ka, v, k = np.exp(z_log).tolist()
        conc = _conc_limit if abs(ka - k) < _BRANCH_RTOL * max(ka, k) else _conc_general
        rss = math.dist(obs, conc(times, tlag, ka, v, k, dose))
        rss *= rss  # a product, which overflows to inf, not a power, which raises
        if not math.isfinite(rss):
            return -math.inf  # structurally absurd latent; auto-reject
        # chains of +, left to right on every interpreter (sum() compensates since 3.12)
        d0, d1, d2, d3 = z0 - m0, z1 - m1, z2 - m2, z3 - m3
        if diag:
            quad = d0 * d0 * p0 + d1 * d1 * p1 + d2 * d2 * p2 + d3 * d3 * p3
        else:
            w0, w1, w2, w3 = (c0 * d0 + c1 * d1 + c2 * d2 + c3 * d3 for c0, c1, c2, c3 in prior)
            quad = w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3
        return -0.5 * rss / sigma2 - 0.5 * quad

    return log_target


def log_posterior(indiv: PkIndividual, z_log: np.ndarray, params: PkParams) -> float:
    """Unnormalized log posterior of one patient's log-latent vector.

    Sum of the data term -||y - f||^2 / (2 sigma^2) and the prior quadratic
    form; additive constants in z are dropped, so the value is exactly zero
    at a perfect fit evaluated at the prior mode.
    """
    return _log_target(indiv, params)(np.asarray(z_log, dtype=np.float64))


def suff_stat(indiv: PkIndividual, z_log: np.ndarray) -> list:
    """Statistic vector for one patient at a sampled log-latent, as k floats."""
    z_log = np.asarray(z_log, dtype=np.float64)
    tlag, ka, v, k = np.exp(z_log).tolist()  # the curve as the log target evaluates it
    conc = _conc_limit if abs(ka - k) < _BRANCH_RTOL * max(ka, k) else _conc_general
    resid = indiv.obs - conc(indiv.times.tolist(), tlag, ka, v, k, indiv.dose)
    z0, z1, z2, z3 = z = z_log.tolist()  # the outer product's upper triangle, row-major, as np.outer rounds it
    return z + [z0 * z0, z0 * z1, z0 * z2, z0 * z3, z1 * z1, z1 * z2, z1 * z3, z2 * z2, z2 * z3, z3 * z3,
                float(resid @ resid) / len(indiv.obs)]


def pack_sym(mat: np.ndarray) -> np.ndarray:
    """Upper triangle of a symmetric 4x4, row-major."""
    return mat[_TRIU]


def unpack_sym(flat: np.ndarray) -> np.ndarray:
    """Inverse of pack_sym."""
    mat = np.zeros((LATENT_DIM, LATENT_DIM))
    mat[_TRIU] = flat
    return mat + np.triu(mat, 1).T


def m_step(s, diagonal: bool = True) -> PkParams:
    """Moment M-step: mean, covariance and residual variance from (s1, s2, s3).

    A degenerate covariance estimate is floored (diagonal entries, or
    eigenvalues in full-matrix mode) and the event logged; s3 is floored at
    a tiny positive value so the next E-step target stays proper.
    """
    sigma2 = max(float(s[-1]), SIGMA2_FLOOR)
    if diagonal:
        s = s if type(s) is list else np.asarray(s, dtype=np.float64).tolist()  # plain floats, as _diag holds
        # s2_rr - s1_r^2 at s2's diagonal places: np.diag(unpack_sym(s2) - np.outer(s1, s1)), bit for bit
        diag = [s[r] - s[c] * s[c] for c, r in enumerate((4, 8, 11, 13))]
        if low := sum(x < OMEGA_EIG_FLOOR for x in diag):
            logger.info("flooring %d diagonal variance(s) at %.1e", low, OMEGA_EIG_FLOOR)
            diag = [max(x, OMEGA_EIG_FLOOR) for x in diag]
        if not all(map(math.isfinite, [*s[:LATENT_DIM], *diag, sigma2])):
            raise ValueError("log_pop, omega2 and sigma2 must be finite")
        return object.__new__(PkParams)._fill(np.asarray(s[:LATENT_DIM], dtype=np.float64), np.diag(diag), sigma2, diag)
    s = np.asarray(s, dtype=np.float64)
    cov = unpack_sym(s[LATENT_DIM : LATENT_DIM + 10]) - np.outer(s[:LATENT_DIM], s[:LATENT_DIM])
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] < OMEGA_EIG_FLOOR:
        logger.info("flooring covariance eigenvalues at %.1e (min was %.3e)", OMEGA_EIG_FLOOR, vals[0])
        vals = np.maximum(vals, OMEGA_EIG_FLOOR)
        omega2 = (vecs * vals) @ vecs.T
        omega2 = 0.5 * (omega2 + omega2.T)
    else:
        omega2 = cov
    return PkParams(log_pop=s[:LATENT_DIM], omega2=omega2, sigma2=sigma2)


def simulate(
    n: int,
    params: PkParams,
    design: tuple[float, np.ndarray],
    rng: np.random.Generator,
) -> list[PkIndividual]:
    """Simulate a cohort under a shared (dose, times) design.

    The stream is read as one (n, 4 + J) block of normals: row i holds
    patient i's 4 latent normals, then their J noise normals.
    """
    dose, times = design
    times = np.asarray(times, dtype=np.float64)
    try:
        chol = np.linalg.cholesky(params.omega2)
    except np.linalg.LinAlgError:  # a singular covariance is legal here
        vals, vecs = np.linalg.eigh(params.omega2)
        chol = vecs * np.sqrt(np.maximum(vals, 0.0))
    sd = float(np.sqrt(params.sigma2))
    normals = rng.standard_normal((n, LATENT_DIM + len(times)))
    # chol @ d per patient: a batched product goes through gemm, which rounds a full omega2 differently
    shifts = np.array([chol @ d for d in normals[:, :LATENT_DIM]]).reshape(n, LATENT_DIM)
    t = times.tolist()
    curves = [_curve(t, *z, dose) for z in np.exp(params.log_pop + shifts).tolist()]
    obs = np.array(curves).reshape(n, len(t)) + sd * normals[:, LATENT_DIM:]
    return [PkIndividual(dose=dose, times=times, obs=row) for row in obs]


def default_design() -> tuple[float, np.ndarray]:
    """Dose and sampling times spanning absorption through elimination."""
    return 100.0, np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0, 24.0])


def paper_truth() -> PkParams:
    """The reference simulation truth used by the benchmark."""
    return PkParams(
        log_pop=np.log([1.0, 1.0, 8.0, 0.1]),
        omega2=np.array([0.4, 0.5, 0.2, 0.3]) ** 2,
        sigma2=0.5,
    )


class PkModel(ModelSpec):
    """PK model bound to a cohort; posterior draws via random-walk MH.

    One E-step for patient i runs ``n_samples`` MH transitions on the
    log-latent vector and returns the statistic of the final state.  The
    chain is warm-started from the state the caller's ``chains`` dict holds
    for i, else from the population mean.  Proposal scales follow the
    current population spread (0.4 per-coordinate prior sd).  The model
    keeps no state between calls.
    """

    PROPOSAL_FACTOR = 0.4
    MIN_PROPOSAL_SCALE = 1e-4

    def __init__(self, individuals: list[PkIndividual]):
        if not individuals:
            raise ValueError("cohort must be nonempty")
        self.individuals = list(individuals)

    @property
    def n(self) -> int:
        return len(self.individuals)

    def stat_dim(self) -> int:
        return STAT_DIM

    def param_names(self) -> list[str]:
        names = [f"log_{c}_pop" for c in LATENT_NAMES]
        names += [f"omega2_{LATENT_NAMES[a]}_{LATENT_NAMES[b]}" for a, b in zip(*_TRIU)]
        names.append("sigma2")
        return names

    def flatten_params(self, theta: PkParams) -> list:
        return theta.log_pop.tolist() + pack_sym(theta.omega2).tolist() + [float(theta.sigma2)]

    def unflatten_params(self, vec) -> PkParams:
        return PkParams(log_pop=vec[:LATENT_DIM], omega2=unpack_sym(vec[LATENT_DIM : LATENT_DIM + 10]),
                        sigma2=float(vec[-1]))

    def default_init(self) -> PkParams:
        """Deterministic starting point from per-patient curve heuristics.

        Medians of crude per-patient estimates (peak volume, terminal slope,
        inverse time-to-peak, half the first sampling time), perturbed +20%.
        """
        rows, slopes = [], []  # slopes: a row, its terminal pair of observations, their times' gap
        for indiv in self.individuals:
            times, obs = indiv.times.tolist(), indiv.obs.tolist()
            peak = max(obs)
            cmax = max(peak, 1e-6)
            tail = [j for j, y in enumerate(obs) if y > 0.05 * cmax][-2:]  # both positive, as cmax is
            if len(tail) == 2 and obs[tail[0]] > obs[tail[1]]:
                a, b = tail
                slopes.append((len(rows), obs[a], obs[b], times[b] - times[a]))
            rows.append([
                max(0.5 * times[0], 0.01),
                min(max(2.0 / max(times[obs.index(peak)], 0.1), 0.05), 20.0),  # the peak's first time
                min(max(indiv.dose / cmax, 1e-3), 1e4),
                0.1,  # k0 without a terminal slope
            ])
        ests = np.array(rows)
        if slopes:  # one np.log over all pairs: math.log rounds differently
            at, ya, yb, gap = zip(*slopes)
            log_a, log_b = np.log([ya, yb])
            ests[list(at), 3] = np.clip((log_a - log_b) / gap, 1e-2, 5.0)
        med = np.median(ests, axis=0)
        return PkParams(log_pop=np.log(1.2 * med), omega2=0.1 * np.eye(4), sigma2=1.0)

    def sample_posterior(self, i, theta: PkParams, n_samples, rng, chains=None) -> np.ndarray:
        """Final log-latent state of ``n_samples`` MH transitions for patient
        i, started from ``chains[i]`` when present and stored back there.
        The proposal scales and their checked config are built once per theta."""
        target = _log_target(self.individuals[i], theta)  # fails first on a singular prior
        key = (n_samples, self.PROPOSAL_FACTOR, self.MIN_PROPOSAL_SCALE)
        if (config := theta._configs.get(key)) is None:
            scales = np.maximum(self.PROPOSAL_FACTOR * theta._sds, self.MIN_PROPOSAL_SCALE)
            config = theta._configs[key] = MhConfig(n_samples, scales, theta.log_pop)
        final = mh_chain(target, config, rng, init=chains.get(i) if chains else None)  # mh_chain copies it
        if chains is not None:
            chains[i] = final
        return final

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        return suff_stat(self.individuals[i], self.sample_posterior(i, theta, n_samples, rng, chains))

    def m_step(self, s):
        return m_step(s)


def read_cohort(path) -> list[PkIndividual]:
    """CSV with header id,dose,time,obs; one row per observation."""
    groups: dict[str, dict] = {}  # in first-appearance order
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "id,dose,time,obs":
            raise ValueError(f"unexpected cohort header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            pid, dose, t, y = line.strip().split(",")
            group = groups.setdefault(pid, {"dose": float(dose), "times": [], "obs": []})
            if float(dose) != group["dose"]:
                raise ValueError(f"patient {pid!r} has conflicting doses {group['dose']!r} and {float(dose)!r}")
            group["times"].append(float(t))
            group["obs"].append(float(y))
    return [PkIndividual(**group) for group in groups.values()]


def write_cohort(path, cohort: list[PkIndividual]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("id,dose,time,obs\n")
        for pid, indiv in enumerate(cohort):
            for t, y in zip(indiv.times, indiv.obs):
                fh.write(f"{pid},{repr(float(indiv.dose))},{repr(float(t))},{repr(float(y))}\n")
