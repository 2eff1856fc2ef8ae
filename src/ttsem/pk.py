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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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
        object.__setattr__(self, "log_pop", np.asarray(self.log_pop, dtype=np.float64))
        om = np.asarray(self.omega2, dtype=np.float64)
        if om.ndim == 1:
            om = np.diag(om)
        object.__setattr__(self, "omega2", om)
        if self.log_pop.shape != (LATENT_DIM,):
            raise ValueError("log_pop must have length 4")
        if self.omega2.shape != (LATENT_DIM, LATENT_DIM):
            raise ValueError("omega2 must be 4x4 (or a length-4 diagonal)")
        if not np.allclose(self.omega2, self.omega2.T):
            raise ValueError("omega2 must be symmetric")
        # Positive semidefinite is enough to carry the parameters around
        # (degenerate values are legal for simulation); estimation paths
        # that need a proper prior fail loudly on a singular omega2.
        if np.linalg.eigvalsh(self.omega2)[0] < -1e-12:
            raise ValueError("omega2 must be positive semidefinite")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")

    @property
    def pop(self) -> np.ndarray:
        """Fixed effects on the natural scale."""
        return np.exp(self.log_pop)


@dataclass(frozen=True)
class PkIndividual:
    """One patient: dose plus concentration measurements over time."""

    dose: float
    times: np.ndarray
    obs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "obs", np.asarray(self.obs, dtype=np.float64))
        if self.dose <= 0.0:
            raise ValueError("dose must be positive")
        if self.times.ndim != 1 or len(self.times) < 1 or len(self.times) != len(self.obs):
            raise ValueError("times and obs must be equal-length nonempty vectors")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")


def _washout_over_gap(ka, k, dt):
    # (e^{-k dt} - e^{-ka dt}) / (ka - k), factored through the smaller rate
    # so expm1 only ever sees nonpositive arguments: no overflow for any
    # positive rates, and no cancellation when the rates nearly coincide.
    gap = abs(ka - k)
    return np.exp(-min(ka, k) * dt) * -np.expm1(-gap * dt) / gap


def _conc_general(t, tlag, ka, v, k, dose):
    dt = np.maximum(t - tlag, 0.0)
    return np.where(t > tlag, dose * ka / v * _washout_over_gap(ka, k, dt), 0.0)


def _conc_limit(t, tlag, ka, v, k, dose):
    # ka -> k limit of the general branch: D ka dt e^{-k dt} / V.
    dt = np.maximum(t - tlag, 0.0)
    return np.where(t > tlag, dose * ka * dt * np.exp(-k * dt) / v, 0.0)


def structural(t, z, dose: float):
    """Predicted concentration at time(s) t for latent z = (T_lag, ka, V, k).

    Zero at and before the lag time; continuous across the ka = k branch
    switch.  Scalar t in, scalar out.
    """
    tlag, ka, v, k = (float(c) for c in np.asarray(z, dtype=np.float64))
    if min(tlag, ka, v, k) <= 0.0:
        raise ValueError("latent PK parameters must be strictly positive")
    t_arr = np.asarray(t, dtype=np.float64)
    if abs(ka - k) < _BRANCH_RTOL * max(ka, k):
        out = _conc_limit(t_arr, tlag, ka, v, k, dose)
    else:
        out = _conc_general(t_arr, tlag, ka, v, k, dose)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def log_posterior(indiv: PkIndividual, z_log: np.ndarray, params: PkParams) -> float:
    """Unnormalized log posterior of one patient's log-latent vector.

    Sum of the data term -||y - f||^2 / (2 sigma^2) and the prior quadratic
    form; additive constants in z are dropped, so the value is exactly zero
    at a perfect fit evaluated at the prior mode.
    """
    z_log = np.asarray(z_log, dtype=np.float64)
    if not np.all(np.abs(z_log) < 700.0):
        return -np.inf  # exp would over/underflow; signal auto-reject
    z = np.exp(z_log)
    with np.errstate(over="ignore"):
        resid = indiv.obs - structural(indiv.times, z, indiv.dose)
        rss = float(resid @ resid)
    if not np.isfinite(rss):
        return -np.inf  # structurally absurd latent; auto-reject
    data_term = -0.5 * rss / params.sigma2
    d = z_log - params.log_pop
    sol = np.linalg.solve(params.omega2, d)
    return data_term - 0.5 * float(d @ sol)


def suff_stat(indiv: PkIndividual, z_log: np.ndarray) -> np.ndarray:
    """Statistic vector for one patient at a sampled log-latent."""
    z_log = np.asarray(z_log, dtype=np.float64)
    outer = np.outer(z_log, z_log)
    resid = indiv.obs - structural(indiv.times, np.exp(z_log), indiv.dose)
    s3 = float(resid @ resid) / len(indiv.obs)
    return np.concatenate([z_log, outer[_TRIU], [s3]])


def pack_sym(mat: np.ndarray) -> np.ndarray:
    """Upper triangle of a symmetric 4x4, row-major."""
    return mat[_TRIU]


def unpack_sym(flat: np.ndarray) -> np.ndarray:
    """Inverse of pack_sym."""
    mat = np.zeros((LATENT_DIM, LATENT_DIM))
    mat[_TRIU] = flat
    return mat + np.triu(mat, 1).T


def m_step(s: np.ndarray, diagonal: bool = True) -> PkParams:
    """Moment M-step: mean, covariance and residual variance from (s1, s2, s3).

    A degenerate covariance estimate is floored (diagonal entries, or
    eigenvalues in full-matrix mode) and the event logged; s3 is floored at
    a tiny positive value so the next E-step target stays proper.
    """
    s1 = s[:LATENT_DIM]
    cov = unpack_sym(s[LATENT_DIM : LATENT_DIM + 10]) - np.outer(s1, s1)
    if diagonal:
        diag = np.diag(cov).copy()
        if np.any(diag < OMEGA_EIG_FLOOR):
            logger.info("flooring %d diagonal variance(s) at %.1e", int(np.sum(diag < OMEGA_EIG_FLOOR)), OMEGA_EIG_FLOOR)
            diag = np.maximum(diag, OMEGA_EIG_FLOOR)
        omega2 = np.diag(diag)
    else:
        vals, vecs = np.linalg.eigh(cov)
        if vals[0] < OMEGA_EIG_FLOOR:
            logger.info("flooring covariance eigenvalues at %.1e (min was %.3e)", OMEGA_EIG_FLOOR, vals[0])
            vals = np.maximum(vals, OMEGA_EIG_FLOOR)
            omega2 = (vecs * vals) @ vecs.T
            omega2 = 0.5 * (omega2 + omega2.T)
        else:
            omega2 = cov
    sigma2 = max(float(s[-1]), SIGMA2_FLOOR)
    return PkParams(log_pop=s1, omega2=omega2, sigma2=sigma2)


def simulate(
    n: int,
    params: PkParams,
    design: tuple[float, np.ndarray],
    rng: np.random.Generator,
) -> list[PkIndividual]:
    """Simulate a cohort under a shared (dose, times) design."""
    dose, times = design
    times = np.asarray(times, dtype=np.float64)
    cohort = []
    chol = _safe_factor(params.omega2)
    sd = float(np.sqrt(params.sigma2))
    for _ in range(n):
        z_log = params.log_pop + chol @ rng.standard_normal(LATENT_DIM)
        mean = structural(times, np.exp(z_log), dose)
        obs = mean + sd * rng.standard_normal(len(times))
        cohort.append(PkIndividual(dose=dose, times=times, obs=obs))
    return cohort


def _safe_factor(omega2: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix; tolerates singular covariances."""
    try:
        return np.linalg.cholesky(omega2)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(omega2)
        return vecs * np.sqrt(np.maximum(vals, 0.0))


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

    def __init__(self, individuals: list[PkIndividual], diagonal_omega: bool = True):
        if not individuals:
            raise ValueError("cohort must be nonempty")
        self.individuals = list(individuals)
        self.diagonal_omega = diagonal_omega

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

    def flatten_params(self, theta: PkParams) -> np.ndarray:
        return np.concatenate([theta.log_pop, pack_sym(theta.omega2), [theta.sigma2]])

    def unflatten_params(self, vec: np.ndarray) -> PkParams:
        return PkParams(
            log_pop=vec[:LATENT_DIM],
            omega2=unpack_sym(vec[LATENT_DIM : LATENT_DIM + 10]),
            sigma2=float(vec[-1]),
        )

    def sample_posterior(self, i, theta: PkParams, n_samples, rng, chains=None) -> np.ndarray:
        """Final log-latent state of ``n_samples`` MH transitions for patient
        i, started from ``chains[i]`` when present and stored back there."""
        indiv = self.individuals[i]
        init = chains.get(i) if chains is not None else None
        if init is None:
            init = theta.log_pop.copy()
        scales = np.maximum(
            self.PROPOSAL_FACTOR * np.sqrt(np.diag(theta.omega2)), self.MIN_PROPOSAL_SCALE
        )
        config = MhConfig(chain_len=int(n_samples), proposal_scales=scales, init=init)
        final = mh_chain(lambda z: log_posterior(indiv, z, theta), config, rng)
        if chains is not None:
            chains[i] = final
        return final

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        return suff_stat(self.individuals[i], self.sample_posterior(i, theta, n_samples, rng, chains))

    def m_step(self, s):
        return m_step(s, diagonal=self.diagonal_omega)


def read_cohort(path) -> list[PkIndividual]:
    """CSV with header id,dose,time,obs; one row per observation."""
    groups: dict[str, dict] = {}
    order: list[str] = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "id,dose,time,obs":
            raise ValueError(f"unexpected cohort header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            pid, dose, t, y = line.strip().split(",")
            if pid not in groups:
                groups[pid] = {"dose": float(dose), "times": [], "obs": []}
                order.append(pid)
            groups[pid]["times"].append(float(t))
            groups[pid]["obs"].append(float(y))
    return [
        PkIndividual(dose=groups[pid]["dose"], times=groups[pid]["times"], obs=groups[pid]["obs"])
        for pid in order
    ]


def write_cohort(path, cohort: list[PkIndividual]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("id,dose,time,obs\n")
        for pid, indiv in enumerate(cohort):
            for t, y in zip(indiv.times, indiv.obs):
                fh.write(f"{pid},{repr(float(indiv.dose))},{repr(float(t))},{repr(float(y))}\n")
