"""Benchmark harness: dataset synthesis, single runs, and replicate Monte
Carlo studies with deterministic CSV/JSON output.

An experiment simulates R datasets, fits every configured algorithm to each
one from a shared deterministic starting point, and records metric series
on a common cost grid measured in epochs (n posterior computations).  The
root seed fixes every byte of output; replicates may run in parallel and
are merged in index order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from . import gmm, pk
from .core import VARIANTS, ConfigError, ModelSpec, RunConfig, StepSchedule, as_int, check_seed, set_ints
from .engine import Trajectory, run
from .rng import derive_seed, named_stream

__all__ = [
    "AlgoSpec",
    "ExperimentSpec",
    "parse_gamma",
    "resolve_rho",
    "epochs_to_iters",
    "metric_precision_gmm",
    "pk_naive_init",
    "cmd_simulate",
    "cmd_run",
    "cmd_replicate",
]

DEFAULT_GAMMA = "poly:0.5:warmup=1ep"
DEFAULT_MC_SAMPLES = {"gmm": 10, "pk": 50}
GRID_RESOLUTION = 10  # metric grid points per epoch


# ---------------------------------------------------------------------------
# Stepsize / algorithm specifications (textual, resolved once n is known)
# ---------------------------------------------------------------------------


def parse_gamma(text: str, n: int, variant: str) -> StepSchedule:
    """Parse a gamma flag into the schedule of one run on n samples.

    "0.5" and "const:0.5" are constant; "poly:a[:c=c][:warmup=w]" is
    polynomial, with a warmup of w iterations, or of w epochs when w ends
    in "ep" (``Variant.iters_per_epoch`` iterations each).  The warmup must
    come out finite and nonnegative.
    """
    head, *fields = text.split(":")
    try:
        if head != "poly":
            if fields and (head != "const" or len(fields) > 1):
                raise ValueError  # a constant takes its value and nothing else
            c = float(fields[0] if fields else head)
        else:
            a, c, warmup = float(fields[0]), 1.0, 0.0
            for extra in fields[1:]:
                key, _, val = extra.partition("=")
                if key == "c":
                    c = float(val)
                elif key == "warmup" and val.endswith("ep"):
                    warmup = float(val[:-2]) * VARIANTS[variant].iters_per_epoch(n)
                elif key == "warmup":
                    warmup = float(val)
                else:
                    raise ValueError
            if not 0 <= warmup < math.inf:
                raise ValueError
    except (ValueError, IndexError):
        raise ConfigError(f"cannot parse gamma spec {text!r}") from None
    if head != "poly":
        return StepSchedule.constant(c)
    return StepSchedule.polynomial(a, c=c, warmup_iters=round(warmup))


def resolve_rho(rho, n: int, variant: str) -> Optional[float]:
    """"auto" means n**(-2/3) for the variance-reduced variants, 1 otherwise."""
    if rho == "auto" or rho is None:
        return 1.0 if VARIANTS[variant].unit_rho else float(n) ** (-2.0 / 3.0)
    try:
        return float(rho)
    except ValueError:
        raise ConfigError(f"cannot parse rho {rho!r}") from None


def epochs_to_iters(epochs: float, n: int, variant: str) -> int:
    """Iteration budget covering ``epochs`` of ``Variant.iters_per_epoch``."""
    if not 0 <= epochs < math.inf:
        raise ConfigError(f"epochs must be nonnegative and finite, got {epochs}")
    return math.ceil(epochs * VARIANTS[variant].iters_per_epoch(n))


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm entry of an experiment; unresolved defaults are filled
    from the dataset size and the model's conventions."""

    variant: str
    gamma: str = DEFAULT_GAMMA
    rho: object = "auto"
    mc_samples: Optional[int] = None
    epoch_len: object = "auto"

    def to_config(self, n: int, epochs: float, seed: int, model_kind: str) -> RunConfig:
        variant = self.variant
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        # text (a CLI flag) is parsed and any value checked for every variant;
        # only vrTTEM has an anchor, so the others leave a valid value unused
        epoch_len = None if self.epoch_len in ("auto", None) else self.epoch_len
        if isinstance(epoch_len, str):
            try:
                epoch_len = int(epoch_len)
            except ValueError:
                raise ConfigError(f"cannot parse epoch_len {epoch_len!r}") from None
        elif epoch_len is not None:
            epoch_len = as_int("epoch_len", epoch_len)
        epoch_len = (n if epoch_len is None else epoch_len) if VARIANTS[variant].proxy == "anchor" else None
        mc = self.mc_samples if self.mc_samples is not None else DEFAULT_MC_SAMPLES[model_kind]
        gamma = parse_gamma(self.gamma, n, variant)
        if VARIANTS[variant].unit_gamma and self.gamma == DEFAULT_GAMMA:
            gamma = StepSchedule.constant(1.0)  # default gamma is forced to 1
        return RunConfig(
            variant=variant,
            total_iters=epochs_to_iters(epochs, n, variant),
            seed=seed,
            gamma=gamma,
            rho=resolve_rho(self.rho, n, variant),
            mc_samples=mc,
            epoch_len=epoch_len,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A full replicate study; every output byte is a function of this."""

    model: str                      # "gmm" | "pk"
    n: int
    replicates: int
    epochs: float
    algorithms: tuple[AlgoSpec, ...]
    seed: int
    truth: Optional[object] = None  # model parameter object; None = built-in defaults
    jobs: int = 1
    # one resolved RunConfig per algorithm, at the root seed; each replicate
    # runs them with its own seed
    configs: tuple[RunConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model not in ("gmm", "pk"):
            raise ConfigError(f"unknown model {self.model!r}")
        set_ints(self, "n", "replicates", "jobs")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.replicates < 1 or self.n < 1:
            raise ConfigError("need at least one replicate and one sample")
        if not 0 < self.epochs < math.inf:
            raise ConfigError(f"epochs must be positive and finite, got {self.epochs}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if not self.algorithms:
            raise ConfigError("need at least one algorithm")
        variants = [a.variant for a in self.algorithms]
        if len(set(variants)) != len(variants):
            raise ConfigError("algorithm variants must be unique")
        # a setting that cannot run fails here, before any dataset is simulated
        configs = tuple(a.to_config(self.n, self.epochs, self.seed, self.model) for a in self.algorithms)
        object.__setattr__(self, "configs", configs)

    def grid(self) -> np.ndarray:
        m = math.ceil(self.epochs) * GRID_RESOLUTION
        return np.arange(1, m + 1) / GRID_RESOLUTION


# ---------------------------------------------------------------------------
# Model plumbing: defaults, initialization, metrics
# ---------------------------------------------------------------------------


def gmm_truth_default() -> gmm.GmmParams:
    return gmm.GmmParams(omega=[0.5], mu=[0.5, -0.5])


def pk_naive_init(cohort: list[pk.PkIndividual]) -> pk.PkParams:
    """Deterministic starting point from per-patient curve heuristics.

    Medians of crude per-patient estimates (peak volume, terminal slope,
    inverse time-to-peak, half the first sampling time), perturbed +20%.
    """
    ests = np.empty((len(cohort), 4))
    for row, indiv in enumerate(cohort):
        cmax = max(float(indiv.obs.max()), 1e-6)
        tmax = float(indiv.times[int(np.argmax(indiv.obs))])
        v0 = indiv.dose / cmax
        k0 = 0.1
        pos = np.flatnonzero(indiv.obs > 0.05 * cmax)
        if len(pos) >= 2:
            a, b = pos[-2], pos[-1]
            if indiv.obs[b] > 0 and indiv.obs[a] > indiv.obs[b]:
                k0 = float(
                    (np.log(indiv.obs[a]) - np.log(indiv.obs[b]))
                    / (indiv.times[b] - indiv.times[a])
                )
        ests[row] = (
            max(0.5 * float(indiv.times[0]), 0.01),
            float(np.clip(2.0 / max(tmax, 0.1), 0.05, 20.0)),
            float(np.clip(v0, 1e-3, 1e4)),
            float(np.clip(k0, 1e-2, 5.0)),
        )
    med = np.median(ests, axis=0)
    return pk.PkParams(log_pop=np.log(1.2 * med), omega2=0.1 * np.eye(4), sigma2=1.0)


def metric_precision_gmm(mu: np.ndarray, mu_star: np.ndarray) -> float:
    """Squared mean error minimized over component relabelings."""
    mu = np.asarray(mu, dtype=np.float64)
    mu_star = np.asarray(mu_star, dtype=np.float64)
    if mu.shape != mu_star.shape:
        raise ValueError("component count mismatch")
    return min(float(np.sum((mu - mu_star[list(p)]) ** 2)) for p in permutations(range(len(mu))))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _simulate_dataset(model_kind: str, truth, n: int, seed: int):
    rng = named_stream(seed, "data")
    if model_kind == "gmm":
        truth = truth if truth is not None else gmm_truth_default()
        return gmm.simulate(n, truth, rng), truth
    truth = truth if truth is not None else pk.paper_truth()
    return pk.simulate(n, truth, pk.default_design(), rng), truth


def _model_and_init(model_kind: str, data):
    """The model bound to ``data`` and its deterministic starting point."""
    if model_kind == "gmm":
        model = gmm.GmmModel(data)
        return model, model.default_init()
    return pk.PkModel(data), pk_naive_init(data)


def _row_nll(model: ModelSpec, theta0) -> Optional[Callable[[np.ndarray], float]]:
    """Penalized NLL of a flattened parameter row, or None for a model
    without a likelihood (probed at ``theta0``)."""
    if model.penalized_nll(theta0) is None:
        return None
    return lambda vec: model.penalized_nll(model.unflatten_params(vec))


def _metric_values(model_kind: str, traj: Trajectory, reference) -> dict[str, np.ndarray]:
    """Per-record metric arrays for one trajectory."""
    out = {"delta_s_sq": traj.delta_s_sq.copy()}
    if model_kind == "gmm":
        m = (traj.thetas.shape[1] + 1) // 2
        mus, mu_star = traj.thetas[:, m - 1 :], reference  # (R, M) means, (M,) reference
        # metric_precision_gmm of every row at once, bit for bit
        out["precision"] = np.min(
            [((mus - mu_star[list(p)]) ** 2).sum(axis=1) for p in permutations(range(m))], axis=0
        )
    else:
        pop_star = reference  # (4,) natural-scale fixed effects
        pops = np.exp(traj.thetas[:, :4])
        for c, name in enumerate(pk.LATENT_NAMES):
            out[f"sqerr_{name}"] = (pops[:, c] - pop_star[c]) ** 2
    return out


def _series_on_grid(traj_epochs: np.ndarray, values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Step-function sample: value of the last record at or before each
    grid point."""
    idx = np.searchsorted(traj_epochs, grid, side="right") - 1
    return values[np.maximum(idx, 0)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(model_kind: str, truth, n: int, seed: int, out_path) -> str:
    """Write a synthetic dataset; returns (and prints nothing) its hash."""
    if (n := as_int("n", n)) < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    seed = check_seed(seed)
    data, _ = _simulate_dataset(model_kind, truth, n, seed)
    if model_kind == "gmm":
        gmm.write_dataset(out_path, data)
    else:
        pk.write_cohort(out_path, data)
    with open(out_path, "rb") as fh:
        return _sha256(fh.read())


def cmd_run(model_kind: str, data, config: RunConfig, out_path) -> Trajectory:
    """One run from the default start straight to a trajectory CSV."""
    model, theta0 = _model_and_init(model_kind, data)
    traj = run(model, config, theta0=theta0)
    with open(out_path, "w", encoding="ascii", newline="\n") as fh:
        traj.write_csv(fh, nll=_row_nll(model, theta0))
    return traj


def _replicate_worker(spec: ExperimentSpec, r: int) -> dict:
    """Simulate, fit every algorithm, and sample metric series on the grid."""
    data_seed = derive_seed(spec.seed, "rep", r, 0)
    run_seed = derive_seed(spec.seed, "rep", r, 1)
    data, truth = _simulate_dataset(spec.model, spec.truth, spec.n, data_seed)

    model, theta0 = _model_and_init(spec.model, data)
    if spec.model == "gmm":
        reference = gmm.fit_reference_em(data, init=theta0).mu
        data_hash = _sha256("\n".join(repr(float(y)) for y in data).encode())
    else:
        reference = truth.pop
        data_hash = _sha256(
            "\n".join(
                repr(float(v)) for ind in data for v in np.concatenate([ind.times, ind.obs])
            ).encode()
        )
    theta0_hash = _sha256(np.ascontiguousarray(model.flatten_params(theta0)).tobytes())
    nll = _row_nll(model, theta0)

    grid = spec.grid()
    series: dict[str, dict[str, np.ndarray]] = {}
    for algo, config in zip(spec.algorithms, spec.configs):
        traj = run(model, replace(config, seed=run_seed), theta0=theta0)
        # The grid counts iterations per pass (the axis the reference study
        # plots against); the trajectory's own epoch column stays
        # cost-charged, billing anchor refreshes a full pass.
        axis = traj.iters / float(VARIANTS[algo.variant].iters_per_epoch(spec.n))
        metrics = _metric_values(spec.model, traj, reference)
        sampled = {
            name: _series_on_grid(axis, vals, grid) for name, vals in metrics.items()
        }
        if nll is not None:
            # NLL is only sampled on the grid, so evaluate it on the thinned rows.
            nll_rows = traj.select_rows(max_rows=len(grid) * 4)
            nll_vals = np.array([nll(traj.thetas[i]) for i in nll_rows])
            sampled["nll"] = _series_on_grid(axis[nll_rows], nll_vals, grid)
        series[algo.variant] = sampled

    return {
        "replicate": r,
        "data_hash": data_hash,
        "theta0_hash": theta0_hash,
        "series": series,
    }


def cmd_replicate(spec: ExperimentSpec, metrics_path, summary_path) -> dict:
    """Run the whole study and write the aggregated metrics CSV plus a
    summary JSON.  Any replicate failure aborts the experiment."""
    if (workers := min(spec.jobs, spec.replicates, os.cpu_count() or 1)) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it imports multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_worker, [spec] * spec.replicates, range(spec.replicates)))
    else:
        results = [_replicate_worker(spec, r) for r in range(spec.replicates)]

    grid = spec.grid()
    algo_names = [a.variant for a in spec.algorithms]
    metric_names = sorted(results[0]["series"][algo_names[0]].keys())
    # one (replicates, grid) array per (algorithm, metric); every statistic
    # below is read off it: the last column is the final value, and column
    # e * GRID_RESOLUTION - 1 is whole epoch e
    stacked = {
        name: {metric: np.stack([res["series"][name][metric] for res in results]) for metric in metric_names}
        for name in algo_names
    }
    int_epochs = list(range(1, math.ceil(spec.epochs) + 1))
    int_idx = [e * GRID_RESOLUTION - 1 for e in int_epochs]

    final: dict[str, dict[str, dict]] = {}
    per_rep: dict[str, dict[str, list]] = {}
    # metrics CSV: one row per (algorithm, metric, grid point)
    with open(metrics_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("algo,metric,epoch,mean,median,q25,q75\n")
        for name in algo_names:
            final[name], per_rep[name] = {}, {}
            for metric, x in stacked[name].items():
                stats = [x.mean(axis=0)] + [np.quantile(x, q, axis=0) for q in (0.5, 0.25, 0.75)]
                for g, row in zip(grid.tolist(), zip(*stats)):
                    fh.write(",".join([name, metric] + [repr(float(v)) for v in (g, *row)]) + "\n")
                last = x[:, -1]
                final[name][metric] = {
                    "median": float(np.median(last)),
                    "mean": float(np.mean(last)),
                    "per_replicate": last.tolist(),
                }
                per_rep[name][metric] = x[:, int_idx].tolist()

    # wins[metric][a][b]: replicates whose final value is lower under a than under b
    wins = {metric: {a: {} for a in algo_names} for metric in metric_names}
    for metric in metric_names:
        for a, b in permutations(algo_names, 2):
            wins[metric][a][b] = int(np.sum(stacked[a][metric][:, -1] < stacked[b][metric][:, -1]))

    summary = {
        "model": spec.model,
        "n": spec.n,
        "replicates": spec.replicates,
        "epochs": spec.epochs,
        "seed": spec.seed,
        "grid": [float(g) for g in grid],
        "hashes": [
            {"replicate": res["replicate"], "data": res["data_hash"], "theta0": res["theta0_hash"]}
            for res in results
        ],
        "final": final,
        "wins": wins,
        "integer_epochs": int_epochs,
        "per_replicate_at_integer_epochs": per_rep,
    }
    with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
