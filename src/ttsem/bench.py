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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Optional

import numpy as np

from . import gmm, pk
from .core import VARIANTS, ConfigError, RunConfig, StepSchedule
from .engine import Trajectory, run
from .rng import derive_seed, named_stream

__all__ = [
    "GammaSpec",
    "AlgoSpec",
    "ExperimentSpec",
    "parse_gamma",
    "resolve_gamma",
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


@dataclass(frozen=True)
class GammaSpec:
    """Parsed gamma flag; warmup may be counted in epochs ("1ep") so it can
    only be resolved once the dataset size and variant are known."""

    kind: str            # "constant" | "polynomial"
    c: float = 1.0
    a: float = 0.5
    warmup: float = 0.0
    warmup_in_epochs: bool = False


def parse_gamma(text: str) -> GammaSpec:
    """Parse e.g. "1", "const:0.5", "poly:0.5", "poly:0.5:warmup=1ep"."""
    parts = text.split(":")
    head = parts[0]
    try:
        if head == "const" or head not in ("poly",) and len(parts) == 1:
            c = float(parts[1] if head == "const" else head)
            return GammaSpec(kind="constant", c=c)
        if head != "poly":
            raise ValueError
        spec = GammaSpec(kind="polynomial", a=float(parts[1]))
        for extra in parts[2:]:
            key, _, val = extra.partition("=")
            if key == "c":
                spec = replace(spec, c=float(val))
            elif key == "warmup":
                if val.endswith("ep"):
                    spec = replace(spec, warmup=float(val[:-2]), warmup_in_epochs=True)
                else:
                    spec = replace(spec, warmup=float(val), warmup_in_epochs=False)
            else:
                raise ValueError
        return spec
    except (ValueError, IndexError):
        raise ConfigError(f"cannot parse gamma spec {text!r}") from None


def resolve_gamma(spec: GammaSpec, n: int, variant: str) -> StepSchedule:
    """Turn a parsed gamma spec into a schedule for a concrete run."""
    if spec.kind == "constant":
        return StepSchedule.constant(spec.c)
    warmup = spec.warmup
    if spec.warmup_in_epochs:
        warmup *= 1 if VARIANTS[variant].proxy == "batch" else n
    return StepSchedule.polynomial(spec.a, c=spec.c, warmup_iters=int(round(warmup)))


def resolve_rho(rho, n: int, variant: str) -> Optional[float]:
    """"auto" means n**(-2/3) for the variance-reduced variants, 1 otherwise."""
    if rho == "auto" or rho is None:
        return 1.0 if VARIANTS[variant].unit_rho else float(n) ** (-2.0 / 3.0)
    try:
        return float(rho)
    except ValueError:
        raise ConfigError(f"cannot parse rho {rho!r}") from None


def epochs_to_iters(epochs: float, n: int, variant: str) -> int:
    """Iteration budget covering ``epochs``: one full pass per iteration for
    batch variants, n iterations per epoch for incremental ones."""
    if not 0 <= epochs < math.inf:
        raise ConfigError(f"epochs must be nonnegative and finite, got {epochs}")
    return math.ceil(epochs) if VARIANTS[variant].proxy == "batch" else math.ceil(epochs * n)


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm entry of an experiment; unresolved defaults are filled
    from the dataset size and the model's conventions."""

    variant: str
    gamma: str = DEFAULT_GAMMA
    rho: object = "auto"
    mc_samples: Optional[int] = None
    epoch_len: object = "auto"
    label: Optional[str] = None

    def name(self) -> str:
        return self.label or self.variant

    def to_config(self, n: int, epochs: float, seed: int, model_kind: str) -> RunConfig:
        variant = self.variant
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        epoch_len = None
        if VARIANTS[variant].proxy == "anchor":
            try:
                epoch_len = n if self.epoch_len in ("auto", None) else int(self.epoch_len)
            except ValueError:
                raise ConfigError(f"cannot parse epoch_len {self.epoch_len!r}") from None
        mc = self.mc_samples if self.mc_samples is not None else DEFAULT_MC_SAMPLES[model_kind]
        gamma = resolve_gamma(parse_gamma(self.gamma), n, variant)
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
    resolution: int = GRID_RESOLUTION

    def __post_init__(self):
        if self.model not in ("gmm", "pk"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.replicates < 1 or self.n < 1:
            raise ConfigError("need at least one replicate and one sample")
        if not 0 < self.epochs < math.inf:
            raise ConfigError(f"epochs must be positive and finite, got {self.epochs}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if not self.algorithms:
            raise ConfigError("need at least one algorithm")
        names = [a.name() for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ConfigError("algorithm labels must be unique")

    def grid(self) -> np.ndarray:
        m = math.ceil(self.epochs) * self.resolution
        return np.arange(1, m + 1) / self.resolution


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


def _build_model(model_kind: str, data):
    if model_kind == "gmm":
        return gmm.GmmModel(data)
    return pk.PkModel(data)


def _default_init(model_kind: str, model, data):
    if model_kind == "gmm":
        return model.default_init()
    return pk_naive_init(data)


def _metric_values(model_kind: str, traj: Trajectory, reference) -> dict[str, np.ndarray]:
    """Per-record metric arrays for one trajectory."""
    out = {"delta_s_sq": traj.delta_s_sq.copy()}
    if model_kind == "gmm":
        m = (traj.thetas.shape[1] + 1) // 2
        mu_star = reference  # (M,) reference means
        out["precision"] = np.array(
            [metric_precision_gmm(row[m - 1 :], mu_star) for row in traj.thetas]
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


def _metric_axis(variant: str, traj: Trajectory, n: int) -> np.ndarray:
    """Epochs-elapsed axis for the metric grid: iterations for batch
    variants, iterations/n for incremental ones.

    This is the axis the reference study plots against; the trajectory's
    own epoch column stays cost-charged (anchor refreshes bill a full
    pass there, which the reduction identities rely on).
    """
    if VARIANTS[variant].proxy == "batch":
        return traj.iters.astype(np.float64)
    return traj.iters / float(n)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(model_kind: str, truth, n: int, seed: int, out_path) -> str:
    """Write a synthetic dataset; returns (and prints nothing) its hash."""
    data, _ = _simulate_dataset(model_kind, truth, n, seed)
    if model_kind == "gmm":
        gmm.write_dataset(out_path, data)
    else:
        pk.write_cohort(out_path, data)
    with open(out_path, "rb") as fh:
        return _sha256(fh.read())


def cmd_run(
    model_kind: str,
    data,
    config: RunConfig,
    out_path,
    theta0=None,
    epochs: Optional[float] = None,
) -> Trajectory:
    """One run straight to a trajectory CSV."""
    model = _build_model(model_kind, data)
    if theta0 is None:
        theta0 = _default_init(model_kind, model, data)
    traj = run(model, config, theta0=theta0)
    nll = None
    if model.penalized_nll(theta0) is not None:
        nll = lambda vec: model.penalized_nll(model.unflatten_params(vec))
    with open(out_path, "w", encoding="ascii", newline="\n") as fh:
        traj.write_csv(fh, nll=nll)
    return traj


def _replicate_worker(spec: ExperimentSpec, r: int) -> dict:
    """Simulate, fit every algorithm, and sample metric series on the grid."""
    data_seed = derive_seed(spec.seed, "rep", r, 0)
    run_seed = derive_seed(spec.seed, "rep", r, 1)
    data, truth = _simulate_dataset(spec.model, spec.truth, spec.n, data_seed)

    model = _build_model(spec.model, data)
    theta0 = _default_init(spec.model, model, data)
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

    grid = spec.grid()
    series: dict[str, dict[str, np.ndarray]] = {}
    for algo in spec.algorithms:
        config = algo.to_config(spec.n, spec.epochs, run_seed, spec.model)
        traj = run(model, config, theta0=theta0)
        axis = _metric_axis(algo.variant, traj, spec.n)
        metrics = _metric_values(spec.model, traj, reference)
        if spec.model == "gmm":
            nll_rows = traj.select_rows(max_rows=len(grid) * 4)
            # NLL is only sampled on the grid, so evaluate it on the thinned rows.
            nll_vals = np.array(
                [
                    model.penalized_nll(model.unflatten_params(traj.thetas[i]))
                    for i in nll_rows
                ]
            )
            series_nll = _series_on_grid(axis[nll_rows], nll_vals, grid)
        sampled = {
            name: _series_on_grid(axis, vals, grid) for name, vals in metrics.items()
        }
        if spec.model == "gmm":
            sampled["nll"] = series_nll
        series[algo.name()] = sampled

    return {
        "replicate": r,
        "data_hash": data_hash,
        "theta0_hash": theta0_hash,
        "series": series,
    }


def cmd_replicate(spec: ExperimentSpec, metrics_path, summary_path) -> dict:
    """Run the whole study and write the aggregated metrics CSV plus a
    summary JSON.  Any replicate failure aborts the experiment."""
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(pool.map(_replicate_worker, [spec] * spec.replicates, range(spec.replicates)))
    else:
        results = [_replicate_worker(spec, r) for r in range(spec.replicates)]
    results.sort(key=lambda d: d["replicate"])

    grid = spec.grid()
    algo_names = [a.name() for a in spec.algorithms]
    metric_names = sorted(results[0]["series"][algo_names[0]].keys())

    # metrics CSV: one row per (algorithm, metric, grid point)
    with open(metrics_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("algo,metric,epoch,mean,median,q25,q75\n")
        for name in algo_names:
            for metric in metric_names:
                stacked = np.stack([res["series"][name][metric] for res in results])
                mean = stacked.mean(axis=0)
                med = np.quantile(stacked, 0.5, axis=0)
                q25 = np.quantile(stacked, 0.25, axis=0)
                q75 = np.quantile(stacked, 0.75, axis=0)
                for g in range(len(grid)):
                    fh.write(
                        ",".join(
                            [name, metric, repr(float(grid[g]))]
                            + [repr(float(x)) for x in (mean[g], med[g], q25[g], q75[g])]
                        )
                        + "\n"
                    )

    final: dict[str, dict[str, dict]] = {}
    for name in algo_names:
        final[name] = {}
        for metric in metric_names:
            per_rep = [float(res["series"][name][metric][-1]) for res in results]
            final[name][metric] = {
                "median": float(np.median(per_rep)),
                "mean": float(np.mean(per_rep)),
                "per_replicate": per_rep,
            }

    wins: dict[str, dict[str, dict[str, int]]] = {}
    for metric in metric_names:
        wins[metric] = {}
        for a in algo_names:
            wins[metric][a] = {}
            for b in algo_names:
                if a == b:
                    continue
                wins[metric][a][b] = int(
                    sum(
                        xa < xb
                        for xa, xb in zip(
                            final[a][metric]["per_replicate"], final[b][metric]["per_replicate"]
                        )
                    )
                )

    # compact per-replicate values at whole epochs, for ordering checks
    int_epochs = [e for e in range(1, math.ceil(spec.epochs) + 1)]
    int_idx = [e * spec.resolution - 1 for e in int_epochs]
    per_rep = {
        name: {
            metric: [[float(res["series"][name][metric][g]) for g in int_idx] for res in results]
            for metric in metric_names
        }
        for name in algo_names
    }

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
